"""Normalizing slant-product expressions and evaluating rank-1 ones.

Expressions are built from slants <cup|base>: Chern classes c_i cupped
together, paired against the point class pt, the curve class S, or an
odd class g_j.  The rewriter pushes everything to a normal basis of
u_i, v_i, G[i,j] monomials; in the rank-1 algebra normal forms can then
be paired against the abelian moduli space.
"""

from ruledinv.exterior import Multivector
from ruledinv.invariants import ggw_abelian
from ruledinv.slant import AlgebraContext, evaluate_abelian, normalize, parse_expr, print_normal


def show(text, ctx):
    nf = normalize(parse_expr(text, ctx), ctx)
    print(f"  {text}  ->  {print_normal(nf)}")
    return nf


# rank 2 over a genus-2 curve; <c1|S> reduces to the scalar 1 here
ctx = AlgebraContext(r=2, genus=2, scalar_degree=-1)
print(f"context: r={ctx.r}, genus={ctx.genus}, scalar_degree={ctx.scalar_degree}")
show("<c1|pt>", ctx)
show("<c1|S>", ctx)
show("<c2|S>", ctx)
show("<c1|g3>", ctx)
show("<c1.c1|S>", ctx)
show("<c1|g1>*<c1|g2> + <c1|g2>*<c1|g1>", ctx)

# a named degree-2 class pulled back from the curve integrates over S
ctx_k = AlgebraContext(r=2, genus=1, k0_eval={"h": 3})
print("\nwith a pulled-back class h of integral 3:")
show("<c1.k0[h].c1|S>", ctx_k)
show("<k0[h]|pt>", ctx_k)

# rank-1 normal forms evaluate against the moduli fundamental class
ctx1 = AlgebraContext(r=1, genus=2)
nf = normalize(parse_expr("(1 + u1 + u1^2) * G[1,1]*G[1,2]", ctx1), ctx1)
value = evaluate_abelian(nf, genus=2, r0=2, v=2)
closed = ggw_abelian(2, 2, 2, Multivector.blade((0, 1)))
print(f"\nevaluate: {print_normal(nf)}  ->  {value}  (closed form {closed})")
