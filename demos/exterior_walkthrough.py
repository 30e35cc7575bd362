"""Tour of the exterior algebra layer on a genus-2 surface.

The odd generators a1, b1, a2, b2 anticommute; theta is the sum of the
handle blades a_k^b_k, and the top pairing reads off the coefficient of
the full orientation blade.  Everything is exact integer arithmetic.
"""

from ruledinv.exterior import (
    SurfaceTopology,
    Multivector,
    exp_even,
    format_multivector,
    parse_multivector,
    theta_class,
    theta_divided_power,
    top_pairing,
    wedge,
)

topo = SurfaceTopology(2)
print("genus:", topo.genus, " odd generators:", [topo.generator_name(i) for i in range(topo.rank)])

# generators anticommute, squares vanish
a1 = Multivector.generator(topo.a(1))
b1 = Multivector.generator(topo.b(1))
print("a1^b1 =", format_multivector(wedge(a1, b1, topo), topo))
print("b1^a1 =", format_multivector(wedge(b1, a1, topo), topo))
print("a1^a1 =", format_multivector(wedge(a1, a1, topo), topo))

# theta and its divided powers
theta = theta_class(topo)
print("theta =", format_multivector(theta, topo))
theta2 = wedge(theta, theta, topo)
print("theta^2 =", format_multivector(theta2, topo))
print("theta^2/2! =", format_multivector(theta_divided_power(topo, 2), topo))

# the top pairing normalizes the orientation blade to +1
print("top(theta^2/2!) =", top_pairing(theta_divided_power(topo, 2), topo))
print("top(b1^a1) =", top_pairing(wedge(b1, a1, topo), topo))

# exp is a homomorphism on even elements, so exp(theta) has exp(-theta)
# as its inverse; in a nilpotent ring the series is a finite sum
e = exp_even(theta, topo)
e_inv = exp_even(-1 * theta, topo)
print("exp(theta) =", format_multivector(e, topo))
print("exp(theta)^exp(-theta) =", format_multivector(wedge(e, e_inv, topo), topo))

# round trip through the text form
text = "2*a1^b1 - a2^b2 + 3"
parsed = parse_multivector(text, topo)
print(f"parse({text!r}) -> {format_multivector(parsed, topo)}")
