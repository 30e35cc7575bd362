"""Exact invariants of rank-1 quotient problems and ruled surfaces.

Four layers, each importable on its own: the exterior algebra of the
curve (exterior), integer index bookkeeping (indices), the closed-form
counts and Seiberg-Witten values (invariants) together with the
independent Segre-series oracle (picard), and the slant-product algebra
with its parser (slant).  The cli module exposes all of it as the
ruledinv command.
"""

from .exterior import (
    Multivector,
    SurfaceTopology,
    exp_even,
    format_multivector,
    grade_part,
    parse_multivector,
    theta_class,
    theta_divided_power,
    top_pairing,
    wedge,
)
from .indices import (
    H2Class,
    RuledSurfaceGeometry,
    abelian_v,
    canonical_class,
    douady_index,
    index_wc,
    intersect,
    spinc_det,
)
from .checks import (
    CheckReport,
    basis_monomials,
    run_all,
    run_dictionary_grid,
    run_oracle_grid,
)
from .invariants import (
    SWResult,
    ggw_abelian,
    quot_count,
    sw_equals_ggw_check,
    sw_for_class,
    sw_ruled,
)
from .picard import (
    KunnethClass,
    ThetaSeries,
    chern_series,
    ggw_via_segre,
    grr_pushforward,
    integrate_sigma,
    min_valid_aux_twist,
    poincare_chern,
    segre_series,
)
from .slant import (
    AlgebraContext,
    NormalForm,
    SlantSyntaxError,
    evaluate_abelian,
    normalize,
    parse_expr,
    print_normal,
)

__version__ = "0.1.0"
