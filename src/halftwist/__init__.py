"""Exact state-sum engine for two dimensional pin-minus TQFTs.

The package constructs half twist algebras from real separable superalgebras
(Clifford algebras, matrix superalgebras, their sums and graded tensor
products), verifies the thirteen diagram-move axioms, evaluates ribbon
diagrams to exact linear maps over Q(zeta_8), and cross-checks the resulting
closed-surface partition functions against an independent Gauss-sum oracle
for quadratic enhancements.
"""

from .cyclo import CycloNum, ZERO, ONE, ZETA, I, SQRT2, zeta_pow, real_sqrt
from .superalgebra import (
    HalfTwistAlgebra,
    AlgebraElement,
    build_clifford_real,
    build_clifford_complex,
    build_matrix,
    direct_sum,
    supertensor,
    custom_from_tensors,
    parse_algebra,
    algebra_to_text,
    algebra_from_text,
)
from .axioms import (
    AXIOM_IDS,
    AxiomReport,
    CheckStatus,
    check_axiom,
    check_all_axioms,
    check_derived,
    check_unitarity,
    full_report,
)
from .ribbon import (
    DiagramError,
    RibbonDiagram,
    LinearBlock,
    parse,
    evaluate,
    compose,
    expand_left_twists,
)
from .pingeo import (
    PinSurfacePresentation,
    q_eval,
    abk,
    are_equivalent,
    dehn_twist_torus,
    parse_presentation,
    render_presentation,
)
from .tqft import (
    StateSpace,
    ClassifyResult,
    StackingReport,
    LIBRARY_SURFACES,
    state_space,
    projector,
    partition_function,
    moebius_state,
    handle_state,
    connect_sum_pf,
    classify_invertible,
    stacking_check,
    parse_surface,
)

__version__ = "0.1.0"
