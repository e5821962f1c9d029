"""Desk-scale workbench for cocycle-twisted star products.

Fourier-coefficient algebras twisted by bicharacter cocycles, their
parametrised (bundle) versions over sampled base spaces, an exact
finite-group crossed-product model with deformed dual actions, window
operator-norm estimates, and factor-of-automorphy solvers.
"""

from .abelian import (
    FiniteVector,
    GroupContext,
    GroupPoint,
    fourier,
    pairing_many,
)
from .cocycles import (
    Bicharacter,
    LinearMap,
    SkewForm,
    T_map,
    antisymmetrize,
    cohomologous_check,
    is_nondegenerate,
    sigma_one,
)
from .deform import (
    FourierElement,
    compose_cocycles,
    involution,
    iterated_star_check,
    poisson_bracket,
    rieffel_product_finite,
    semiclassical_defect,
    star,
    translate,
)
from .crossed import (
    CrossedElement,
    DeformedActionData,
    I_map,
    crossed_conv,
    deformed_dual_action,
    fixed_point_dimension,
    fixed_point_test,
    spectral_project,
    twisted_crossed_dual,
    verify_I_homomorphism,
)
from .paramdeform import (
    BaseGrid,
    CocycleField,
    MonodromyData,
    ParamElement,
    ScalarField,
    c0x_action,
    equivariant_product_closure,
    equivariant_test,
    heisenberg_field,
    linearity_check,
    monodromy_check,
    monodromy_transport,
    param_star,
    torus_action,
)
from .norms import (
    MonotonicityError,
    left_mult_matrix,
    norm_convergence,
    op_norm_estimate,
)
from .automorphy import (
    AutomorphyFactor,
    GammaAction,
    TauCocycle,
    automorphy_check,
    coboundary,
    solve_automorphy,
    tau_cocycle_check,
    u_cocycle_check,
    u_transform,
)

__version__ = "0.1.0"
