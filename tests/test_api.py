"""The public names of the ``startwist`` package, pinned so that every API
change shows in the diff of this file."""

import types

import startwist

PUBLIC_NAMES = {
    # abelian
    "FiniteVector", "GroupContext", "GroupPoint", "fourier", "pairing",
    # cocycles
    "Bicharacter", "LinearMap", "SkewForm", "T_map", "antisymmetrize", "cocycle_check",
    "cohomologous_check", "is_nondegenerate", "sigma_one",
    # deform
    "FourierElement", "automorphism_check", "compose_cocycles", "involution",
    "iterated_star_check", "poisson_bracket", "rieffel_product_finite",
    "semiclassical_defect", "star", "translate",
    # crossed
    "CrossedElement", "DeformedActionData", "I_map", "crossed_conv", "deformed_dual_action",
    "fixed_point_dimension", "fixed_point_test", "spectral_project", "twisted_crossed_dual",
    "verify_I_homomorphism",
    # paramdeform
    "BaseGrid", "CocycleField", "MonodromyData", "ParamElement", "ScalarField", "c0x_action",
    "equivariant_product_closure", "equivariant_test", "heisenberg_field", "linearity_check",
    "monodromy_check", "monodromy_transport", "param_star", "torus_action",
    # norms
    "MonotonicityError", "Window", "left_mult_matrix", "norm_convergence",
    "op_norm_estimate",
    # automorphy
    "AutomorphyFactor", "GammaAction", "TauCocycle", "automorphy_check", "coboundary",
    "solve_automorphy", "tau_cocycle_check", "u_cocycle_check", "u_transform",
}


def test_public_names_are_pinned():
    # submodules become package attributes once imported, so they are left out
    public = {
        name
        for name, value in vars(startwist).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
