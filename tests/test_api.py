"""The public names of the ``startwist`` package, pinned so that every API
change shows in the diff of this file, and each given a caller."""

import ast
import pathlib
import types

import startwist

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC_NAMES = {
    # abelian
    "FiniteVector", "GroupContext", "GroupPoint", "fourier", "pairing_many",
    # cocycles
    "Bicharacter", "LinearMap", "SkewForm", "T_map", "antisymmetrize", "cohomologous_check",
    "is_nondegenerate", "sigma_one",
    # deform
    "FourierElement", "compose_cocycles", "involution", "iterated_star_check",
    "poisson_bracket", "rieffel_product_finite", "semiclassical_defect", "star", "translate",
    # crossed
    "CrossedElement", "DeformedActionData", "I_map", "crossed_conv", "deformed_dual_action",
    "fixed_point_dimension", "fixed_point_test", "spectral_project", "twisted_crossed_dual",
    "verify_I_homomorphism",
    # paramdeform
    "BaseGrid", "CocycleField", "MonodromyData", "ParamElement", "ScalarField", "c0x_action",
    "equivariant_product_closure", "equivariant_test", "heisenberg_field", "linearity_check",
    "monodromy_check", "monodromy_transport", "param_star", "torus_action",
    # norms
    "MonotonicityError", "left_mult_matrix", "norm_convergence", "op_norm_estimate",
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


# Public names that may go without a caller in the package or the benchmark:
# `antisymmetrize` and `cohomologous_check` are reserved for the cohomology
# criterion (ROADMAP item 3), `torus_action` for the torus base (item 4).
UNCALLED = {"antisymmetrize", "cohomologous_check", "torus_action"}


def source_trees():
    """The parsed modules of the package (without ``__init__.py``) and the benchmark."""
    sources = [p for p in (ROOT / "src" / "startwist").glob("*.py") if p.name != "__init__.py"]
    for path in sorted(sources) + sorted((ROOT / "bench").glob("*.py")):
        yield ast.parse(path.read_text(), str(path))


def referenced_names():
    """Every name and attribute used in the package (without ``__init__.py``) or the benchmark."""
    referenced = set()
    for tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def test_every_public_name_has_a_caller():
    assert PUBLIC_NAMES - referenced_names() == UNCALLED


# Public methods and properties that may go without a caller, by the same
# name-based scan: `Bicharacter.is_antisymmetric` is reserved for the cohomology
# criterion (ROADMAP item 3).
UNCALLED_METHODS = {"Bicharacter.is_antisymmetric"}


def test_every_public_method_has_a_caller():
    referenced = referenced_names()
    uncalled = set()
    for name in PUBLIC_NAMES:
        cls = getattr(startwist, name)
        if not isinstance(cls, type):
            continue
        for attr, value in vars(cls).items():
            method = callable(value) or isinstance(value, (property, classmethod, staticmethod))
            if method and not attr.startswith("_") and attr not in referenced:
                uncalled.add(f"{name}.{attr}")
    assert uncalled == UNCALLED_METHODS


def owner_references():
    """Every ``Owner.attr`` in the package or the benchmark as (owner, attr), the
    owner a bare or module-qualified name, and ``cls.attr`` inside a class body
    as (that class, attr)."""
    referenced = set()
    for tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = node.value
                if isinstance(owner, ast.Name):
                    referenced.add((owner.id, node.attr))
                elif isinstance(owner, ast.Attribute):
                    referenced.add((owner.attr, node.attr))
            elif isinstance(node, ast.ClassDef):
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, ast.Attribute)
                        and isinstance(inner.value, ast.Name)
                        and inner.value.id == "cls"
                    ):
                        referenced.add((node.name, inner.attr))
    return referenced


def test_every_public_classmethod_is_called_through_its_owner():
    # a name-based scan lets `Bicharacter.trivial` stand in for another class's
    # `trivial`; here each classmethod or staticmethod needs its own owner
    referenced = owner_references()
    uncalled = set()
    for name in PUBLIC_NAMES:
        cls = getattr(startwist, name)
        if not isinstance(cls, type):
            continue
        for attr, value in vars(cls).items():
            bound = isinstance(value, (classmethod, staticmethod))
            if bound and not attr.startswith("_") and (name, attr) not in referenced:
                uncalled.add(f"{name}.{attr}")
    assert uncalled == set()


def unused_imports(paths):
    """Every name a module imports and never reads, as "module: name"."""
    unused = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {f"{path.stem}: {name}" for name in imported if name not in read}
    return unused


def test_no_unused_imports():
    # deleting a function can leave its imports behind, and neither compiling
    # nor running the tests notices; ``__init__.py`` imports to re-export
    sources = (ROOT / "src" / "startwist").glob("*.py")
    tests, bench = (ROOT / "tests").glob("*.py"), (ROOT / "bench").glob("*.py")
    modules = [p for p in sources if p.name != "__init__.py"] + [*tests, *bench]
    assert unused_imports(modules) == set()


def unread_definitions(paths):
    """Every module-level function, class or constant of the modules that none
    of them reads, as "module: name".  A name is read where it is loaded,
    imported or named as a function argument (which is how a test asks for a
    fixture); pytest itself collects ``test_*`` functions and ``Test*`` classes."""
    defined, read = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, ast.Assign):
                defined |= {(path.stem, t.id) for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.arg):
                read.add(node.arg)
    return {
        f"{module}: {name}"
        for module, name in defined
        if name not in read and not name.startswith(("test_", "Test"))
    }


def test_no_unread_test_helpers():
    # a helper whose last caller goes, a reference copy say, still compiles
    # and runs nowhere; every helper the tests define must have a reader
    assert unread_definitions((ROOT / "tests").glob("*.py")) == set()
