import ast
import inspect
import pathlib

import hosvd3

PUBLIC = {
    "ComplexTensor", "make_tensor", "unfold", "refold", "multilinear_transform", "norm",
    "EigenDecomposition", "gram", "hermitian_eig",
    "HosvdResult", "HosvdResiduals", "hosvd", "verify_all_orthogonality",
    "ThreeQubitState", "Classification", "PolytopeMembership", "normalize",
    "one_body_rdms", "two_body_rdms", "classify", "polytope_membership",
    "classify_batch", "BatchClassification",
    "ShapeError", "DomainError", "ValidationError", "NumericalError",
    "__version__",
}
README = pathlib.Path(__file__).parent.parent.joinpath("README.md")


def test_public_names():
    assert set(hosvd3.__all__) == PUBLIC
    assert len(hosvd3.__all__) == len(PUBLIC)
    for name in PUBLIC - {"__version__"}:
        obj = getattr(hosvd3, name)
        doc = inspect.getdoc(obj)
        # a dataclass without a docstring gets its signature as one
        assert doc and not doc.startswith(f"{name}("), name
    assert isinstance(hosvd3.__version__, str)
    for gone in ("UnfoldedMatrix", "DensityMatrix", "PolytopePoint", "polytope_point",
                 "separability_class", "batch_sigma_squares", "reconstruct",
                 "mode_singular_values", "validate_unitary", "separability_minor_residual",
                 "core_biseparability_residual", "plane_coefficients",
                 "plane_identity_residual", "phase_identity_residual",
                 "guarded_t111_t222_check"):
        assert not hasattr(hosvd3, gone)
    assert not hasattr(hosvd3.ComplexTensor, "elements")
    # a state is its tensor: no second copy and no accessors of its own
    assert issubclass(hosvd3.ThreeQubitState, hosvd3.ComplexTensor)
    state = hosvd3.normalize([1, 0, 0, 0, 0, 0, 0, 0])
    for gone in ("amplitudes", "amplitude", "as_tensor", "_tensor"):
        assert not hasattr(state, gone), gone


def test_every_public_name_is_documented():
    # the README names each export, in backticks, with what it computes
    text = README.read_text()
    assert len(hosvd3.__all__) == 28
    for name in hosvd3.__all__:
        assert f"`{name}`" in text, name


def test_no_dead_module_names():
    # every module-level name defined in the package is used somewhere in
    # it or exported: a helper kept alive only by tests is dead code
    src = pathlib.Path(hosvd3.__file__).parent
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    targets += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
            for name in targets:
                defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    dead = {f"{module}:{name}" for name, module in defined.items()
            if name not in used and name not in hosvd3.__all__ and name != "__all__"}
    assert not dead, sorted(dead)


def test_one_home_per_layout_rule():
    # the power-of-two prescale rule (frexp) is written in smalllinalg.py
    # only, and no module transforms with np.dot: every n-mode product is
    # tensor's stacked kernel.  No module takes np.vdot or np.linalg.norm:
    # every inner product and norm is a stacked kernel too.  The axis orders
    # (cyclic and mode-row) and the table cached per tensor order that holds
    # their transposes are read in tensor.py only.  numpy's LAPACK solvers
    # are called in smalllinalg.py only, where every eigenproblem goes
    # through one entry, _eigh_stack.
    src = pathlib.Path(hosvd3.__file__).parent
    frexp, dot, vdot, linalg_norm, solvers = [], [], [], [], []
    layout = {name: set() for name in ("_cyclic_axes", "_row_axes", "_axis_table")}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "frexp":
                frexp.append(path.name)
            if name in layout:
                layout[name].add(path.name)
            if (name == "dot" and isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                dot.append(path.name)
            if name == "vdot":
                vdot.append(path.name)
            if (name == "norm" and isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                linalg_norm.append(path.name)
            if name in ("eigh", "eigvalsh", "eig", "svd", "qr"):
                solvers.append(path.name)
    assert set(frexp) == {"smalllinalg.py"}, frexp
    assert not dot, dot
    assert not vdot, vdot
    assert not linalg_norm, linalg_norm
    assert set(solvers) == {"smalllinalg.py"}, solvers
    assert all(homes == {"tensor.py"} for homes in layout.values()), layout
