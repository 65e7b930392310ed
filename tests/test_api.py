import ast
import inspect
import pathlib

import numpy as np
import pytest

import hosvd3
from hosvd3 import ValidationError

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
    # the power-of-two prescale rule (frexp) and its scale-back (ldexp,
    # under errstate) are written in smalllinalg.py only, and no module
    # transforms with np.dot: every n-mode product is
    # tensor's stacked kernel.  No module takes np.vdot or np.linalg.norm:
    # every inner product and norm is a stacked kernel too.  The axis orders
    # (cyclic and mode-row) and the table cached per tensor order that holds
    # their transposes are read in tensor.py only, and so are numpy's axis
    # reorderings (transpose, moveaxis, einsum, tensordot); swapaxes on a
    # stack of matrices is allowed everywhere.  numpy's LAPACK solvers
    # are called in smalllinalg.py only, where every eigenproblem goes
    # through one entry, _eigh_stack.  cli._emit opens every file output
    # with os.open, so a temporary file takes its mode from the umask or
    # from fchmod: no module sets the umask, makes a temporary file through
    # tempfile or chmods by path.  json's own rules (string escaping, float
    # text) are json's: no module imports from json.encoder.
    src = pathlib.Path(hosvd3.__file__).parent
    scale, dot, vdot, linalg_norm, solvers, reorders, writer, encoder = ([] for _ in range(8))
    layout = {name: set() for name in ("_cyclic_axes", "_row_axes", "_axis_table")}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in ("frexp", "ldexp", "errstate"):
                scale.append(path.name)
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
            if name in ("transpose", "moveaxis", "einsum", "tensordot"):
                reorders.append(path.name)
            if name in ("tempfile", "mkstemp", "umask", "chmod"):
                writer.append(f"{path.name}:{name}")
            if (isinstance(node, ast.ImportFrom) and node.module == "json.encoder"
                    or isinstance(node, ast.alias) and name == "json.encoder"):
                encoder.append(path.name)
    assert set(scale) == {"smalllinalg.py"}, scale
    assert not dot, dot
    assert not vdot, vdot
    assert not linalg_norm, linalg_norm
    assert set(solvers) == {"smalllinalg.py"}, solvers
    assert set(reorders) == {"tensor.py"}, reorders
    assert not writer, writer
    assert not encoder, encoder
    assert all(homes == {"tensor.py"} for homes in layout.values()), layout


def test_numerical_error_has_one_cause():
    # NumericalError means LAPACK did not converge: only hosvd and
    # hermitian_eig, which call it, construct one
    src = pathlib.Path(hosvd3.__file__).parent
    raisers = {path.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "NumericalError"}
    assert raisers == {"hosvd.py", "smalllinalg.py"}, raisers


# each entry point that converts an array of its caller, with the name of
# the argument its error names; numpy's bare "ValueError: complex() arg is
# a malformed string" came out of all of them
NON_NUMERIC = [
    (lambda: hosvd3.ComplexTensor(["a", "b"]), "data"),
    (lambda: hosvd3.make_tensor([2, 2], "abcd"), "elements"),
    (lambda: hosvd3.refold([["a", "b"]], 1, [1, 2]), "m"),
    (lambda: hosvd3.multilinear_transform(hosvd3.make_tensor([2], [1, 0]), ["abcd"]), "mats"),
    (lambda: hosvd3.gram("ab"), "m"),
    (lambda: hosvd3.hermitian_eig("ab"), "h"),
    (lambda: hosvd3.ThreeQubitState("abcdefgh"), "data"),
    (lambda: hosvd3.normalize("abcdefgh"), "amplitudes"),
    (lambda: hosvd3.classify_batch([["a"] * 8]), "amplitudes"),
]


@pytest.mark.parametrize("call, name", NON_NUMERIC, ids=[
    "ComplexTensor", "make_tensor", "refold", "multilinear_transform", "gram", "hermitian_eig",
    "ThreeQubitState", "normalize", "classify_batch"])
def test_non_numeric_input_is_a_validation_error(call, name):
    with pytest.raises(ValidationError, match=f"^{name} must be complex numbers: "):
        call()


# every function that takes a tensor: on an ndarray, three raised TypeError
# from its buffer, four AttributeError, and norm returned a number
TENSOR_TAKERS = [
    lambda t: hosvd3.hosvd(t),
    lambda t: hosvd3.verify_all_orthogonality(t),
    lambda t: hosvd3.unfold(t, 1),
    lambda t: hosvd3.multilinear_transform(t, [np.eye(2)] * 3),
    lambda t: hosvd3.norm(t),
    lambda t: hosvd3.classify(t),
    lambda t: hosvd3.one_body_rdms(t),
    lambda t: hosvd3.two_body_rdms(t),
]


@pytest.mark.parametrize("call", TENSOR_TAKERS, ids=[
    "hosvd", "verify_all_orthogonality", "unfold", "multilinear_transform", "norm", "classify",
    "one_body_rdms", "two_body_rdms"])
def test_tensor_arguments_must_be_complex_tensors(call):
    ghz = np.zeros((2, 2, 2))
    ghz[0, 0, 0] = ghz[1, 1, 1] = 0.5 ** 0.5
    for bad, name in ((ghz, "ndarray"), (ghz.tolist(), "list")):
        with pytest.raises(ValidationError, match=f"^expected a ComplexTensor, got {name}$"):
            call(bad)
    # a subclass is a tensor
    call(hosvd3.normalize([1, 0, 0, 0, 0, 0, 0, 1]))
