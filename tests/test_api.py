import inspect

import hosvd3

PUBLIC = {
    "ComplexTensor", "make_tensor", "unfold", "refold", "multilinear_transform", "norm",
    "EigenDecomposition", "gram", "hermitian_eig", "validate_unitary",
    "HosvdResult", "HosvdResiduals", "hosvd", "mode_singular_values",
    "verify_all_orthogonality", "reconstruct",
    "ThreeQubitState", "Classification", "PolytopeMembership", "normalize",
    "one_body_rdms", "two_body_rdms", "separability_minor_residual",
    "core_biseparability_residual", "plane_identity_residual", "phase_identity_residual",
    "plane_coefficients", "classify", "polytope_membership", "guarded_t111_t222_check",
    "batch_sigma_squares", "classify_batch", "BatchClassification",
    "ShapeError", "DomainError", "ValidationError", "NumericalError",
    "__version__",
}


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
                 "separability_class"):
        assert not hasattr(hosvd3, gone)
    assert not hasattr(hosvd3.ComplexTensor, "elements")
    # a state is its tensor: no second copy and no accessors of its own
    assert issubclass(hosvd3.ThreeQubitState, hosvd3.ComplexTensor)
    state = hosvd3.normalize([1, 0, 0, 0, 0, 0, 0, 0])
    for gone in ("amplitudes", "amplitude", "as_tensor", "_tensor"):
        assert not hasattr(state, gone), gone
