"""hosvd3: HOSVD for dense complex tensors and three-qubit LU classification.

The library layer (`tensor`, `smalllinalg`, `hosvd`) works for any tensor
order; `qubit3` specializes to three qubits (classification, separability,
polytope of largest one-body eigenvalues) and `cli` provides the command
line front end.
"""

from .errors import DomainError, NumericalError, ShapeError, ValidationError
from .hosvd import (
    HosvdResiduals,
    HosvdResult,
    hosvd,
    mode_singular_values,
    reconstruct,
    verify_all_orthogonality,
)
from .qubit3 import (
    BatchClassification,
    Classification,
    PolytopeMembership,
    ThreeQubitState,
    batch_sigma_squares,
    classify,
    classify_batch,
    core_biseparability_residual,
    guarded_t111_t222_check,
    normalize,
    one_body_rdms,
    phase_identity_residual,
    plane_coefficients,
    plane_identity_residual,
    polytope_membership,
    separability_minor_residual,
    two_body_rdms,
)
from .smalllinalg import EigenDecomposition, gram, hermitian_eig, validate_unitary
from .tensor import (
    ComplexTensor,
    make_tensor,
    multilinear_transform,
    norm,
    refold,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexTensor",
    "make_tensor",
    "unfold",
    "refold",
    "multilinear_transform",
    "norm",
    "EigenDecomposition",
    "gram",
    "hermitian_eig",
    "validate_unitary",
    "HosvdResult",
    "HosvdResiduals",
    "hosvd",
    "mode_singular_values",
    "verify_all_orthogonality",
    "reconstruct",
    "ThreeQubitState",
    "Classification",
    "PolytopeMembership",
    "normalize",
    "one_body_rdms",
    "two_body_rdms",
    "separability_minor_residual",
    "core_biseparability_residual",
    "plane_identity_residual",
    "phase_identity_residual",
    "plane_coefficients",
    "classify",
    "classify_batch",
    "BatchClassification",
    "polytope_membership",
    "guarded_t111_t222_check",
    "batch_sigma_squares",
    "ShapeError",
    "DomainError",
    "ValidationError",
    "NumericalError",
    "__version__",
]
