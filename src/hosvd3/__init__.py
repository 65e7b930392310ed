"""hosvd3: HOSVD for dense complex tensors and three-qubit LU classification.

The library layer (`tensor`, `smalllinalg`, `hosvd`) works for any tensor
order; `qubit3` specializes to three qubits (classification, separability,
polytope of largest one-body eigenvalues) and `cli` provides the command
line front end.
"""

from .errors import DomainError, NumericalError, ShapeError, ValidationError
from .hosvd import HosvdResiduals, HosvdResult, hosvd, verify_all_orthogonality
from .qubit3 import (
    BatchClassification,
    Classification,
    PolytopeMembership,
    ThreeQubitState,
    classify,
    classify_batch,
    normalize,
    one_body_rdms,
    polytope_membership,
    two_body_rdms,
)
from .smalllinalg import EigenDecomposition, gram, hermitian_eig
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
    "HosvdResult",
    "HosvdResiduals",
    "hosvd",
    "verify_all_orthogonality",
    "ThreeQubitState",
    "Classification",
    "PolytopeMembership",
    "normalize",
    "one_body_rdms",
    "two_body_rdms",
    "classify",
    "classify_batch",
    "BatchClassification",
    "polytope_membership",
    "ShapeError",
    "DomainError",
    "ValidationError",
    "NumericalError",
    "__version__",
]
