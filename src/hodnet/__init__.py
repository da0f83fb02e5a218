"""Higher-order digital nets and sequences over prime fields.

Construction of interlaced generalized-Niederreiter generating matrices,
exact digital point generation extensible in both the point count and the
dimension, order-alpha net certification through dual-net analysis, exact
Walsh-coefficient analysis of the Sobolev reproducing kernel, and
worst-case-error measurement of the resulting quadrature rules.
"""

__version__ = "0.1.0"

from .errors import NumericalConsistencyError, ResourceLimitError, UsageError
from .gf import (
    Poly,
    PrimeField,
    digits_of,
    laurent_coeffs,
    monic_irreducibles,
)
from .matrices import (
    GeneratingMatrixSet,
    Provenance,
    build_matrices,
    interlace_matrix_set,
    load_matrix_set,
    niederreiter_matrix,
    niederreiter_set,
    save_matrix_set,
    t_value_bound,
)
from .points import (
    net_points,
    net_values,
)
from .quality import (
    NetCertificate,
    certify_net,
    dick_weight,
    dual_indices,
    interpolation_gap,
    min_dual_weight,
    propagation_check,
)
from .cyclotomic import Cyclotomic
from .bernoulli import bernoulli, bernoulli_coeffs
from .walsh import (
    bernoulli_walsh_coeff,
    count_type_pairs,
    decay_ratio_sup,
    kernel_walsh_coeff,
    pair_type,
    sparsity_violations,
)
from .kernel import (
    KernelSpec,
    kernel_1d,
    wce,
    wce_squared_exact,
    wce_squared_sorted,
)

__all__ = [name for name in dir() if not name.startswith("_")]
