"""Numerical library for the fully fractional heat operator (d_t - Lap)^s.

Evaluates the operator and its degenerate cases (fractional Laplacian,
one-sided fractional time derivative), the interior/exterior/tail
decomposition, the exterior-region partitions with their kernel-ratio
estimates, the tail functional and the convergence-defect constant, and
the counterexample families with their explicit limits.
"""

from .handles import (
    FunctionHandle,
    SupportBox,
    combine,
    constant,
    from_callable,
    rescale,
    shifted,
    spatial,
    temporal,
    zero,
)
from .kernel import (
    KernelParams,
    NORMALIZED,
    RAW,
    kernel_constants,
    kernel_decay_check,
    kernel_eval,
)
from .quadrature import QuadResult, QuadSpec
from .operators import (
    DecompositionResult,
    difference_decomposition,
    fractional_laplacian,
    heat_limit_check,
    marchaud,
    master_op,
)
from .regions import verify_ratio_c1, verify_ratio_c2_c3, verify_ratio_step2
from .defect import DefectReport, defect_estimate, tail_functional
from .families import (
    C0_constant,
    C1_constant,
    phi_family,
    psi_family,
    standard_bump,
    w_family,
)
from .funcdsl import ParseError, parse, to_handle, to_string

__version__ = "0.1.0"
