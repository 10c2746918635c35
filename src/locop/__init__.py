"""Finite-section stability toolkit for localized operators.

Numerically audits the norm equivalences that make localized matrices,
shift-generated function systems, and integral-kernel discretizations
stable on the whole lp scale: two-sided stability constants along window
ladders, symbol certificates for convolution filters, inverse decay
profiles, density counting checks, and discretization error curves.
"""

from .errors import InvariantViolation, LocopError, NumericalError
from .lattice import CutoffOperator, IndexSet, cutoff_partition_check, cutoff_psi, separation_constant
from .matalg import (
    LocalizedMatrix,
    OffsetProfile,
    commutator_with_cutoff,
    offset_profile,
    schur_norm,
    sjostrand_norm,
    slant_norm,
    truncate,
    truncation_tail,
)
from .profiles import (
    ExponentialProfile,
    GaussianProfile,
    PiecewisePolynomial,
    Profile1D,
    bspline_profile,
    profile_from_json_dict,
    trapezoid_profile,
)
from .stability import (
    DensityVerdict,
    EquivalenceReport,
    InverseDecayResult,
    StabilityReport,
    SymbolCertificate,
    WindowEntry,
    convolution_stability,
    density_check,
    equivalence_report,
    inverse_decay_profile,
    lower_constant,
    lower_constant_interior,
    upper_constant,
)
from .synthesis import (
    DyadicFunction,
    GeneratorFamily,
    ModulusBound,
    SynthesisStabilityReport,
    discretize_synthesis,
    project_Pn,
    synthesis_stability,
)
from .kernelop import (
    ConvolutionRule,
    ErrorCurve,
    KernelOperator,
    PerturbedIdentityReport,
    SeparableRule,
    apply_discretized,
    discretization_error_curve,
    discretize_kernel,
    perturbed_identity_stability,
)
from .corpus import (
    banded_random,
    bspline_gram,
    gabor_gram,
    gaussian_kernel_op,
    generate,
    hat_family,
    permuted_rows,
    slanted_matrix,
    toeplitz_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
