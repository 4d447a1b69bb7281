"""Measures on the circle with exact positions: algebra, spectra, decomposition.

The package represents measures as finite atom lists at exactly-represented
angles (rational turns plus integer combinations of named independent
generators) together with trigonometric-polynomial densities.  On top of the
convolution algebra it provides spectral-radius bounds, character values,
simultaneous rotation approximation, and a constructive splitting
of any measure into three pieces whose transform clouds fill out their
spectral disks.
"""

from .angles import (FRESH_GENERATOR_VALUES, Angle, GeneratorBasis, TWO_PI,
                     basis_fresh_generators)
from .decomposition import (RADIUS_MODES, DecompositionOptions,
                            DecompositionResult, VerificationCheck,
                            VerificationReport, decompose, verify_decomposition)
from .errors import (BasisMismatchError, BudgetExceededError, GeneratorsExhaustedError,
                     KroneckerNotFoundError, NatspecError, OutOfDiskError,
                     RadiusValidationError, SchemaError)
from .kronecker import (KroneckerProblem, KroneckerSolution, chordal, disk_preimage,
                        hit_target, pair_transform_values, solve)
from .measures import (DiscreteMeasure, MeasureLike, MixedMeasure, TrigPolyDensity,
                       as_mixed, convolve, make_rho, make_theta0, make_theta1,
                       parity_projections, tv_norm, tv_norm_bounds)
from .spectrum import (FeketeReport, covering_radius, disk_grid, fekete_bound,
                       radius_bracket, spectral_bracket)

__version__ = "0.1.0"

__all__ = [
    "Angle", "GeneratorBasis", "TWO_PI", "FRESH_GENERATOR_VALUES",
    "basis_fresh_generators",
    "DiscreteMeasure", "TrigPolyDensity", "MixedMeasure", "MeasureLike",
    "as_mixed", "convolve", "tv_norm", "tv_norm_bounds",
    "parity_projections", "make_theta0", "make_theta1", "make_rho",
    "FeketeReport", "fekete_bound", "radius_bracket", "spectral_bracket",
    "covering_radius", "disk_grid",
    "KroneckerProblem", "KroneckerSolution", "chordal", "solve",
    "pair_transform_values", "disk_preimage", "hit_target",
    "RADIUS_MODES", "DecompositionOptions",
    "DecompositionResult", "VerificationCheck", "VerificationReport",
    "decompose", "verify_decomposition",
    "NatspecError", "BasisMismatchError", "GeneratorsExhaustedError",
    "BudgetExceededError", "OutOfDiskError", "KroneckerNotFoundError",
    "RadiusValidationError", "SchemaError",
]
