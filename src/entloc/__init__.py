"""entloc: entanglement localization for multimode Gaussian covariance matrices.

The package computes symplectic spectra, normal forms and entanglement
measures of Gaussian states represented by their covariance matrices, and
concentrates the block entanglement of block-permutation-invariant states
onto a single pair of modes by local symplectic operations.

The public names are what the command line reaches and what a Python
user needs to reproduce the paper's results: the spec types and their
covariance matrices, the entanglement reports, ``localize`` and the
split scan, the spectra, matrix input and output, and the errors.
"""

from .entanglement import (
    EntanglementReport,
    ModeBipartition,
    eof_symmetric,
    log_negativity,
    partial_transpose,
    pt_spectrum,
)
from .errors import (
    DecompositionError,
    EntlocError,
    InconsistentInvariantsError,
    InvalidArgumentError,
    LocalizationError,
    NumericalDomainError,
)
from .localization import (
    EquivalentTwoMode,
    LocalizationResult,
    block_log_negativity,
    equivalent_report,
    equivalent_report_from_cm,
    localize,
    ole_scan,
)
from .states import (
    BisymmetricSpec,
    FullySymmetricSpec,
    bisymmetric_cm,
    fully_symmetric_cm,
    ghz_type_spec,
)
from .symplectic import (
    CovarianceMatrix,
    SymplecticSpectrum,
    TwoModeInvariants,
    delta_invariant,
    is_bona_fide,
    is_symplectic,
    load_cm,
    purity,
    save_cm,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_invariants,
    williamson,
)

__version__ = "0.1.0"

__all__ = [
    "BisymmetricSpec",
    "CovarianceMatrix",
    "DecompositionError",
    "EntanglementReport",
    "EntlocError",
    "EquivalentTwoMode",
    "FullySymmetricSpec",
    "InconsistentInvariantsError",
    "InvalidArgumentError",
    "LocalizationError",
    "LocalizationResult",
    "ModeBipartition",
    "NumericalDomainError",
    "SymplecticSpectrum",
    "TwoModeInvariants",
    "bisymmetric_cm",
    "block_log_negativity",
    "delta_invariant",
    "eof_symmetric",
    "equivalent_report",
    "equivalent_report_from_cm",
    "fully_symmetric_cm",
    "ghz_type_spec",
    "is_bona_fide",
    "is_symplectic",
    "load_cm",
    "localize",
    "log_negativity",
    "ole_scan",
    "partial_transpose",
    "pt_spectrum",
    "purity",
    "save_cm",
    "symplectic_eigenvalues",
    "symplectic_form",
    "two_mode_invariants",
    "williamson",
]
