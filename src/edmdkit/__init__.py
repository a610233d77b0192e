"""Finite-dimensional Koopman operator approximation.

Sampled and sampling-free (analytic) EDMD, spectral comparison, finite-horizon
prediction, and single-trajectory eigenmeasure extraction, with a CLI harness
for reproducible convergence studies.
"""

__version__ = "0.1.0"

from .analytic import default_quad_order, fit_analytic, transfer_matrix
from .data import (
    SnapshotPair,
    generate_iid,
    generate_trajectory,
    read_snapshots_csv,
    write_snapshots_csv,
)
from .dictionary import (
    Dictionary,
    derivative,
    derivative_batch,
    evaluate,
    evaluate_batch,
    gram,
    parse_dictionary,
)
from .edmd import (
    KoopmanMatrix,
    apply_operator,
    fit_edmd,
    read_koopman_csv,
    residual_scale,
    theorem1_residual,
    write_koopman_csv,
)
from .errors import (
    ConfigError,
    DomainEscapeError,
    DomainEscapeWarning,
    EdmdkitError,
    EigensolverError,
    NonFiniteError,
    QuadratureSaturationWarning,
    RankDeficiencyError,
)
from .predict import PredictionResult, l2_error, observable_matrix, predict
from .spectral import (
    Eigenmeasure,
    PFResidual,
    SpectralDecomp,
    eig,
    eigenfunction_values,
    eigenmeasure_extract,
    hausdorff,
    oscillation_seminorm,
    pf_check,
    read_spectrum_csv,
    write_eigenmeasure_csv,
    write_spectrum_csv,
)
from .studies import (
    SweepRow,
    convergence_sweep,
    mc_rate_study,
    prediction_study,
    spectra_study,
)
from .systems import (
    Domain,
    DynamicalSystem,
    Measure,
    QuadratureRule,
    apply,
    apply_batch,
    box,
    circle,
    gauss_rule,
    gaussian,
    parse_measure,
    parse_system,
    sample,
    uniform,
)
