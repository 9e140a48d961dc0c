"""Finite-scale equicontinuity laboratory for symbolic and circle dynamics.

The package measures how much of a ball around a point stays traced together
by the dynamics up to a time horizon, certifies eventual periodicity of
symbol traces, builds Koopman eigenfunctions from periodic base points, and
estimates sensitivity, all against explicit product or Markov measures with
reproducible seeded sampling.
"""

from .core import (
    DEFAULT_ENUMERATION_CAP,
    ONE_SIDED,
    TWO_SIDED,
    Alphabet,
    CirclePoint,
    Configuration,
    Cylinder,
    ball_cylinder,
    count_words,
    iter_words,
    window_cells,
    window_size,
    word_from_str,
    word_to_str,
)
from .errors import (
    AlphabetMismatch,
    ConfigInvalid,
    EnumerationTooLarge,
    EquidynError,
    IncompatibleConfigurations,
    InsufficientRadius,
    NullBall,
    NullCylinder,
    OverlappingBalls,
    UnsupportedSystem,
)
from .measures import (
    BallFamily,
    BernoulliMeasure,
    LebesgueMeasure,
    MarkovMeasure,
    ProductMeasure,
    maximal_cylinders,
    measure_from_dict,
    measure_to_dict,
    union_probability,
    vitali_cover,
)
from .orbit import (
    EquicontinuityReport,
    RatioEstimate,
    density_curve,
    mu_equicontinuity_report,
)
from .periodicity import (
    LepClassification,
    LepStatistics,
    PeriodCertificate,
    lep_certificate,
    lep_statistics,
    mu_lep_classify,
)
from .rng import derive_seed, substream
from .sensitivity import (
    DichotomyReport,
    SensitivityEstimate,
    dichotomy_report,
    mu_sensitivity_curve,
    separation_window,
)
from .spectral import (
    EigenfunctionSpec,
    build_eigenfunction,
    root_of_unity,
    spectral_family,
)
from .systems import (
    CARule,
    Odometer,
    Rotation,
    Shift,
    dependence_radius,
    eca_rule,
    identity_rule,
    shift_as_ca,
    step_cost,
    system_from_dict,
    system_sided,
    system_to_dict,
    wolfram_number,
)

__version__ = "0.1.0"
