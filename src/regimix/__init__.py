"""regimix: curve classification with mixtures of hidden-process regressions.

A class of curves is modeled either by a single functional regression
density or by a mixture of sub-class densities; the flagship model lets
each sub-class switch among polynomial regimes over time through a
hidden logistic process, fitted by a dedicated EM algorithm. The package
also ships the baseline variants, BIC model selection, synthetic
benchmark generators, and a cross-validation harness.
"""

from .baselines import fit_regression_mixture
from .core import (
    Basis,
    Curve,
    DesignMatrix,
    LabeledCurveSet,
    TimeGrid,
    bspline_basis,
    design_matrix,
    logsumexp,
    read_curveset,
    vandermonde,
    write_curveset,
)
from .datagen import (
    PiecewiseSpec,
    RegimeProfile,
    WaveformSpec,
    default_piecewise_spec,
    gen_piecewise,
    gen_waveform,
    waveform_base,
    waveform_subclass_origin,
)
from .discriminant import (
    VARIANTS,
    ClassifierModel,
    TrainConfig,
    class_mean_curves,
    classify,
    classify_set,
    model_from_json,
    model_to_json,
    train,
    train_detailed,
)
from .errors import DataError, NumericalError
from .evaluation import (
    EvalReport,
    cv_error_rate,
    evaluate_variant,
    intra_class_inertia,
    kfold_split,
)
from .logistic import (
    LogisticWeights,
    irls_fit,
    qw_gradient_hessian,
    qw_value,
    regime_probabilities,
)
from .mixrhlp import (
    EmConfig,
    FitReport,
    MixRhlpParams,
    Posteriors,
    RestartRecord,
    RhlpParams,
    SelectionCell,
    bic,
    e_step,
    em_fit,
    m_step,
    mean_curves,
    select_model,
)

__version__ = "0.1.0"
