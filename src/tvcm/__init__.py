"""Time-varying coefficient models for longitudinal data.

Coefficient functions are expanded over radial Gaussian kernels or truncated
power splines and estimated by weighted least squares with a subject-level
bootstrap, a conjugate two-block Gibbs sampler, or coordinate-ascent
variational inference.  Knot counts are chosen by a predictive
cross-validation criterion.  LongitudinalDataset, DesignBundle, PosteriorDraws
and VariationalPosterior freeze copies they own of the arrays they are given:
the caller's arrays stay writeable, and writing to them changes no record.
"""

__version__ = "0.1.0"

from .basis import (
    BasisFamily,
    BasisSpec,
    DesignBundle,
    basis_matrix,
    build_design,
    coefficient_curve,
    default_bandwidth,
    make_spec,
    place_knots_equal,
    place_knots_quantile,
    split_alpha,
)
from .bootstrap import (
    DrawSource,
    PosteriorDraws,
    bootstrap_fit,
    percentile_interval,
)
from .data import (
    LongitudinalDataset,
    ingest_csv,
    subject_uniform_weights,
    write_csv,
)
from .engines import EngineResult, fit_engine
from .errors import (
    BootstrapDegeneracyError,
    CsvParseError,
    DataError,
    DesignError,
    EmptyDataError,
    InsufficientDataError,
    KnotError,
    NumericalError,
    SchemaError,
    SelectionError,
    SingularDesignError,
    TvcmError,
)
from .frequentist import WlsFit, fit_wls, predict_rows
from .mcmc import PriorSpec, default_prior, dic, gibbs, whiten
from .selection import amse, crossval_amse, knot_search, made, pcv, pcv_loo
from .simgen import (
    SimReport,
    SimTruth,
    gen_scenario1,
    gen_scenario2,
    run_replications,
    scenario1_beta0,
    scenario2_betas,
)
from .vb import VariationalPosterior, vb_fit, vb_sample
