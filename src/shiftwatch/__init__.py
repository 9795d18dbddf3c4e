"""shiftwatch: label-free sequential detection of harmful distribution
shifts for deployed predictive models.

Calibrates an error-score selector on labeled source data, then monitors
an unlabeled production stream with anytime-valid confidence bounds and
raises a latched alarm when the estimated proportion of high-error
observations provably exceeds the source rate.
"""

from .calibration import CalibrationResult, GridSpec, calibrate
from .confidence import (
    PmEbState,
    hoeffding_halfwidth,
    pmeb_fresh,
    pmeb_lower_path,
    pmeb_update,
)
from .core import Dataset, Selector, empirical_quantile
from .errors import (
    CalibrationInfeasible,
    ConfigError,
    DegenerateError,
    IngestError,
    InvalidInput,
    ShiftwatchError,
)
from .estimator import KnnModel, fit_knn, predict, r_squared
from .harness import (
    ExperimentConfig,
    RunReport,
    SuiteMetrics,
    run_experiment,
    run_suite,
    suite_metrics,
)
from .monitor import (
    MonitorConfig,
    MonitorState,
    SourceStats,
    delta_diagnostic,
    source_statistics,
)
from .shiftsim import (
    ProductionStream,
    Schedule,
    ShiftScenario,
    build_stream,
    enumerate_scenarios,
    make_subgroup_dataset,
    sigmoid_mixture,
    split_pools,
    subgroup_feature_kinds,
)

__version__ = "0.1.0"
