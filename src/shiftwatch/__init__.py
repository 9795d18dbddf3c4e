"""shiftwatch: label-free sequential detection of harmful distribution
shifts for deployed predictive models.

Calibrates an error-score selector on labeled source data, then monitors
an unlabeled production stream with anytime-valid confidence bounds and
raises a latched alarm when the estimated proportion of high-error
observations provably exceeds the source rate.

The package root holds the names the README's library example uses, plus
ShiftwatchError, the base of every package error (its subclasses live in
``shiftwatch.errors``). Everything else imports from its own module.
"""

from .calibration import GridSpec, calibrate
from .core import Dataset
from .errors import ShiftwatchError
from .estimator import fit_knn
from .monitor import MonitorConfig, MonitorState, source_statistics

__version__ = "0.1.0"
