"""Exception types shared across the package."""


class ShiftwatchError(Exception):
    """Base class for all package errors."""


class InvalidInput(ShiftwatchError, ValueError):
    """A precondition on an operation's inputs was violated."""


class IngestError(ShiftwatchError):
    """A data file could not be parsed against the expected schema."""


class ConfigError(InvalidInput):
    """A setting is unknown, out of range, or points nowhere.

    Carries the offending configuration key so callers can report it;
    MonitorConfig, GridSpec and Schedule raise it for their range rules.
    """

    def __init__(self, key: str, message: str = ""):
        self.key = key
        super().__init__(f"{key}: {message}" if message else key)


class DegenerateError(ShiftwatchError, ValueError):
    """A statistic is undefined on this input (e.g. zero-variance target)."""


class CalibrationInfeasible(ShiftwatchError):
    """No grid cell satisfied the FDP cap.

    ``best_fdp`` is the lowest FDP any cell reached, so callers can report
    how far calibration fell short.
    """

    def __init__(self, best_fdp: float):
        self.best_fdp = best_fdp
        super().__init__(
            f"no threshold pair reached the FDP cap; best achievable FDP={best_fdp:.4f}"
        )
