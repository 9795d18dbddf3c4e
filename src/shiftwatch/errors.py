"""Exception types shared across the package, and ``Checked``, the base
of the value types that raise them when they are made."""


class ShiftwatchError(Exception):
    """Base class for all package errors."""


class InvalidInput(ShiftwatchError, ValueError):
    """A precondition on an operation's inputs was violated."""


class IngestError(ShiftwatchError):
    """A data file could not be parsed against the expected schema."""


class ConfigError(InvalidInput):
    """A setting is unknown, out of range, or points nowhere.

    Carries the offending configuration key and the message that follows
    it, so callers can report the key or re-raise the rule under another;
    MonitorConfig, GridSpec and Schedule raise it for their range rules.
    """

    def __init__(self, key: str, message: str = ""):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}" if message else key)


class QueryRowError(InvalidInput):
    """A k-NN query row cannot be scored. Carries the row's index in its
    batch and the message that follows it, so a caller can name the row
    in its own terms, as the monitor names the event time."""

    def __init__(self, row: int, message: str):
        self.row, self.message = row, message
        super().__init__(f"k-NN query row {row}: {message}")


class DegenerateError(ShiftwatchError, ValueError):
    """A statistic is undefined on this input (e.g. zero-variance target)."""


class CalibrationInfeasible(ShiftwatchError):
    """No grid cell satisfied the FDP cap.

    ``best_fdp`` is the lowest FDP of the cells that select at least one
    row, so callers can report how far calibration fell short, or None
    when no cell selects a row.
    """

    def __init__(self, best_fdp: float | None):
        self.best_fdp = best_fdp
        super().__init__(
            "no threshold pair selects a calibration row" if best_fdp is None
            else f"no threshold pair reached the FDP cap; best achievable FDP={best_fdp:.4f}"
        )


class Checked:
    """Base of an immutable value type whose fields are checked: it comes
    before the type's ``typing.NamedTuple`` base, and the type defines
    ``_check``, which takes the fields in order, raises on a bad value and
    returns the fields to hold. A NamedTuple's own ``_make`` and
    ``_replace`` skip an overridden ``__new__``; these go through it, so
    every way to make a value (a call, ``_make``, ``_replace``,
    unpickling) runs the check."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return tuple.__new__(cls, cls._check(*super().__new__(cls, *args, **kwargs)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})
