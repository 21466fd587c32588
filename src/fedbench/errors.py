"""Exception hierarchy shared by all fedbench modules."""

import math
import numbers


class FedbenchError(Exception):
    """Base class for all fedbench errors."""


class ShapeMismatch(FedbenchError):
    pass


class NonFiniteLoss(FedbenchError):
    """Loss or activations went NaN/Inf; caller decides abort vs. record."""


class NonFiniteScore(FedbenchError):
    """A score handed to a ranking metric is NaN or infinite."""


class StaleCache(FedbenchError):
    """Backward called with an eval-mode cache: it holds no ReLU masks or batch statistics."""


class DegenerateBatch(FedbenchError):
    """Batch-norm train mode needs at least two examples."""


class KeyMismatch(FedbenchError):
    pass


class WeightSumViolation(FedbenchError):
    pass


class AllClientsDiverged(FedbenchError):
    pass


class NoSelectableRound(FedbenchError):
    """Every round's mean validation metric was NaN, so none can be selected."""


class InfeasibleSizes(FedbenchError):
    pass


class MalformedRow(FedbenchError):
    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number


class SchemaMismatch(FedbenchError):
    pass


class SingleClass(FedbenchError):
    pass


class EmptySample(FedbenchError):
    pass


class ConfigError(FedbenchError):
    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def check_int(value, field: str, low: int | None = None) -> None:
    """ConfigError naming ``field`` unless ``value`` is an integer (a bool is
    not) and, when ``low`` is given, at least ``low``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(field, f"must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(field, f"must be >= {low}, got {value!r}")


def check_real(value, field: str) -> None:
    """ConfigError naming ``field`` unless ``value`` is a finite real number
    (a bool is not; NaN and +-inf are not)."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))):
        raise ConfigError(field, f"must be a finite number, got {value!r}")


def check_stated(obj, path: str, kind: str, reads: tuple[str, ...], defaults: dict) -> None:
    """Of the dataclass ``obj``'s fields that default to None (not stated), a stated one
    ``kind`` does not read is a ConfigError, and an unstated one it reads takes its
    ``defaults`` entry, or is a ConfigError if it has none."""
    for name in [f.name for f in obj.__dataclass_fields__.values() if f.default is None]:
        value, field = getattr(obj, name), f"{path}.{name}"
        if name not in reads:
            if value is not None:
                raise ConfigError(field, f"{kind} does not read {name}")
        elif value is None:
            if name not in defaults:
                raise ConfigError(field, "required field missing")
            setattr(obj, name, defaults[name])


def stated(items) -> dict:
    """An ``asdict`` ``dict_factory`` that leaves out the fields not stated (None)."""
    return {k: v for k, v in items if v is not None}
