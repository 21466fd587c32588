"""Exception hierarchy shared by all fedbench modules."""


class FedbenchError(Exception):
    """Base class for all fedbench errors."""


class ShapeMismatch(FedbenchError):
    pass


class NonFiniteLoss(FedbenchError):
    """Loss or activations went NaN/Inf; caller decides abort vs. record."""


class StaleCache(FedbenchError):
    """Backward called with a cache built from different params."""


class DegenerateBatch(FedbenchError):
    """Batch-norm train mode needs at least two examples."""


class KeyMismatch(FedbenchError):
    pass


class WeightSumViolation(FedbenchError):
    pass


class MissingDynMemory(FedbenchError):
    pass


class AllClientsDiverged(FedbenchError):
    pass


class NoSelectableRound(FedbenchError):
    """Every round's mean validation metric was NaN, so none can be selected."""


class UninitializedOptState(FedbenchError):
    pass


class InfeasibleSizes(FedbenchError):
    pass


class MalformedRow(FedbenchError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
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
