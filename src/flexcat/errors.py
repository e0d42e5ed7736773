"""Exception types raised by input validation and precondition checks."""


class FlexcatError(ValueError):
    """Base class for all flexcat validation errors."""


class EmptyVector(FlexcatError):
    pass


class NegativeEntry(FlexcatError):
    pass


class NonFiniteEntry(FlexcatError):
    pass


class BadNormalization(FlexcatError):
    pass


class NotSorted(FlexcatError):
    pass


class EmptyCycle(FlexcatError):
    pass


class IndexOutOfRange(FlexcatError):
    pass


class DimensionMismatch(FlexcatError):
    pass


class ZeroTail(FlexcatError):
    pass


class PreconditionUnmet(FlexcatError):
    pass


class NotFeasible(FlexcatError):
    pass


class WrongDimension(FlexcatError):
    pass


class EmptyViolationSet(FlexcatError):
    pass


class BadRange(FlexcatError):
    pass


class SamplingFailed(FlexcatError):
    pass
