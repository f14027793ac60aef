"""Exception hierarchy shared by all rankflow modules."""


class RankflowError(Exception):
    """Base class for all structured rankflow errors (CLI exit code 2)."""

    def naming(self, where) -> "RankflowError":
        """This error again, its message led by ``where`` (a file path)."""
        return type(self)(f"{where}: {self}")


class MissingFile(RankflowError):
    pass


class MalformedJson(RankflowError):
    pass


class InvariantViolation(RankflowError):
    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason

    def naming(self, where) -> "InvariantViolation":
        return type(self)(f"{where}: {self.field}", self.reason)

    def __reduce__(self):
        # Rebuilt from (field, reason), not from the formatted message, so the
        # error survives the trip back from a pool worker.
        return type(self), (self.field, self.reason)


class UnsupportedFormat(RankflowError):
    pass


class TruncatedData(RankflowError):
    pass


class IoFailure(RankflowError):
    pass


class MissingFixationMap(RankflowError):
    pass


class InvalidWindow(RankflowError):
    pass


class CoverageViolation(RankflowError):
    pass


class ShapeMismatch(RankflowError):
    pass


class EmptyDataset(RankflowError):
    pass


class SceneMismatch(RankflowError):
    pass


class GenerationFailure(RankflowError):
    pass


class SrccUndefined(RankflowError):
    """Raised when a rank vector is constant and SRCC has no value."""
