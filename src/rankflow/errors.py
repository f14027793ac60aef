"""Errors shared by all rankflow modules.

Every data error -- a bad file, field, flag, env var or config value -- is a
``RankflowError`` whose message names the file and the field; the CLI exits
2 on it.  The two subclasses are the kinds some caller catches by kind.
"""


class RankflowError(Exception):
    """A data error (CLI exit code 2)."""

    def naming(self, where) -> "RankflowError":
        """This error again, its message led by ``where`` (a file path)."""
        return type(self)(f"{where}: {self}")


class GenerationFailure(RankflowError):
    """A synthetic scene could not be placed; synth retries it."""


class SrccUndefined(RankflowError):
    """Raised when a rank vector is constant and SRCC has no value."""
