"""Errors shared by all rankflow modules.

Every data error -- a bad file, field, flag, env var or config value -- is a
``RankflowError``, raised where it is found, whose message names the file and
the field; the CLI exits 2 on it.  Every setting is checked by one of the two
rules in ``domain``, ``check_integer`` and ``check_real``, so a bad setting
reads the same from whichever source it came; a rule between two settings
names both before ``, got``, so the CLI can lead it with the source of
either.  The one subclass is the kind a caller catches by kind.
"""


class RankflowError(Exception):
    """A data error (CLI exit code 2)."""

    def naming(self, where) -> "RankflowError":
        """This error again, its message led by ``where`` (a file path)."""
        return type(self)(f"{where}: {self}")


class GenerationFailure(RankflowError):
    """A synthetic scene could not be placed; synth retries it."""
