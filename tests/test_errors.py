import inspect
import pickle

import pytest

from rankflow import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = [errors.RankflowError, *_subclasses(errors.RankflowError)]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    """Errors raised in a pool worker reach the parent by pickle."""
    n_args = len(inspect.signature(cls).parameters) if "__init__" in vars(cls) else 1
    err = cls(*(f"arg{i}" for i in range(n_args)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)


def test_invariant_violation_keeps_its_fields():
    back = pickle.loads(pickle.dumps(errors.InvariantViolation("fixation_map", "size 4x4")))
    assert (back.field, back.reason, str(back)) == ("fixation_map", "size 4x4", "fixation_map: size 4x4")
