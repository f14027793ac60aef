import inspect
import pickle

import pytest

from rankflow import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = [errors.RankflowError, *_subclasses(errors.RankflowError)]


def _example(cls):
    n_args = len(inspect.signature(cls).parameters) if "__init__" in vars(cls) else 1
    return cls(*(f"arg{i}" for i in range(n_args)))


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    """Errors raised in a pool worker reach the parent by pickle."""
    err = _example(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)


def test_invariant_violation_keeps_its_fields():
    back = pickle.loads(pickle.dumps(errors.InvariantViolation("fixation_map", "size 4x4")))
    assert (back.field, back.reason, str(back)) == ("fixation_map", "size 4x4", "fixation_map: size 4x4")


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_naming_puts_the_file_in_front(cls):
    err = _example(cls)
    named = err.naming("raw/scene_00001.json")
    assert type(named) is cls
    assert str(named) == f"raw/scene_00001.json: {err}"
    assert str(pickle.loads(pickle.dumps(named))) == str(named)


def test_naming_keeps_the_field_reason_split():
    named = errors.InvariantViolation("width", "must be positive").naming("s.json")
    assert (named.field, named.reason) == ("s.json: width", "must be positive")
