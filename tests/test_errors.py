import pickle

import pytest

from rankflow import errors

ERRORS = [errors.RankflowError, errors.GenerationFailure]


def test_errors_are_the_base_and_the_two_caught_kinds():
    assert [errors.RankflowError, *errors.RankflowError.__subclasses__()] == ERRORS


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    """Errors raised in a pool worker reach the parent by pickle."""
    err = cls("arg0")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_naming_puts_the_file_in_front(cls):
    err = cls("arg0")
    named = err.naming("raw/scene_00001.json")
    assert type(named) is cls
    assert str(named) == f"raw/scene_00001.json: {err}"
    assert str(pickle.loads(pickle.dumps(named))) == str(named)


def test_naming_leads_a_field_reason_message():
    named = errors.RankflowError("width: must be positive").naming("s.json")
    assert str(named) == "s.json: width: must be positive"
