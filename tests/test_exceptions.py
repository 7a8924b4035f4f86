import pickle

import pytest

from fairdp import exceptions as ex

INSTANCES = [
    ex.FairdpError("base"),
    ex.SchemaError("column 'x' not found"),
    ex.ParseError("bad cell", 7),
    ex.EmptyDatasetError("no rows"),
    ex.DegenerateGroupError("group 2 is empty"),
    ex.DegenerateConditionalError("cell (1, 2) is empty"),
    ex.CheckpointError("checkpoint has no 'l' field"),
    ex.CalibrationError("epsilon too large"),
    ex.DivergenceError(12, "logits"),
    ex.DivergenceError(3),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_library_exception_is_covered():
    library = {c for c in _subclasses(ex.FairdpError) if c.__module__ == ex.__name__}
    assert {type(e) for e in INSTANCES} == library | {ex.FairdpError}


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: f"{type(e).__name__}: {e}")
def test_pickle_round_trip(exc, protocol):
    restored = pickle.loads(pickle.dumps(exc, protocol))
    assert type(restored) is type(exc)
    assert str(restored) == str(exc)
    assert restored.args == exc.args
    assert vars(restored) == vars(exc)
