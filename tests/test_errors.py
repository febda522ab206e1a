"""Library exceptions survive a pickle round trip, as they must to cross a
process boundary."""

import pickle

import pytest

from dptco import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# constructor arguments of the exceptions that take more than a message
ARGS = {errors.NonFiniteState: (0.25, 7),
        errors.Disconnected: ({2, 5},)}


@pytest.mark.parametrize("cls", sorted(_subclasses(errors.DptcoError),
                                       key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    exc = cls(*ARGS.get(cls, ("bad input at t=0.5",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
