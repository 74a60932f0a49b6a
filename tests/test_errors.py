"""Every typed error keeps its message and its location through ``pickle``
and ``copy``: only the message is in ``args``, and the location keywords
are attributes."""

import copy
import inspect
import pickle

import pytest

from solitonlab import errors

TYPED = sorted(name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.SolitonLabError))
WHERE = {"site": -5, "box": 2, "point": (3, -2), "index": 1, "pair": (0, 2), "n_modes": 60}


@pytest.mark.parametrize("name", TYPED)
def test_every_error_round_trips_with_its_location(name):
    cls = getattr(errors, name)
    err = cls(f"{name} at the place named", **WHERE)
    assert err.args == (f"{name} at the place named",)
    for twin in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
        assert type(twin) is cls and str(twin) == str(err)
        assert {key: getattr(twin, key) for key in WHERE} == WHERE
