import json
import math

import numpy as np
import pytest

from gssf.jsonutil import dumps


def test_floats_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 6.0, -0.0, 1e-9, 2.0 ** -52, math.pi, -1234.5678e30]
    text = dumps({"values": values})
    parsed = json.loads(text)
    assert parsed["values"] == values
    assert all(isinstance(v, float) for v in parsed["values"])


def test_ints_stay_ints():
    parsed = json.loads(dumps({"count": 3, "value": 3.0}))
    assert isinstance(parsed["count"], int)
    assert isinstance(parsed["value"], float)


def test_key_order_preserved():
    text = dumps({"zulu": 1, "alpha": 2, "mike": 3})
    assert text.index("zulu") < text.index("alpha") < text.index("mike")


def test_numpy_scalars_and_arrays():
    parsed = json.loads(dumps({
        "arr": np.array([1.5, 2.5]),
        "num": np.float64(0.25),
        "flag": np.bool_(True),
        "idx": np.int64(7),
    }))
    assert parsed == {"arr": [1.5, 2.5], "num": 0.25, "flag": True, "idx": 7}


def test_reserialization_is_stable():
    payload = {"a": [0.1, {"b": None, "c": [True, "x", 1e-300]}], "d": {}}
    once = dumps(payload)
    again = dumps(json.loads(once))
    assert once == again


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        dumps({"bad": float("nan")})
    with pytest.raises(ValueError):
        dumps({"bad": float("inf")})


def test_unserializable_rejected():
    with pytest.raises(TypeError):
        dumps({"bad": object()})


@pytest.mark.parametrize("value, text", [
    (1e16, "10000000000000000.0"),
    (-0.0, "-0.0"),
    (5e-324, "4.9406564584124654e-324"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.array([[1.0, -0.5], [2, 1e16]]),
     "[\n  [\n    1.0,\n    -0.5\n  ],\n  [\n    2.0,\n    10000000000000000.0\n  ]\n]"),
    (np.str_("x"), '"x"'),
])
def test_emitted_bytes_are_pinned(value, text):
    assert dumps(value) == text + "\n"
