import json

from quantumdesks import serialize


def test_negative_zero_prints_as_zero():
    assert serialize.format_float(-0.0) == "0"


def test_negative_zero_round_trips_byte_identically():
    out = serialize.dumps({"v": -0.0})
    assert serialize.dumps(json.loads(out)) == out
