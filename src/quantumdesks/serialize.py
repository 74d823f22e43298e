"""JSON emission with floats at 17 significant digits.

17 significant decimal digits reproduce an IEEE double exactly, so text
written here parses back to the same values and re-serializing parsed
output is byte-identical.  The stdlib encoder cannot be told how to
format floats, hence this small hand-rolled writer for the simple
report structures the CLI emits.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    """``x`` at 17 significant digits; negative zero prints as ``0``.

    "-0" would parse back as the integer 0 and re-serialize as "0", so
    both zeros print the same.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x + 0.0, ".17g")


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars to compact JSON, floats at 17 digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
