"""JSON emission with fixed key order and 17-significant-digit floats.

Reports and scenarios must be byte-reproducible and round-trip floats
exactly, so floats are written with 17 significant digits (always with
a decimal point or exponent, keeping them floats on re-parse) and dict
keys keep insertion order.  Parsing uses the standard library.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence

import numpy as np


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite numbers")
    text = format(x, ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def _emit(obj, level: int, indent: int) -> str:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            parts.append(f"{pad}{json.dumps(key)}: {_emit(value, level + 1, indent)}")
        return "{\n" + ",\n".join(parts) + "\n" + close_pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, Sequence):
        if not obj:
            return "[]"
        parts = [f"{pad}{_emit(v, level + 1, indent)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    return _emit(obj, 0, indent) + "\n"
