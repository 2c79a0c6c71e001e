"""JSON and CSV serialization of results.

One recursive encoder, ``to_jsonable``, turns every object the CLI writes
into plain JSON values: a dataclass (a ``Cube``, a ``Ball``, a
``PointConfiguration``, a report) becomes a dict of its fields, field by
field, plus a ``"type"`` key with its class name; a ``Fraction`` becomes
``{"fraction": "p/q"}``; numpy scalars and arrays become Python numbers and
lists; dict keys become strings.  Floats keep full ``repr`` precision, so
the values read back from the JSON text are the object's own.  Nothing reads
JSON back into objects.  CSV output uses RFC-4180 quoting.  All emitters are
deterministic: keys are sorted as text and no timestamps or
environment-dependent values are written.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from fractions import Fraction

import numpy as np

__all__ = ["to_jsonable", "dump_json", "write_csv"]


def to_jsonable(obj):
    """Convert numbers, arrays, fractions, dataclasses, and containers to
    plain JSON-compatible Python values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return {"fraction": f"{obj.numerator}/{obj.denominator}"}
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dump_json(obj, path) -> None:
    """Write ``obj`` as deterministic JSON (sorted keys, trailing newline)."""
    payload = to_jsonable(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(payload, fp, sort_keys=True, indent=2)
        fp.write("\n")


def write_csv(path, header, rows) -> None:
    """Write an RFC-4180 CSV file with the given header and rows."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        w = csv.writer(fp, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        w.writerow(list(header))
        for row in rows:
            w.writerow(["" if v is None else _cell(v) for v in row])


def _cell(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, float):
        return repr(v)
    return v

