"""JSON and CSV serialization for geometry, configurations, and reports.

JSON encoding is type-tagged: ``encode`` writes ``Lattice``, ``Cube``,
``Ball``, ``Tetrahedron``, ``BallUnion``, ``VoxelSet`` and
``PointConfiguration`` as a ``"type"`` key plus their defining data, every
float at full ``repr`` precision, so the values read back from the JSON text
are the object's own; report dataclasses serialize field by field.  Nothing
reads JSON back into objects.  CSV output uses RFC-4180 quoting.
All emitters are deterministic: keys are sorted and no timestamps or
environment-dependent values are written.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from fractions import Fraction

import numpy as np

from liqdrop.geom import (
    Ball,
    BallUnion,
    Cube,
    Lattice,
    Tetrahedron,
    VoxelSet,
)
from liqdrop.jellium import PointConfiguration

__all__ = [
    "to_jsonable",
    "encode",
    "dump_json",
    "write_csv",
    "schedule_rows",
]


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
    if isinstance(
        obj,
        (
            Lattice,
            Cube,
            Ball,
            Tetrahedron,
            BallUnion,
            VoxelSet,
            PointConfiguration,
        ),
    ):
        return encode(obj)
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


def encode(obj) -> dict:
    """Type-tagged JSON encoding of geometric objects and configurations."""
    if isinstance(obj, Lattice):
        return {
            "type": "Lattice",
            "kind": obj.kind,
            "density": float(obj.density),
            "basis": np.asarray(obj.basis, dtype=float).tolist(),
        }
    if isinstance(obj, Cube):
        return {
            "type": "Cube",
            "side": float(obj.side),
            "center": np.asarray(obj.center, dtype=float).tolist(),
        }
    if isinstance(obj, Ball):
        return {
            "type": "Ball",
            "radius": float(obj.radius),
            "center": np.asarray(obj.center, dtype=float).tolist(),
        }
    if isinstance(obj, Tetrahedron):
        return {
            "type": "Tetrahedron",
            "vertices": np.asarray(obj.vertices, dtype=float).tolist(),
        }
    if isinstance(obj, BallUnion):
        return {
            "type": "BallUnion",
            "centers": np.asarray(obj.centers, dtype=float).tolist(),
            "radii": np.asarray(obj.radii, dtype=float).tolist(),
        }
    if isinstance(obj, VoxelSet):
        occ = np.asarray(obj.occ, dtype=bool)
        idx = np.argwhere(occ)
        return {
            "type": "VoxelSet",
            "h": float(obj.h),
            "origin": np.asarray(obj.origin, dtype=float).tolist(),
            "shape": list(occ.shape),
            "occupied": idx.tolist(),
        }
    if isinstance(obj, PointConfiguration):
        return {
            "type": "PointConfiguration",
            "positions": np.asarray(obj.positions, dtype=float).tolist(),
            "charge": float(obj.charge),
            "container": None if obj.container is None else encode(obj.container),
        }
    raise TypeError(f"cannot encode object of type {type(obj).__name__}")


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


def schedule_rows(schedule):
    """CSV rows for a ball-packing schedule: one row per generation.

    Columns: generation j, ball radius R_j (exact fraction), number of balls
    of that generation inside the largest ball, leftover volume ratio and
    boundary-area ratio at depth j (exact fractions).
    """
    rows = []
    for j in range(schedule.depth + 1):
        rows.append(
            (
                j,
                schedule.radii[j],
                schedule.counts[j],
                schedule.leftover_ratios[j],
                schedule.perimeter_ratios[j],
            )
        )
    return rows
