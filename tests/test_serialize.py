"""Deterministic JSON/CSV serialization of results and geometry."""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest

from liqdrop.appendixlab import swiss_cheese
from liqdrop.geom import Ball, Cube
from liqdrop.jellium import PointConfiguration
from liqdrop.serialize import dump_json, to_jsonable, write_csv


def read_csv(path):
    """Read a CSV file back as (header, rows of strings)."""
    with open(path, "r", encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    return (rows[0], rows[1:]) if rows else ([], [])


# ---------------------------------------------------------------------------
# geometry encodings: dataclass fields under a "type" key, and the values
# read back from the JSON text are the object's own, bit for bit
# ---------------------------------------------------------------------------


def _encoded(obj):
    return json.loads(json.dumps(to_jsonable(obj)))


def test_domain_roundtrips():
    cube = Cube(side=2.5, center=(0.5, -1.0, 0.0))
    assert _encoded(cube) == {"type": "Cube", "side": 2.5, "center": [0.5, -1.0, 0.0]}
    ball = Ball(radius=1.2, center=(0.0, 0.1, -0.2))
    assert _encoded(ball) == {"type": "Ball", "radius": 1.2, "center": [0.0, 0.1, -0.2]}


def test_point_configuration_roundtrip():
    cfg = PointConfiguration(
        positions=np.array([[0.0, 1.0, 2.0]]),
        charge=2.5,
        container=Cube(side=4.0),
    )
    assert _encoded(cfg) == {
        "type": "PointConfiguration",
        "positions": [[0.0, 1.0, 2.0]],
        "charge": 2.5,
        "container": {"type": "Cube", "side": 4.0, "center": [0.0, 0.0, 0.0]},
    }


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_jsonable(object())
    # a set has no order, so it would not write deterministic JSON
    with pytest.raises(TypeError):
        to_jsonable({"values": {1.0, 2.0}})


# ---------------------------------------------------------------------------
# generic JSON conversion
# ---------------------------------------------------------------------------


def test_to_jsonable_handles_numpy_and_fractions():
    out = to_jsonable(
        {
            "a": np.float64(1.5),
            "b": np.int32(7),
            "c": np.bool_(True),
            "d": Fraction(7, 3),
            "e": np.array([1.0, 2.0]),
            "f": [Fraction(1, 2), None],
        }
    )
    assert out == {
        "a": 1.5,
        "b": 7,
        "c": True,
        "d": {"fraction": "7/3"},
        "e": [1.0, 2.0],
        "f": [{"fraction": "1/2"}, None],
    }
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_dump_json_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    payload = {"z": 1, "a": [2.5, Fraction(1, 3)], "m": {"y": 2, "x": 1}}
    dump_json(payload, p1)
    dump_json(payload, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")
    loaded = json.loads(b1)
    assert list(loaded.keys()) == sorted(loaded.keys())


def test_dump_json_writes_the_encoding(tmp_path):
    p = tmp_path / "c.json"
    cfg = PointConfiguration(positions=[[0.1, 0.2, 0.3]], container=Cube(side=2.0))
    dump_json({"config": cfg}, p)
    assert json.loads(p.read_bytes()) == {
        "config": {
            "type": "PointConfiguration",
            "positions": [[0.1, 0.2, 0.3]],
            "charge": 1.0,
            "container": {"type": "Cube", "side": 2.0, "center": [0.0, 0.0, 0.0]},
        }
    }


def test_dump_json_sorts_int_keys_as_text(tmp_path):
    # counts become string keys first and sort as text, so 10 precedes 9
    p = tmp_path / "k.json"
    dump_json({9: "nine", 10: "ten"}, p)
    assert p.read_text() == '{\n  "10": "ten",\n  "9": "nine"\n}\n'


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_write_csv_rfc4180(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(
        p,
        ["name", "value"],
        [["plain", 1.5], ["with,comma", Fraction(2, 7)], ["empty", None]],
    )
    raw = p.read_bytes()
    assert b"\r\n" in raw
    assert b'"with,comma"' in raw
    header, rows = read_csv(p)
    assert header == ["name", "value"]
    assert rows == [["plain", "1.5"], ["with,comma", "2/7"], ["empty", ""]]


def test_csv_floats_roundtrip_exactly(tmp_path):
    p = tmp_path / "f.csv"
    x = -1.4442307515269701
    write_csv(p, ["v"], [[x]])
    _, rows = read_csv(p)
    assert float(rows[0][0]) == x


def test_schedule_rows_are_exact_fractions(tmp_path):
    # one row per generation, as the cheese command writes them
    s = swiss_cheese(2)
    rows = [(j, s.radii[j], s.counts[j], s.leftover_ratios[j], s.perimeter_ratios[j])
            for j in range(s.depth + 1)]
    assert len(rows) == 3
    assert rows[0][0] == 0 and rows[1][0] == 1
    assert rows[1][1] == Fraction(53, 2)  # 27 - 1/2
    assert rows[1][2] == 729
    p = tmp_path / "s.csv"
    write_csv(p, ["j", "radius", "count", "leftover", "perimeter"], rows)
    _, got = read_csv(p)
    assert got[1][1] == "53/2"
    assert got[1][2] == "729"
