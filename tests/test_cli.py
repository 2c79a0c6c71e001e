"""Command-line interface: outputs, config merging, exit codes, determinism."""

import hashlib
import json

import pytest

from liqdrop.cli import (
    EXIT_BAD_ARGS,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)
from liqdrop.serialize import read_csv

ZETA_BCC_1 = -1.4442307515269701
MADELUNG_Z3 = -2.837297479480619


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_zeta_writes_csv_and_json(tmp_path):
    assert run("zeta", "--lattice", "bcc", "--s", "1", "--out", str(tmp_path)) == EXIT_OK
    header, rows = read_csv(tmp_path / "zeta.csv")
    assert header == ["lattice", "s", "value", "truncation_error"]
    assert rows[0][0] == "bcc"
    assert float(rows[0][2]) == pytest.approx(ZETA_BCC_1, abs=1e-12)
    assert float(rows[0][3]) < 1e-10
    doc = json.loads((tmp_path / "zeta.json").read_text())
    assert doc["provenance"]["command"] == "zeta"
    assert doc["provenance"]["seed"] == 0
    assert doc["provenance"]["config"]["lattice"] == "bcc"
    assert "version" in doc["provenance"]
    # no wall-clock information: reruns must be byte-identical
    assert "time" not in json.dumps(doc).lower()
    assert not (tmp_path / "zeta.dat").exists()  # single point: no plot


def test_zeta_multi_s_writes_plot(tmp_path):
    assert run("zeta", "--s", "1,2.5", "--out", str(tmp_path)) == EXIT_OK
    dat = (tmp_path / "zeta.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert len(dat) == 3


def test_zeta_repeated_s_pairs_each_value(tmp_path):
    assert run("zeta", "--s", "1,1,2", "--out", str(tmp_path)) == EXIT_OK
    _, rows = read_csv(tmp_path / "zeta.csv")
    dat = (tmp_path / "zeta.dat").read_text().splitlines()[1:]
    pairs = [tuple(float(v) for v in line.split()) for line in dat]
    assert pairs == [(float(r[1]), float(r[2])) for r in rows]
    assert [s for s, _ in pairs] == [1.0, 1.0, 2.0]
    assert pairs[0][1] == pytest.approx(ZETA_BCC_1, abs=1e-12)


def test_madelung_value(tmp_path):
    assert run("madelung", "--out", str(tmp_path), "--prefix", "m") == EXIT_OK
    _, rows = read_csv(tmp_path / "m.csv")
    assert float(rows[0][1]) == pytest.approx(MADELUNG_Z3, abs=1e-12)


def test_cheese_exact_fractions(tmp_path):
    assert run("cheese", "--k", "2", "--out", str(tmp_path)) == EXIT_OK
    header, rows = read_csv(tmp_path / "cheese.csv")
    assert header[0] == "generation"
    assert rows[0][1] == "1/2"  # base radius, exact
    assert rows[1][2] == "729"  # first-generation count
    doc = json.loads((tmp_path / "cheese.json").read_text())
    assert doc["summary"]["two_sided_constant"] <= 50.0
    assert doc["summary"]["keep_fraction"] == {"fraction": "26/27"}


def test_jellium_gc_small_window(tmp_path):
    assert (
        run(
            "jellium-gc",
            "--a", "2.2246",
            "--window", "4,5",
            "--starts", "1",
            "--out", str(tmp_path),
        )
        == EXIT_OK
    )
    _, rows = read_csv(tmp_path / "jellium-gc.csv")
    assert [r[0] for r in rows] == ["4", "5"]
    doc = json.loads((tmp_path / "jellium-gc.json").read_text())
    assert doc["summary"]["best_value"] < 0.0
    assert doc["summary"]["interpolation_bound"] < 0.0


def test_jellium_gc_output_is_pinned(tmp_path):
    # digests recorded before the tetrahedron kernel was restructured: every
    # value here goes through the quadrature order ladder and L-BFGS, which
    # turns a one-ulp change in the kernel into a different file
    argv = ("--a", "2.2246", "--window", "4,5", "--starts", "2", "--seed", "0")
    assert run("jellium-gc", *argv, "--out", str(tmp_path)) == EXIT_OK
    digests = {
        ext: hashlib.sha256((tmp_path / f"jellium-gc.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "json")
    }
    assert digests == {
        "csv": "19e1c968ddf84b342bfaedb5179fdec0d6dabd7d424d7298040af0258e044af4",
        "json": "077a27681a44ef0b3f5dcb13c81ee901e5da1f033e8a3a2f1f0275a965bc0fe2",
    }


def test_droplet_breakdown(tmp_path):
    assert run("droplet", "--rho", "0.05", "--out", str(tmp_path)) == EXIT_OK
    _, rows = read_csv(tmp_path / "droplet.csv")
    quantities = {r[0]: float(r[1]) for r in rows}
    assert quantities["optimal_ball_mass"] == pytest.approx(2.5, abs=1e-10)
    assert quantities["total"] == pytest.approx(
        quantities["perimeter"]
        + quantities["droplet_droplet"]
        + quantities["droplet_background"]
        + quantities["background_background"],
        rel=1e-12,
    )


def test_quadlayer_small(tmp_path):
    assert (
        run(
            "quadlayer",
            "--radius", "1",
            "--eps", "0.125",
            "--subdiv", "4",
            "--rho", "0.2",
            "--probes", "1",
            "--out", str(tmp_path),
        )
        == EXIT_OK
    )
    doc = json.loads((tmp_path / "quadlayer.json").read_text())
    assert doc["summary"]["max_abs_charge"] < 1e-15
    assert doc["summary"]["max_abs_dipole_over_eps4"] < 1e-12
    assert doc["summary"]["min_containment_margin"] > 0.0
    assert doc["summary"]["perimeter_constant"] <= 10.0
    probe = doc["summary"]["far_field_probes"][0]
    assert 2.7 <= probe["decay_exponent"] <= 3.3


def test_gs_check_small(tmp_path):
    assert (
        run(
            "gs-check",
            "--samples", "20000",
            "--pair-samples", "4000",
            "--configs", "1",
            "--out", str(tmp_path),
        )
        == EXIT_OK
    )
    doc = json.loads((tmp_path / "gs-check.json").read_text())
    assert doc["summary"]["checks"]["coulomb-0"]["margin_in_sigmas"] >= -3.0


def test_fgc_plot_written(tmp_path):
    assert (
        run(
            "fgc",
            "--rho", "0.0,0.01",
            "--kmax", "1",
            "--starts", "1",
            "--out", str(tmp_path),
        )
        == EXIT_OK
    )
    dat = (tmp_path / "fgc.dat").read_text().splitlines()
    assert len(dat) == 3
    _, rows = read_csv(tmp_path / "fgc.csv")
    assert len(rows) == 2


def test_expansion_small_grid(tmp_path):
    assert (
        run(
            "expansion",
            "--rho", "1e-3,3e-4,1e-4,3e-5",
            "--n", "4",
            "--restarts", "1",
            "--hops", "1",
            "--out", str(tmp_path),
        )
        == EXIT_OK
    )
    doc = json.loads((tmp_path / "expansion.json").read_text())
    fits = doc["summary"]["fits"]
    assert set(fits) == {"per-particle", "single"}
    # c1 is convention-independent and close to the droplet constant
    assert fits["per-particle"]["linear_coefficient"] == pytest.approx(
        5.3447662207, rel=1e-3
    )
    _, rows = read_csv(tmp_path / "expansion.csv")
    assert len(rows) == 8  # 4 densities x 2 conventions


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_outputs_byte_identical_across_runs_and_threads(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    args = ("jellium-opt", "--n", "8", "--restarts", "2", "--hops", "1",
            "--seed", "5")
    assert run(*args, "--threads", "1", "--out", str(a)) == EXIT_OK
    assert run(*args, "--threads", "1", "--out", str(b)) == EXIT_OK
    assert run(*args, "--threads", "8", "--out", str(c)) == EXIT_OK
    for name in ("jellium-opt.csv", "jellium-opt.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() == (c / name).read_bytes()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 2\ngrowth = 26  # trailing comment\n")
    out1 = tmp_path / "o1"
    assert run("cheese", "--config", str(cfg), "--out", str(out1)) == EXIT_OK
    doc = json.loads((out1 / "cheese.json").read_text())
    assert doc["summary"]["depth"] == 2
    assert doc["provenance"]["config"]["k"] == 2
    # explicit flag beats the config value
    out2 = tmp_path / "o2"
    assert run("cheese", "--config", str(cfg), "--k", "3", "--out", str(out2)) == EXIT_OK
    doc2 = json.loads((out2 / "cheese.json").read_text())
    assert doc2["summary"]["depth"] == 3


def test_config_error_handling(tmp_path):
    missing = tmp_path / "nope.cfg"
    assert run("cheese", "--config", str(missing)) == EXIT_IO
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("radius = 2\n")  # not a cheese option
    assert run("cheese", "--config", str(bad_key)) == EXIT_BAD_ARGS
    bad_value = tmp_path / "badv.cfg"
    bad_value.write_text("k = soon\n")
    assert run("cheese", "--config", str(bad_value)) == EXIT_BAD_ARGS
    bad_line = tmp_path / "badl.cfg"
    bad_line.write_text("k 2\n")
    assert run("cheese", "--config", str(bad_line)) == EXIT_BAD_ARGS


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_bad_arguments_exit_one(tmp_path):
    assert run() == EXIT_BAD_ARGS
    assert run("zeta", "--lattice", "hex") == EXIT_BAD_ARGS
    assert run("zeta", "--no-such-flag") == EXIT_BAD_ARGS
    assert run("no-such-command") == EXIT_BAD_ARGS


def test_threads_only_where_a_pool_runs(tmp_path):
    # only jellium-opt and expansion read --threads; elsewhere it is unknown
    assert run("zeta", "--threads", "2", "--out", str(tmp_path)) == EXIT_BAD_ARGS
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 2\n")
    assert run("zeta", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_BAD_ARGS
    assert not (tmp_path / "zeta.csv").exists()


def test_threads_below_one_exit_one(tmp_path):
    # rejected while parsing, before any pool or thread exists
    for value in ("0", "-1", "-1000000000"):
        assert run("jellium-opt", "--threads", value, "--out", str(tmp_path)) == EXIT_BAD_ARGS
        assert run("expansion", "--threads", value, "--out", str(tmp_path)) == EXIT_BAD_ARGS
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 0\n")
    assert run("jellium-opt", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_BAD_ARGS
    assert not any(tmp_path.glob("*.csv"))


def test_jellium_gc_and_fgc_reject_meaningless_inputs_exit_one(tmp_path):
    # rejected while parsing; each used to give a meaningless result with
    # exit 0 (e.g. inf for every count) or a numeric failure with exit 2
    for argv in (
        ("jellium-gc", "--starts", "0"),
        ("jellium-gc", "--a", "0"),
        ("jellium-gc", "--a", "-1"),
        ("jellium-gc", "--a", "nan"),
        ("jellium-gc", "--charge", "0"),
        ("jellium-gc", "--charge", "-1"),
        ("jellium-gc", "--window", "7,4"),
        ("jellium-gc", "--window=-1,2"),
        ("fgc", "--starts", "0"),
    ):
        assert run(*argv, "--out", str(tmp_path)) == EXIT_BAD_ARGS
    cfg = tmp_path / "bad.cfg"
    for command, line in (
        ("jellium-gc", "starts = 0"),
        ("jellium-gc", "a = -1"),
        ("jellium-gc", "charge = 0"),
        ("jellium-gc", "window = 7,4"),
        ("fgc", "starts = 0"),
    ):
        cfg.write_text(line + "\n")
        assert run(command, "--config", str(cfg), "--out", str(tmp_path)) == EXIT_BAD_ARGS
    assert not any(tmp_path.glob("*.csv"))


def test_numeric_failures_exit_two(tmp_path):
    assert run("cheese", "--k", "20", "--out", str(tmp_path)) == EXIT_NUMERIC
    assert run("droplet", "--rho", "0.7", "--out", str(tmp_path)) == EXIT_NUMERIC
    assert (
        run("quadlayer", "--rho", "0.7", "--eps", "0.125", "--radius", "1",
            "--out", str(tmp_path))
        == EXIT_NUMERIC
    )


def test_io_failures_exit_three(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("occupied\n")
    assert run("madelung", "--out", str(blocker / "sub")) == EXIT_IO
