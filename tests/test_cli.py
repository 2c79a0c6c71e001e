"""Command-line interface: outputs, config merging, exit codes, determinism."""

import csv
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
from liqdrop.coulomb import PeriodicKernel

ZETA_BCC_1 = -1.4442307515269701
MADELUNG_Z3 = -2.837297479480619


def run(*argv):
    return main(list(argv))


def read_csv(path):
    """Read a CSV file back as (header, rows of strings)."""
    with open(path, "r", encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    return (rows[0], rows[1:]) if rows else ([], [])


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


def test_zeta_plot_pairs_each_row(tmp_path):
    assert run("zeta", "--s", "2,1,0.5", "--out", str(tmp_path)) == EXIT_OK
    _, rows = read_csv(tmp_path / "zeta.csv")
    dat = (tmp_path / "zeta.dat").read_text().splitlines()[1:]
    pairs = [tuple(float(v) for v in line.split()) for line in dat]
    assert pairs == [(float(r[1]), float(r[2])) for r in rows]
    assert [s for s, _ in pairs] == [2.0, 1.0, 0.5]
    assert pairs[1][1] == pytest.approx(ZETA_BCC_1, abs=1e-12)


def test_list_flags_reject_repeated_values_exit_one(tmp_path):
    # a repeated value wrote one CSV row per entry but one JSON entry in all:
    # fgc --rho 0.01,0.01 gave two rows, one by_rho entry, and counted the
    # unconverged runs of one; zeta --s 1,1.0 gave two rows, one values entry
    for argv in (
        ("fgc", "--rho", "0.01,0.01", "--kmax", "1", "--starts", "1"),
        ("zeta", "--s", "1,1.0"),
        ("expansion", "--n", "4", "--rho", "1e-3,3e-4,1e-4,1e-3"),
    ):
        assert run(*argv, "--out", str(tmp_path)) == EXIT_BAD_ARGS
    cfg = tmp_path / "bad.cfg"
    for command, line in (
        ("fgc", "rho = 0.01,0.010"),
        ("zeta", "s = 2,2"),
        ("expansion", "rho = 1e-3,1e-4,0.001,3e-5"),
    ):
        cfg.write_text(line + "\n")
        assert run(command, "--config", str(cfg), "--out", str(tmp_path)) == EXIT_BAD_ARGS
    assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.json"))


def test_madelung_value(tmp_path):
    assert run("madelung", "--out", str(tmp_path), "--prefix", "m") == EXIT_OK
    header, rows = read_csv(tmp_path / "m.csv")
    assert float(rows[0][1]) == pytest.approx(MADELUNG_Z3, abs=1e-12)
    # the kernel's own truncation estimate, not a constant
    error = float(rows[0][header.index("truncation_error")])
    assert error == PeriodicKernel(1.0).truncation_error
    assert 0.0 < error <= 1e-13
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["summary"]["truncation_error"] == error


def test_cheese_exact_fractions(tmp_path):
    assert run("cheese", "--k", "2", "--out", str(tmp_path)) == EXIT_OK
    header, rows = read_csv(tmp_path / "cheese.csv")
    assert header[0] == "generation"
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert rows[0][1] == "1/2"  # base radius, exact
    assert rows[1][1] == "53/2"  # 27 - 1/2, exact
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
    status = doc["summary"]["status_by_n"]
    assert sorted(status) == ["4", "5"]
    assert all(s["converged"] and s["evaluations"] > 0 for s in status.values())
    assert doc["summary"]["unconverged_runs"] == 0


def test_jellium_gc_output_is_pinned(tmp_path):
    # digests recorded with the closed-form tetrahedron potential and the
    # surface-identity self-integral: every value here goes through that
    # kernel and L-BFGS, which turns a one-ulp change in it into a different
    # file
    argv = ("--a", "2.2246", "--window", "4,5", "--starts", "2", "--seed", "0")
    assert run("jellium-gc", *argv, "--out", str(tmp_path)) == EXIT_OK
    digests = {
        ext: hashlib.sha256((tmp_path / f"jellium-gc.{ext}").read_bytes()).hexdigest()
        for ext in ("csv", "json")
    }
    assert digests == {
        "csv": "0097a7000983986a28d0de710688ac0336a2392c5a92c8b7a57e4d160169b88c",
        "json": "252c2b111ee25a4076974ff3e0cda610e82e7be0e73297ee3aec50d671efdfc2",
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
    summary = json.loads((tmp_path / "fgc.json").read_text())["summary"]
    for entry in summary["by_rho"].values():
        assert sorted(entry["status_by_count"]) == ["0", "1"]
        assert entry["status_by_count"]["0"] == {
            "type": "RestartStatus", "converged": True, "evaluations": 0}
        assert entry["status_by_count"]["1"]["evaluations"] > 0
    assert summary["unconverged_runs"] == 0


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
    assert set(fits) == {"per-particle"}
    # c1 is close to the droplet constant
    assert fits["per-particle"]["linear_coefficient"] == pytest.approx(
        5.3447662207, rel=1e-3
    )
    _, rows = read_csv(tmp_path / "expansion.csv")
    assert len(rows) == 4  # one per density
    # the truncation of the unit-density kernel the sweep minimizes with
    kernel = PeriodicKernel(4 ** (1.0 / 3.0))
    assert doc["summary"]["ewald"] == {
        "alpha": kernel.alpha,
        "real_cutoff": kernel.rcut,
        "shifts": 29,
        "kvectors": 775,
        "truncation_error": kernel.truncation_error,
    }
    # one random restart and the fcc crystal start, both converged
    assert [r["restart"] for r in doc["summary"]["restarts"]] == [0, 1]
    assert all(r["converged"] for r in doc["summary"]["restarts"])
    assert doc["summary"]["unconverged_restarts"] == 0


def test_jellium_opt_reports_each_restart(tmp_path):
    argv = ("--n", "8", "--restarts", "2", "--hops", "1", "--seed", "5")
    assert run("jellium-opt", *argv, "--out", str(tmp_path)) == EXIT_OK
    header, rows = read_csv(tmp_path / "jellium-opt.csv")
    assert header == ["restart", "per_particle_energy"] and len(rows) == 2
    summary = json.loads((tmp_path / "jellium-opt.json").read_text())["summary"]
    assert [(r["restart"], r["converged"]) for r in summary["restarts"]] == [
        (0, True), (1, True)]
    assert all(r["evaluations"] >= 4 for r in summary["restarts"])
    assert summary["unconverged_restarts"] == 0


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


def test_tol_only_on_jellium_opt(tmp_path):
    # only jellium-opt reads --tol (its L-BFGS gradient tolerance); the other
    # subcommands reject it like any unknown flag, before writing anything
    for command in ("zeta", "madelung", "jellium-gc", "droplet", "fgc",
                    "expansion", "gs-check", "cheese", "quadlayer"):
        out = tmp_path / command
        assert run(command, "--tol", "1e-6", "--out", str(out)) == EXIT_BAD_ARGS
        assert not out.exists()
    # an unknown flag whatever its value, and an unknown config key
    assert run("madelung", "--tol", "nan", "--out", str(tmp_path)) == EXIT_BAD_ARGS
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol = 1e-6\n")
    assert run("madelung", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_BAD_ARGS
    assert not any(tmp_path.glob("*.csv"))
    out = tmp_path / "jellium-opt"
    argv = ("jellium-opt", "--n", "2", "--restarts", "1", "--hops", "0")
    assert run(*argv, "--tol", "1e-6", "--out", str(out)) == EXIT_OK
    doc = json.loads((out / "jellium-opt.json").read_text())
    assert doc["provenance"]["config"]["tol"] == 1e-6
    assert doc["summary"]["gradient_tolerance"] == 1e-6


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
    # exit 0 (e.g. inf for every count, NaN for droplet --radius nan, a
    # passed coulomb check for gs-check --ell -1, no far-field probe for
    # quadlayer --probes -1), a numeric failure with exit 2 (madelung --ell,
    # quadlayer --eps, --radius, --cube-side, --subdiv and --rho,
    # jellium-opt --n, --density and --restarts -1 or 0, cheese --k and --growth,
    # gs-check --rho, fgc and expansion --rho nan or inf, expansion --n 0),
    # or a traceback (droplet --rho -0.1, expansion --restarts -1 and --n -3,
    # zeta --s inf); zeta --s nan wrote nan values with exit 0,
    # jellium-opt --hops -1 ran as --hops 0, and jellium-opt --tol nan and
    # --tol -1 exited 0, the first writing NaN, which is not JSON
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
        ("droplet", "--rho", "-0.1"),
        ("droplet", "--rho", "0"),
        ("droplet", "--rho", "inf"),
        ("droplet", "--radius", "nan"),
        ("droplet", "--radius", "0"),
        ("gs-check", "--ell", "-1"),
        ("gs-check", "--ell", "inf"),
        ("gs-check", "--side", "0"),
        ("gs-check", "--side", "nan"),
        ("gs-check", "--samples", "0"),
        ("gs-check", "--pair-samples", "1"),
        ("gs-check", "--configs", "-1"),
        ("gs-check", "--rho", "-1"),
        ("gs-check", "--rho", "nan"),
        ("madelung", "--ell", "-1"),
        ("madelung", "--ell", "0"),
        ("quadlayer", "--eps", "0"),
        ("quadlayer", "--probes", "-1"),
        ("jellium-opt", "--n", "0"),
        ("jellium-opt", "--density", "-1"),
        ("cheese", "--k", "-1"),
        ("jellium-opt", "--restarts", "-1"),
        ("jellium-opt", "--restarts", "0"),
        ("jellium-opt", "--hops", "-1"),
        ("jellium-opt", "--n", "4", "--tol", "nan"),
        ("jellium-opt", "--n", "4", "--tol", "0"),
        ("jellium-opt", "--n", "4", "--tol", "-1"),
        ("expansion", "--n", "2", "--restarts", "-1"),
        ("expansion", "--n", "2", "--hops", "-1"),
        ("expansion", "--n", "-3", "--restarts", "0", "--hops", "0"),
        ("expansion", "--n", "0"),
        ("cheese", "--growth", "1"),
        ("cheese", "--growth", "0"),
        ("cheese", "--growth", "-2"),
        ("zeta", "--s", "nan"),
        ("zeta", "--s", "1,inf"),
        ("fgc", "--rho", "0.01,nan"),
        ("expansion", "--rho", "inf,1e-4,1e-5,1e-6"),
        ("quadlayer", "--radius", "-1"),
        ("quadlayer", "--cube-side", "0"),
        ("quadlayer", "--subdiv", "0"),
        ("quadlayer", "--subdiv", "1"),
        ("quadlayer", "--rho", "-1"),
        ("quadlayer", "--rho", "0"),
        ("quadlayer", "--rho", "0.7"),
        ("quadlayer", "--rho", "nan"),
    ):
        assert run(*argv, "--out", str(tmp_path)) == EXIT_BAD_ARGS
    cfg = tmp_path / "bad.cfg"
    for command, line in (
        ("jellium-gc", "starts = 0"),
        ("jellium-gc", "a = -1"),
        ("jellium-gc", "charge = 0"),
        ("jellium-gc", "window = 7,4"),
        ("fgc", "starts = 0"),
        ("droplet", "rho = -0.1"),
        ("droplet", "radius = nan"),
        ("gs-check", "ell = -1"),
        ("gs-check", "samples = 0"),
        ("gs-check", "pair-samples = 1"),
        ("gs-check", "rho = -1"),
        ("madelung", "ell = 0"),
        ("quadlayer", "probes = -1"),
        ("jellium-opt", "n = 0"),
        ("cheese", "k = -1"),
        ("jellium-opt", "hops = -1"),
        ("jellium-opt", "restarts = 0"),
        ("jellium-opt", "tol = nan"),
        ("jellium-opt", "tol = -1"),
        ("expansion", "restarts = -1"),
        ("zeta", "s = nan"),
        ("quadlayer", "subdiv = 0"),
        ("quadlayer", "rho = 0.6"),
    ):
        cfg.write_text(line + "\n")
        assert run(command, "--config", str(cfg), "--out", str(tmp_path)) == EXIT_BAD_ARGS
    assert not any(tmp_path.glob("*.csv"))
    # the smallest counts that mean something still run
    for argv in (
        ("expansion", "--n", "1", "--restarts", "0", "--hops", "0"),
        ("cheese", "--growth", "2"),
    ):
        assert run(*argv, "--out", str(tmp_path / argv[0])) == EXIT_OK


def test_expansion_without_any_start_exits_two(tmp_path, capsys):
    # n = 17 has no crystal start, so --restarts 0 leaves the search with no
    # start at all; it used to exit 2 with "attempt to get argmin of an empty
    # sequence".  At n = 54 the bcc start remains and --restarts 0 runs.
    argv = ("expansion", "--n", "17", "--restarts", "0", "--hops", "0")
    assert run(*argv, "--out", str(tmp_path)) == EXIT_NUMERIC
    assert "restarts plus initial configurations must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_expansion_above_the_dilute_range_exits_two(tmp_path, capsys):
    # at rho = 0.9 the cell of side 2.231 put neighbouring droplets 1.578
    # apart, below 2 R* = 1.684, and the sweep reported that as an upper
    # bound with exit 0; upper_bound_e already rejected it
    argv = ("expansion", "--n", "4", "--restarts", "1", "--rho", "0.9,0.1,0.01,0.001")
    assert run(*argv, "--out", str(tmp_path)) == EXIT_NUMERIC
    assert "density must lie in (0, 1e-2]" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_fgc_rejects_empty_container_and_negative_kmax_exit_one(tmp_path):
    # rejected while parsing: --side -1 used to hang in the start sampler,
    # --side 0 and --kmax -1 exited 2 from inside the optimizer
    for argv in (
        ("fgc", "--side", "-1"),
        ("fgc", "--side", "0"),
        ("fgc", "--side", "nan"),
        ("fgc", "--kmax", "-1"),
    ):
        assert run(*argv, "--out", str(tmp_path)) == EXIT_BAD_ARGS
    cfg = tmp_path / "bad.cfg"
    for line in ("side = -1", "side = 0", "kmax = -1"):
        cfg.write_text(line + "\n")
        assert run("fgc", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_BAD_ARGS
    assert not any(tmp_path.glob("*.csv"))


def test_numeric_failures_exit_two(tmp_path):
    assert run("cheese", "--k", "20", "--out", str(tmp_path)) == EXIT_NUMERIC
    assert run("droplet", "--rho", "0.7", "--out", str(tmp_path)) == EXIT_NUMERIC
    # no host tile can absorb the boundary subcells at this subdivision
    assert (
        run("quadlayer", "--rho", "0.5", "--eps", "0.125", "--radius", "1",
            "--subdiv", "2", "--out", str(tmp_path))
        == EXIT_NUMERIC
    )


def test_io_failures_exit_three(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("occupied\n")
    assert run("madelung", "--out", str(blocker / "sub")) == EXIT_IO
