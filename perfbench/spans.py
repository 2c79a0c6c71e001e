"""Span tracing for the traced benchmark run, installed from outside the program.

``install`` replaces each traced function by a wrapper wherever its caller
looks it up: every ``liqdrop`` module attribute bound to the function (so
``liqdrop.cli.basin_hop`` and ``liqdrop.expansion.basin_hop`` are both
wrapped), methods on their class, and the CLI handler table.  The wrappers
record spans (name, start, end, parent span, operation id) in memory and
count computed work; ``layer_metrics`` turns them into per-layer numbers.

A layer's self time is its span durations minus the time its child spans
cover.  Pool threads started inside a span have no span of their own on the
stack, so their spans take the innermost open span of the operation thread
as parent; the benchmark runs one operation at a time, so that span is the
one that started the pool.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import sys
import threading
import time

import numpy as np

# (module, attribute, span name); a dotted attribute is a method on a class
SPANS = (
    ("liqdrop.coulomb.ewald", "PeriodicKernel.pair_energy", "ewald.pair_energy"),
    ("liqdrop.coulomb.ewald", "PeriodicKernel.pair_gradient", "ewald.pair_gradient"),
    ("liqdrop.coulomb.ewald", "PeriodicKernel.green", "ewald.green"),
    ("liqdrop.coulomb.ewald", "PeriodicKernel.madelung", "ewald.madelung"),
    ("liqdrop.coulomb.potentials", "tetra_field", "potentials.tetra"),
    ("liqdrop.coulomb.potentials", "potential_tetra", "potentials.tetra"),
    ("liqdrop.coulomb.potentials", "potential_box", "potentials.box"),
    ("liqdrop.coulomb.potentials", "domain_pair_coulomb", "potentials.pair"),
    ("liqdrop.coulomb.zeta", "epstein_zeta", "zeta"),
    ("liqdrop.coulomb.grid", "grid_potential", "grid"),
    ("liqdrop.jellium", "minimize_local", "jellium.minimize"),
    ("liqdrop.jellium", "basin_hop", "jellium.basin_hop"),
    ("liqdrop.jellium", "grand_canonical_point_jellium", "jellium.gc"),
    ("liqdrop.droplet", "grand_canonical_F", "droplet.gc"),
    ("liqdrop.droplet", "liquid_drop_energy", "droplet.energy"),
    ("liqdrop.expansion", "expansion_sweep", "expansion.sweep"),
    ("liqdrop.expansion", "gs_perimeter_identity_check", "expansion.mc"),
    ("liqdrop.expansion", "gs_coulomb_inequality_check", "expansion.mc"),
    ("liqdrop.appendixlab", "quadrupole_layer", "appendixlab.layer"),
    ("liqdrop.appendixlab", "far_field_exponent", "appendixlab.far_field"),
    ("liqdrop.serialize", "write_csv", "serialize"),
    ("liqdrop.serialize", "dump_json", "serialize"),
    ("liqdrop.cli", "main", "cli"),
)

# scipy's minimize is one object bound in several modules; each binding is
# counted on its own, without a span, so L-BFGS time stays with its caller
LBFGS = (("liqdrop.jellium", "jellium.lbfgs"), ("liqdrop.droplet", "droplet.lbfgs"))

# layers each workload must exercise; the traced run fails without a call
EXPECTED = {
    "crystal": ("ewald", "jellium.minimize", "jellium.basin_hop", "jellium.lbfgs",
                "serialize", "cli"),
    "dilute": ("ewald", "jellium.minimize", "jellium.basin_hop", "jellium.lbfgs",
               "expansion.sweep", "serialize", "cli"),
    "simplex": ("potentials.tetra", "potentials.pair", "jellium.gc", "jellium.lbfgs",
                "serialize", "cli"),
    "checks": ("ewald", "potentials.box", "potentials.pair", "zeta", "grid",
               "droplet.gc", "droplet.lbfgs", "droplet.energy", "expansion.mc",
               "appendixlab.layer", "appendixlab.far_field", "serialize", "cli"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id]
        self.counts = collections.Counter()
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id):
        """Mark the calling thread as the one running operation ``op_id``."""
        self.op = op_id
        self._root = self._stack()

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else (self._root[-1] if self._root else -1)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def add(self, **counts):
        with self._lock:
            self.counts.update(counts)

    def peak(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts[key], value)


# ---------------------------------------------------------------------------
# work counters, called with (tracer, result, bound arguments)
# ---------------------------------------------------------------------------


def _ewald_work(tr, out, a):
    n = np.asarray(a["positions"]).size // 3
    pairs = n * (n - 1) // 2
    shifts, kvecs = len(a["self"].shifts), len(a["self"].kvecs)
    tr.add(**{"ewald.pair_calls": 1, "ewald.image_terms": pairs * shifts,
              "ewald.kvecs": kvecs, f"ewald.n={n}": 1})
    tr.peak("ewald.disp_bytes", pairs * shifts * 3 * 8)


def _tetra_work(tr, out, a):
    tr.add(**{"potentials.tetra.points": len(np.atleast_2d(a["pts"]))})


def _box_work(tr, out, a):
    shape = np.broadcast_shapes(np.shape(a["lo"]), np.shape(a["hi"]), np.shape(a["pts"]))
    tr.add(**{"potentials.box.points": int(np.prod(shape[:-1]))})


def _grid_work(tr, out, a):
    tr.add(**{"grid.cells": int(np.size(a["values"]))})


def _minimize_work(tr, out, a):
    tr.add(**{"jellium.minimize.nfev": len(out[1])})


def _layer_work(tr, out, a):
    tr.add(**{"appendixlab.layer.pieces": len(out)})


def _perimeter_mc_work(tr, out, a):
    tr.add(**{"expansion.mc.samples": int(out.samples)})


def _coulomb_mc_work(tr, out, a):
    # one sample stream per pair of charge components (balls, background)
    comps = len(a["omega"].radii) + (a["rho"] > 0.0)
    pairs = comps * (comps + 1) // 2
    tr.add(**{"expansion.mc.samples": int(a["samples_per_pair"]) * pairs})


def _bytes_written(tr, out, a):
    tr.add(**{"serialize.bytes": os.path.getsize(a["path"])})


WORK = {
    "PeriodicKernel.pair_energy": _ewald_work,
    "PeriodicKernel.pair_gradient": _ewald_work,
    "tetra_field": _tetra_work,
    "potential_tetra": _tetra_work,
    "potential_box": _box_work,
    "grid_potential": _grid_work,
    "minimize_local": _minimize_work,
    "quadrupole_layer": _layer_work,
    "gs_perimeter_identity_check": _perimeter_mc_work,
    "gs_coulomb_inequality_check": _coulomb_mc_work,
    "write_csv": _bytes_written,
    "dump_json": _bytes_written,
}


def _spanned(tr, fn, name, work):
    sig = inspect.signature(fn) if work else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if work:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            work(tr, out, bound.arguments)
        return out

    return traced


def _counted_lbfgs(tr, fn, name):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        res = fn(*args, **kwargs)
        tr.add(**{f"{name}.calls": 1, f"{name}.nfev": int(res.nfev),
                  f"{name}.converged": int(bool(res.success))})
        return res

    return counted


def _rebind(original, wrapper):
    """Point every liqdrop module attribute bound to ``original`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "liqdrop" or modname.startswith("liqdrop."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tr):
    """Wrap every traced function; returns the names that were not found."""
    missing = []
    for modname, attr, name in SPANS:
        mod = importlib.import_module(modname)
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, fname, None)
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        wrapper = _spanned(tr, fn, name, WORK.get(attr))
        if owner_name:
            setattr(owner, fname, wrapper)
        else:
            _rebind(fn, wrapper)
    for modname, name in LBFGS:
        mod = importlib.import_module(modname)
        if not hasattr(mod, "minimize"):
            missing.append(f"{modname}.minimize")
            continue
        mod.minimize = _counted_lbfgs(tr, mod.minimize, name)
    cli = importlib.import_module("liqdrop.cli")
    for key, handler in cli._HANDLERS.items():
        cli._HANDLERS[key] = _spanned(tr, handler, "cli.handler", None)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted((spans[j][1], spans[j][2]) for j in children[i]):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((t1 - t0) - covered)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass; a layer that did no work reads 0."""
    spans = tr.spans
    own = self_times(spans)
    calls = collections.Counter()
    self_s = collections.Counter()
    total_s = collections.Counter()
    for (name, t0, t1, _, _), s in zip(spans, own):
        for key in {name, name.split(".")[0]}:
            calls[key] += 1
            self_s[key] += s
            total_s[key] += t1 - t0
    traced = sum(own)  # every span's time once, across threads
    c = tr.counts
    mean = lambda name: _ratio(total_s[name], calls[name])
    pair_calls = c["ewald.pair_calls"]
    box_pts, tetra_pts = c["potentials.box.points"], c["potentials.tetra.points"]
    return {
        "ewald.calls": (calls["ewald"], "count", "lower"),
        "ewald.self_s": (self_s["ewald"], "s", "lower"),
        "ewald.share": (_ratio(self_s["ewald"], traced), "ratio", "lower"),
        "ewald.eval_ms": (
            1e3 * (mean("ewald.pair_energy") + mean("ewald.pair_gradient")), "ms", "lower"
        ),
        "ewald.image_terms": (_ratio(c["ewald.image_terms"], pair_calls), "count", "lower"),
        "ewald.kvecs": (_ratio(c["ewald.kvecs"], pair_calls), "count", "lower"),
        "ewald.disp_mb": (c["ewald.disp_bytes"] / 1e6, "MB-computed", "lower"),
        "jellium.minima": (calls["jellium.minimize"], "count", "lower"),
        "jellium.nfev_per_min": (
            _ratio(c["jellium.minimize.nfev"], calls["jellium.minimize"]), "count", "lower"
        ),
        "jellium.minimize.self_s": (self_s["jellium.minimize"], "s", "lower"),
        "jellium.basin_hop.self_s": (self_s["jellium.basin_hop"], "s", "lower"),
        "jellium.lbfgs.nfev": (c["jellium.lbfgs.nfev"], "count", "lower"),
        "jellium.lbfgs.converged_ratio": (
            _ratio(c["jellium.lbfgs.converged"], c["jellium.lbfgs.calls"]), "ratio", "higher"
        ),
        "jellium.gc.self_s": (self_s["jellium.gc"], "s", "lower"),
        "potentials.tetra.calls": (calls["potentials.tetra"], "count", "lower"),
        "potentials.tetra.points": (tetra_pts, "count", "lower"),
        "potentials.tetra.self_s": (self_s["potentials.tetra"], "s", "lower"),
        "potentials.tetra.share": (_ratio(self_s["potentials.tetra"], traced), "ratio", "lower"),
        "potentials.tetra.us_per_point": (
            1e6 * _ratio(self_s["potentials.tetra"], tetra_pts), "us", "lower"
        ),
        "potentials.box.points": (box_pts, "count", "lower"),
        "potentials.box.self_s": (self_s["potentials.box"], "s", "lower"),
        "potentials.box.us_per_point": (
            1e6 * _ratio(self_s["potentials.box"], box_pts), "us", "lower"
        ),
        "potentials.pair.calls": (calls["potentials.pair"], "count", "lower"),
        "potentials.pair.self_s": (self_s["potentials.pair"], "s", "lower"),
        "droplet.gc.self_s": (self_s["droplet.gc"], "s", "lower"),
        "droplet.lbfgs.nfev": (c["droplet.lbfgs.nfev"], "count", "lower"),
        "droplet.lbfgs.converged_ratio": (
            _ratio(c["droplet.lbfgs.converged"], c["droplet.lbfgs.calls"]), "ratio", "higher"
        ),
        "droplet.energy.self_s": (self_s["droplet.energy"], "s", "lower"),
        "expansion.mc.samples": (c["expansion.mc.samples"], "count", "lower"),
        "expansion.mc.samples_per_s": (
            _ratio(c["expansion.mc.samples"], self_s["expansion.mc"]), "1/s", "higher"
        ),
        "expansion.mc.self_s": (self_s["expansion.mc"], "s", "lower"),
        "expansion.sweep.self_s": (self_s["expansion.sweep"], "s", "lower"),
        "appendixlab.layer.build_s": (total_s["appendixlab.layer"], "s", "lower"),
        "appendixlab.layer.pieces": (c["appendixlab.layer.pieces"], "count", "lower"),
        "appendixlab.far_field.self_s": (self_s["appendixlab.far_field"], "s", "lower"),
        "grid.cells": (c["grid.cells"], "count", "lower"),
        "grid.self_s": (self_s["grid"], "s", "lower"),
        "zeta.calls": (calls["zeta"], "count", "lower"),
        "zeta.self_s": (self_s["zeta"], "s", "lower"),
        "serialize.self_s": (self_s["serialize"], "s", "lower"),
        "serialize.bytes": (c["serialize.bytes"], "bytes", "lower"),
        "cli.self_s": (self_s["cli"] - self_s["cli.handler"], "s", "lower"),
        "trace.spans": (len(spans), "count", "lower"),
        "trace.overhead": (_ratio(traced_wall, untraced_wall), "ratio", "lower"),
    }


def coverage(tr, workload):
    """Expected layers of ``workload`` that recorded no call."""
    seen = collections.Counter()
    for name, *_ in tr.spans:
        parts = name.split(".")
        for k in range(1, len(parts) + 1):
            seen[".".join(parts[:k])] += 1
    for key, value in tr.counts.items():
        if key.endswith(".calls") and value:
            seen[key[: -len(".calls")]] += value
    return [layer for layer in EXPECTED[workload] if not seen[layer]]


def ewald_sizes(tr):
    """Ewald pair-sum calls by particle count, for the run record."""
    return {k.split("=")[1]: v for k, v in tr.counts.items() if k.startswith("ewald.n=")}
