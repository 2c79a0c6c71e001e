"""Print a SHA-256 digest of every output file of a fixed set of CLI runs.

Run it from a source checkout, with that checkout's ``src`` on the path:

    PYTHONPATH=src python tests/cli_digests.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/cli_digests.py > before.txt
    diff before.txt after.txt

Every subcommand runs in-process at small, fixed-seed settings, each into its
own directory under a temporary one.  The listing has one line with the exit
code of each run and one line per ``.csv``/``.json``/``.dat`` file it wrote,
so an empty ``diff`` means two checkouts write the same bytes.  The
``jellium-gc-n10`` run reaches counts of 10 and more: the JSON writes its
integer count keys as strings sorted as text ("10", "11", "9"), an order that
an encoder sorting the integers first would change, and no other run has a
count above 9.  Two more
lines digest the ``repr`` of every field of the ``checks`` workload's voxel
liquid-drop breakdown at seed 0, a library call with no CLI command, and of
the same breakdown at rho = 0, which transforms the droplet field alone.  The
next line digests the ``repr`` of ``tetra_field`` on the ``simplex``
workload's body at five fixed points, so a rewrite of that kernel shows even
where L-BFGS would land on the same bytes.  The next line digests the
``repr`` of ``domain_pair_coulomb`` on the pairs that programs pass (the
cube containers of sides 6 and 8, the ``simplex`` body and the unit ball,
each with itself) and on one disjoint ball pair, so a rewrite of its
dispatch shows even where the CLI output rounds to the same bytes.  The
next line digests ``grand_canonical_F`` (the ``repr`` of ``value``,
``values_by_count`` and ``status_by_count`` and the bytes of ``radii``) in
the demo's ball of radius 2 and in a cube of side 6, so its ball-container
branch, which no CLI run takes, shows too.  The last line digests
``PeriodicKernel.energy_and_gradient`` (the energy's ``repr`` and the
gradient's bytes) on seeded configurations at n = 2, 16, 54 and 128, and on
eight points whose displacements have components of exactly 0 and +-ell/2,
each at the default alpha and at pi / ell^2, so a change to the kernel's
arithmetic shows even where L-BFGS would land on the same bytes.
This is a script, not a pytest module; the whole listing takes about half a
minute on a 2-core box.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from liqdrop.cli import main
from liqdrop.coulomb import PeriodicKernel, domain_pair_coulomb, tetra_field
from liqdrop.droplet import grand_canonical_F, liquid_drop_energy
from liqdrop.geom import (
    Ball,
    BallUnion,
    Cube,
    Tetrahedron,
    regular_tetrahedron,
    voxelize,
    voxelize_domain,
)

RUNS = (
    ("zeta", ["zeta", "--s", "0.5,1,2.5,5"]),
    ("madelung", ["madelung"]),
    ("jellium-opt", ["jellium-opt", "--n", "8", "--restarts", "2", "--hops", "1",
                     "--seed", "5"]),
    # the benchmark's crystal workload at seed 0: small Ewald calls
    ("crystal", ["jellium-opt", "--n", "16", "--restarts", "1", "--hops", "2",
                 "--threads", "1", "--seed", "0"]),
    # the dilute workload's CLI command: restarts on the thread pool
    ("dilute", ["expansion", "--n", "54", "--restarts", "0", "--hops", "0",
                "--rho", "1e-3,3e-4,1e-4,3e-5", "--threads", "2"]),
    # two restarts at n = 64 side by side on two threads
    ("jellium-opt-n64", ["jellium-opt", "--n", "64", "--restarts", "2", "--hops", "0",
                         "--threads", "2", "--seed", "0"]),
    ("jellium-gc", ["jellium-gc", "--a", "2.2246", "--window", "4,5", "--starts", "2"]),
    # the benchmark's simplex workload at seed 0
    ("simplex", ["jellium-gc", "--a", "2.2246", "--window", "4,7", "--starts", "10"]),
    # counts of 10 and more, whose JSON keys sort as text ("10" before "9")
    ("jellium-gc-n10", ["jellium-gc", "--a", "3", "--window", "9,11", "--starts", "1"]),
    ("droplet", ["droplet", "--rho", "0.05"]),
    ("fgc", ["fgc", "--rho", "0.0,0.01,0.02", "--kmax", "2", "--starts", "2"]),
    ("expansion", ["expansion", "--rho", "1e-3,3e-4,1e-4,3e-5", "--n", "4",
                   "--restarts", "1", "--hops", "1"]),
    ("gs-check", ["gs-check", "--samples", "20000", "--pair-samples", "4000",
                  "--configs", "2"]),
    ("cheese", ["cheese", "--k", "4"]),
    ("quadlayer-ball", ["quadlayer", "--rho", "0.5", "--probes", "2"]),
    ("quadlayer-ball-light", ["quadlayer", "--rho", "0.1", "--probes", "1"]),
    ("quadlayer-cube", ["quadlayer", "--cube-side", "4", "--eps", "0.25",
                        "--subdiv", "4", "--rho", "0.3", "--probes", "1"]),
    # a non-dyadic tile size, where the host order rests on exact integer
    # box distances, not on float ones
    ("quadlayer-cube-nondyadic", ["quadlayer", "--cube-side", "1.6", "--eps", "0.1",
                                  "--subdiv", "5", "--rho", "0.45", "--probes", "1"]),
    # the benchmark's checks workload at seed 0: its CLI commands that no run
    # above repeats (its zeta and madelung commands are the ones above)
    ("checks-gs-check", ["gs-check", "--samples", "1000000", "--configs", "6",
                         "--seed", "0"]),
    ("checks-quadlayer@0.1", ["quadlayer", "--rho", "0.1", "--seed", "0"]),
    ("checks-quadlayer@0.3", ["quadlayer", "--rho", "0.3", "--seed", "0"]),
    ("checks-quadlayer@0.5", ["quadlayer", "--rho", "0.5", "--seed", "0"]),
    ("checks-fgc", ["fgc", "--rho", "0.0,0.01,0.02", "--seed", "0"]),
    ("checks-droplet", ["droplet", "--seed", "0"]),
    ("checks-cheese", ["cheese", "--k", "12", "--seed", "0"]),
)

DIGESTED = (".csv", ".json", ".dat")


def voxel_digest(rho: float) -> str:
    """Digest of the benchmark's voxel-energy breakdown at seed 0: two seeded
    balls in Cube(side=6.4) on the FFT grid, h = 0.05, at density ``rho``."""
    rng = np.random.default_rng(0)
    radii = rng.uniform(0.8, 1.2, 2)
    centers = np.array([[-1.4, 0.0, 0.0], [1.4, 0.0, 0.0]])
    centers += rng.uniform(-0.2, 0.2, centers.shape)
    h = 0.05
    rep = liquid_drop_energy(voxelize(BallUnion(centers=centers, radii=radii), h),
                             voxelize_domain(Cube(side=6.4), h), rho)
    text = repr(sorted(vars(rep).items()))
    return hashlib.sha256(text.encode()).hexdigest()


def tetra_digest() -> str:
    """Digest of ``tetra_field`` on the ``simplex`` body, the unit-volume
    regular tetrahedron scaled by 2.2246, at points inside, outside, on a
    face, on an edge and at a vertex."""
    verts = regular_tetrahedron(1.0).vertices * 2.2246
    center = verts.mean(axis=0)
    pts = np.array([
        center + [0.1, -0.2, 0.3],
        center + [2.5, 1.0, -3.0],
        (verts[0] + verts[1] + verts[2]) / 3.0,
        0.5 * (verts[0] + verts[3]),
        verts[2],
    ])
    phi, grad = tetra_field(verts, pts)
    text = repr((phi.tolist(), grad.tolist()))
    return hashlib.sha256(text.encode()).hexdigest()


def pair_digest() -> str:
    """Digest of ``domain_pair_coulomb`` (value and error) on the program
    pairs and one disjoint ball pair."""
    origin = (0.0, 0.0, 0.0)
    body = Tetrahedron(vertices=regular_tetrahedron(1.0).vertices * 2.2246)
    pairs = [(d, d) for d in (Cube(side=6.0, center=origin),
                              Cube(side=8.0, center=origin),
                              body,
                              Ball(radius=1.0, center=origin))]
    pairs.append((Ball(radius=0.5, center=origin), Ball(radius=0.7, center=(3.0, 0.0, 0.0))))
    text = repr([domain_pair_coulomb(d1, d2) for d1, d2 in pairs])
    return hashlib.sha256(text.encode()).hexdigest()


def gc_digest() -> str:
    """Digest of ``grand_canonical_F`` at rho = 0.05, kmax = 2, seed 0 and two
    starts, in Ball(radius=2.0) and in Cube(side=6.0)."""
    digest = hashlib.sha256()
    for lam in (Ball(radius=2.0), Cube(side=6.0)):
        rep = grand_canonical_F(lam, 0.05, kmax=2, seed=0, starts=2)
        digest.update(repr((rep.value, rep.values_by_count, rep.status_by_count)).encode())
        digest.update(rep.radii.tobytes())
    return digest.hexdigest()


def ewald_digest() -> str:
    """Digest of ``energy_and_gradient`` on uniform seeded points in the
    unit-density cell, for n = 2, 16, 54 and 128, and on eight points of the
    ell / 4 grid in a cell of side 2, some moved by whole cells, whose
    displacements have components of exactly 0 and +-ell/2; both alphas."""
    grid = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 2], [2, 2, 2],
                     [1, 0, 3], [3, 1, 0], [0, 3, 1], [1, 1, 2]]) * 0.5
    cells = np.array([[0, 0, 0], [3, 0, 0], [-3, 1, 0], [0, 0, -2],
                      [1, -3, 3], [0, 2, 0], [-1, -1, 3], [2, 0, -3]]) * 2.0
    configs = []
    for n in (2, 16, 54, 128):
        ell = n ** (1.0 / 3.0)
        configs.append((ell, np.random.default_rng(n).random((n, 3)) * ell))
    configs.append((2.0, grid + cells))
    digest = hashlib.sha256()
    for ell, pos in configs:
        for alpha in (None, np.pi / ell**2):
            energy, grad = PeriodicKernel(ell, alpha=alpha).energy_and_gradient(pos)
            digest.update(repr(energy).encode())
            digest.update(grad.tobytes())
    return digest.hexdigest()


def main_listing() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in RUNS:
            outdir = os.path.join(tmp, label)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", outdir])
            failed += code != 0
            print(f"exit {code}  {label}")
            names = sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []
            for name in names:
                if name.endswith(DIGESTED):
                    with open(os.path.join(outdir, name), "rb") as fp:
                        digest = hashlib.sha256(fp.read()).hexdigest()
                    print(f"{digest}  {label}/{name}")
            sys.stdout.flush()
    print(f"{voxel_digest(0.05)}  checks-voxel-energy/breakdown")
    print(f"{voxel_digest(0.0)}  voxel-energy@rho=0/breakdown")
    print(f"{tetra_digest()}  simplex-body/tetra_field")
    print(f"{pair_digest()}  pair-integrals")
    print(f"{gc_digest()}  grand-canonical-F")
    print(f"{ewald_digest()}  ewald")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_listing())
