"""liqdrop: sharp interface droplets and point charges on uniform backgrounds.

Desk-scale numerics for the liquid drop model with a neutralizing background
and for the classical one-component plasma: periodic lattice sums, droplet
energies, trial-state upper bounds for the dilute energy expansion, and the
localization/boundary-layer constructions that back the lower bounds.

Importing the package pins the OpenBLAS copies bundled with numpy and scipy
to one thread, for the whole process: every BLAS call here is a small gemv
or gemm, and a second BLAS thread only spins.  Parallel work goes through
the ``threads`` argument of ``jellium.basin_hop`` instead.
"""

__version__ = "0.1.0"

from liqdrop import (  # noqa: F401
    appendixlab,
    coulomb,
    droplet,
    expansion,
    geom,
    jellium,
    serialize,
)
from liqdrop._blas import pin_one_thread

# after the submodules: scipy's OpenBLAS loads only with scipy.optimize
pin_one_thread()
