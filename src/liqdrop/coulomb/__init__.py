"""Coulomb layer: periodic kernels, lattice zeta functions, potentials, grids."""

from liqdrop.coulomb.ewald import PeriodicKernel, madelung_z3
from liqdrop.coulomb.zeta import (
    ZetaValue,
    completed_zeta,
    epstein_zeta,
    epstein_zeta_direct,
    upper_gamma,
)
from liqdrop.coulomb.potentials import (
    domain_field,
    domain_pair_coulomb,
    potential_ball,
    potential_box,
    potential_cube,
    potential_tetra,
    tetra_field,
)
from liqdrop.coulomb.grid import CUBE_SELF_INTEGRAL

__all__ = [
    "PeriodicKernel",
    "madelung_z3",
    "ZetaValue",
    "epstein_zeta",
    "epstein_zeta_direct",
    "completed_zeta",
    "upper_gamma",
    "potential_ball",
    "potential_box",
    "potential_cube",
    "potential_tetra",
    "tetra_field",
    "domain_field",
    "domain_pair_coulomb",
    "CUBE_SELF_INTEGRAL",
]
