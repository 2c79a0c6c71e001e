"""Reference values every benchmark operation is checked against.

Each constant names its source: the paper (PAPER.md), or the acceptance test
in ``tests/test_acceptance.py`` that fixes the same number and tolerance.
"""

import math

# zeta_bcc(1), the per-particle energy of the bcc Wigner crystal at unit
# density.  Paper: -1.44423; full digits from ZETA_BCC_REFERENCE in
# test_acceptance_1 / test_acceptance_3.
ZETA_BCC_1 = -1.4442307515269701

# acceptance 4: the best per-particle energy of a random-start search at
# n = 16 lies in [-1.4508 - 1e-3, -1.4430].
CRYSTAL_BRACKET = (-1.4508 - 1e-3, -1.4430)

# paper: the linear coefficient of the dilute expansion is the optimal
# droplet energy per volume 9 (pi/15)^(1/3); acceptance 5 allows 0.5 %.
C1 = 9.0 * (math.pi / 15.0) ** (1.0 / 3.0)
C1_RTOL = 5e-3

# paper: the rho^(4/3) coefficient c2 ~ -2.660; acceptance 5 allows 10 %.
C2 = -2.660
C2_RTOL = 0.1

# acceptance 2: ball-droplet closed forms, radius (15/(8 pi))^(1/3),
# energy per volume C1 and mass 5/2, to 1e-10.
DROPLET_RADIUS = (15.0 / (8.0 * math.pi)) ** (1.0 / 3.0)
DROPLET_MASS = 2.5
DROPLET_ATOL = 1e-10

# Madelung constant of the simple cubic lattice for the zero-mean periodic
# kernel, MADELUNG_Z3 in tests/test_coulomb.py and tests/test_cli.py.
MADELUNG_Z3 = -2.837297479480619
MADELUNG_ATOL = 1e-12

# acceptance 7: boundary screening layer invariants at eps = 0.25.
LAYER_MAX_CHARGE = 1e-15
LAYER_MAX_DIPOLE_OVER_EPS4 = 1e-12
LAYER_MAX_PERIMETER_CONSTANT = 10.0
LAYER_DECAY = (2.7, 3.3)

# acceptance 8: the first generation of the nested packing has 729 balls.
CHEESE_FIRST_COUNT = 729

# voxel liquid-drop energy against the exact ball-union breakdown at
# h = 0.05: relative agreement within 1 %.
VOXEL_RTOL = 1e-2
