"""Two-term expansion of the droplet energy at low background density.

At low density rho the optimal energy per volume behaves like
c1 * rho + c2 * rho^(4/3): the droplets themselves contribute the optimal
per-volume constant, and their crystalline arrangement contributes a
negative correction at the next order.  We build periodic trial states from
an optimized unit cell, sweep a geometric density grid, and read off both
coefficients by polynomial fitting in rho^(1/3).
"""

import numpy as np

from liqdrop.expansion import expansion_sweep, extract_coefficients

MU_STAR = 9.0 * (np.pi / 15.0) ** (1.0 / 3.0)
RESIDUAL_REFERENCE = -2.6602957899652124  # (5/2)^(2/3) * bcc lattice sum


def main() -> None:
    rhos = (1e-3, 3e-4, 1e-4, 3e-5)
    # 16 droplets per cell keeps this demo fast; the acceptance run uses 54
    pp, _ = expansion_sweep(rhos, n=16, seed=0, restarts=2, hops=1, threads=4)

    print("Upper-bound energy per volume:")
    print("  rho         e(rho)          e/rho      residual after c1*rho")
    for rho, rep in zip(rhos, pp):
        resid = (rep.upper_bound - MU_STAR * rho) / rho ** (4.0 / 3.0)
        print(f"  {rho:7.1e}  {rep.upper_bound:+.6e}  {rep.upper_bound / rho:8.5f}"
              f"   {resid:+9.5f}")

    c1, c2, resid = extract_coefficients(rhos, pp)
    print("\nFitted coefficients:")
    print(f"  c1 = {c1:.10f}   target {MU_STAR:.10f} "
          f"(rel err {abs(c1 - MU_STAR) / MU_STAR:.1e})")
    print(f"  c2 = {c2:.6f}   crystal reference {RESIDUAL_REFERENCE:.6f}")
    print(f"  max fit residual {resid:.2e}")


if __name__ == "__main__":
    main()
