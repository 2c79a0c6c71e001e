"""Optimal droplet: surface tension versus Coulomb self-repulsion.

A single ball of unit charge density pays perimeter (surface tension) plus
its own Coulomb energy.  Per unit volume that is 3/R + (4 pi / 5) R^2, so a
unique best radius exists, with closed forms for it, its energy per volume
and its mass.  We print them, scan the energy curve, and evaluate the full
energy breakdown of a droplet sitting in a finite neutralizing container.
"""

import numpy as np

from liqdrop.droplet import (
    ball_energy_per_volume,
    ball_optimum,
    liquid_drop_energy,
    mass_bound_check,
)
from liqdrop.geom import Ball, BallUnion


def main() -> None:
    opt = ball_optimum()
    print("Best single-ball droplet:")
    print(f"  radius            {opt.best_radius:.12f}  = (15/(8 pi))^(1/3)")
    print(f"  energy per volume {opt.best_energy_per_volume:.12f}  = 9 (pi/15)^(1/3)")
    print(f"  mass              {opt.best_mass:.12f}  = 5/2")

    print("\nEnergy-per-volume curve (minimum sits between the two regimes):")
    for r in (0.3, 0.6, opt.best_radius, 1.2, 1.8):
        e = ball_energy_per_volume(r)
        tag = "  <-- optimum" if abs(r - opt.best_radius) < 1e-12 else ""
        print(f"  R = {r:6.4f}   e = {e:10.6f}{tag}")

    print("\nDroplet in a finite container (ball of radius 4, background 0.02):")
    omega = BallUnion(centers=np.array([[0.5, -0.3, 0.2]]),
                      radii=np.array([opt.best_radius]))
    br = liquid_drop_energy(omega, Ball(radius=4.0, center=(0.0, 0.0, 0.0)),
                            rho=0.02)
    print(f"  perimeter             {br.perimeter:+.6f}")
    print(f"  droplet-droplet       {br.droplet_droplet:+.6f}")
    print(f"  droplet-background    {br.droplet_background:+.6f}")
    print(f"  background-background {br.background_background:+.6f}")
    print(f"  total                 {br.total:+.6f}")
    print(f"  neutrality defect     {br.neutrality_defect:+.6f} "
          "(droplet volume minus background charge)")

    print("\nMass bound for a near-optimal droplet:")
    lam = Ball(radius=4.0, center=(0.0, 0.0, 0.0))
    rep = mass_bound_check(omega, lam, rho=0.02)
    print(f"  droplet volume {rep.droplet_volume:.4f} vs bound {rep.bound:.4f} "
          f"-> passed = {rep.passed}")
    big = BallUnion(centers=np.zeros((1, 3)), radii=np.array([3.0]))
    rep2 = mass_bound_check(big, lam, rho=0.02)
    print(f"  oversized ball: hypothesis met = {rep2.hypothesis_met}, "
          f"note: {rep2.note}")


if __name__ == "__main__":
    main()
