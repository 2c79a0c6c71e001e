"""Neutralizing a domain boundary with charge- and dipole-free tiles.

Near the boundary of a charged domain the background cannot be paired with
interior droplets, so we tile a thin shell with small pieces, each carrying
a cube of compensating charge sized so the piece is exactly neutral and has
zero dipole moment.  The leftover quadrupole makes each piece's potential
fall off like 1/r^3 instead of 1/r, which is what makes the shell's total
interaction summable.  This demo builds such a layer, prints its summary
statistics, and measures the decay directly.
"""

import numpy as np

from liqdrop.appendixlab import far_field_exponent, piece_potential, quadrupole_layer
from liqdrop.geom import Ball


def main() -> None:
    eps = 0.25
    layer = quadrupole_layer(Ball(radius=2.0, center=(0.0, 0.0, 0.0)),
                             eps=eps, subdiv=4, rho=0.3)
    counts = layer.counts()
    print(f"Boundary layer for a ball of radius 2, tile size {eps}:")
    print(f"  pieces: {counts}")
    print(f"  shell volume {layer.shell_volume():.4f}, "
          f"piece volume total {layer.total_volume():.4f}")
    print(f"  max |charge|    {np.abs(layer.charges()).max():.2e}  (exact neutrality)")
    print(f"  max |dipole|    {np.abs(layer.dipoles()).max():.2e}")
    print(f"  min containment margin {layer.containment_margins().min():.2e}")
    print(f"  perimeter constant {layer.perimeter_constant():.3f} "
          "(inner surface area vs rho^(2/3) eps^2 scaling)")
    print(f"  piece count constant {layer.piece_count_constant():.3f}")

    merged = np.flatnonzero(layer.kind_masks()["merged"])
    print("\nMeasured far-field decay |potential| ~ r^(-p):")
    for i in merged[:3]:
        p = far_field_exponent(layer[int(i)])
        print(f"  merged piece {int(i):4d}: p = {p:.3f}  (target 3)")

    piece = layer[int(merged[0])]
    print("\nPotential of one neutral piece vs a bare charge of the same size:")
    center = piece.box_lo.mean(axis=0)
    for rfac in (4.0, 8.0, 16.0):
        x = center + np.array([[rfac * eps, 0.0, 0.0]])
        v = abs(piece_potential(piece, x)[0])
        bare = piece.inner_side ** 3 / (rfac * eps)
        print(f"  r = {rfac:4.1f} eps: |neutral piece| {v:.2e}   "
              f"bare charge {bare:.2e}   screening factor {bare / v:8.1f}")


if __name__ == "__main__":
    main()
