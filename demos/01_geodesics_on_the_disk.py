"""Geodesics of the Poincare disk and of a conformally perturbed metric.

Walks through the geometry layer: closed-form geodesics via Mobius maps,
the geodesic through an interior phase point, rays shot from boundary data
across a conformal bump, and the exponential approach of the boundary
defining function along escaping rays.

Run:  python3 demos/01_geodesics_on_the_disk.py
"""

import numpy as np

from ahxray import (AHModel, BoundaryDatum, ConformalBump, DiskGeodesic,
                    Direction, ModelKind, PhasePoint, integrate_geodesic,
                    sectional_curvature, shoot_from_boundary)

disk = AHModel()

# --- a radial geodesic has the closed form x(t) = (tanh(t/2), 0) ---------
path = integrate_geodesic(disk, PhasePoint(disk, (0.0, 0.0), (0.5, 0.0)))
sel = np.abs(path.t) <= 6.0
err = np.max(np.abs(path.x[sel, 0] - np.tanh(path.t[sel] / 2.0)))
print(f"radial geodesic vs tanh(t/2):   sup error {err:.2e}")
print(f"unit-speed drift along the path: {path.unit_speed_defect():.2e}")

# --- rho decays like exp(-t) along every escaping ray --------------------
tail = path.t > 6.0
slope = np.polyfit(path.t[tail], np.log(disk.rho(path.x[tail])), 1)[0]
print(f"log-slope of rho along the exit: {slope:+.4f}  (expect -1)")

# --- closed-form chord between boundary angles ---------------------------
geo = DiskGeodesic.between_boundary_angles(disk, np.pi / 2, 0.0)
mid = geo.position(np.zeros(()))
print(f"chord pi/2 -> 0 passes closest to the origin at {mid}, "
      f"on the circle centered (1,1):"
      f" {np.hypot(mid[0] - 1, mid[1] - 1):.6f} (radius 1)")

# --- shooting from an incoming boundary datum ----------------------------
datum = BoundaryDatum(alpha=0.5, eta_tangential=0.8,
                      direction=Direction.INCOMING)
shot = shoot_from_boundary(disk, datum, rho_start=1e-6)
entry, exit_ = DiskGeodesic.between_boundary_angles(
    disk, shot.entry.alpha, shot.exit.alpha).boundary_data()
print(f"shot geodesic exits at alpha = {shot.exit.alpha:.6f}, chord "
      f"reconstruction agrees to {abs(exit_.alpha - shot.exit.alpha):.1e}")

# --- a conformal bump keeps curvature negative and nothing gets trapped --
bumped = AHModel(ModelKind.CONFORMAL_PERTURBED,
                 bump=ConformalBump(center=(0.25, -0.1), radius=0.3,
                                    amplitude=0.04))
ks = [sectional_curvature(bumped, (0.25 + dx, -0.1)) for dx in
      (-0.2, 0.0, 0.2)]
print("curvature across the bump:      "
      + ", ".join(f"{k:.4f}" for k in ks))
probe = [shoot_from_boundary(bumped, BoundaryDatum(a, e, Direction.INCOMING),
                             1e-6)
         for a in np.linspace(0, 2 * np.pi, 10, endpoint=False)
         for e in (-1.0, 0.0, 1.0)]
print(f"{len(probe)} geodesics shot through the perturbed metric, "
      "all escaped to the boundary")
