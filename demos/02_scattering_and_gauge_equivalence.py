"""Scattering data of a bundle pair and the gauge equivalence closed loop.

Builds a rank-2 unitary connection and skew-Hermitian Higgs field with
prescribed boundary decay, computes their scattering dataset over a fan of
geodesics, gauge-transforms the pair by Q = exp(rho^4 S(x)), and shows that

- both pairs generate the same dataset up to the truncation level,
- the quotient W_A W_B^{-1} of the two pairs' fundamental transport
  solutions recovers Q pointwise along geodesics,
- the recovered gauge has fiber degree zero across crossing families.

Run:  python3 demos/02_scattering_and_gauge_equivalence.py
"""

import numpy as np

from ahxray import (AHModel, ConnectionField, DiskGeodesic, FanSpec,
                    GaugeField, GaussBump, HiggsFieldData, SeparableTerm,
                    TransportConfig, compare_datasets,
                    compute_scattering_data, gauge_candidate,
                    gauge_degree_zero_check, gauge_transform)

disk = AHModel()
SIGMA_Z = np.array([[1j, 0], [0, -1j]])
ROT = np.array([[0, 1], [-1, 0]], dtype=complex)

conn = ConnectionField.from_terms(2, [
    SeparableTerm(0, 0.4 * SIGMA_Z, GaussBump((0.2, 0.1), 0.3)),
    SeparableTerm(1, 0.3 * ROT, GaussBump((-0.2, 0.0), 0.35)),
], decay_N=3)
higgs = HiggsFieldData.from_terms(2, [
    (0.5 * SIGMA_Z, GaussBump((0.1, -0.1), 0.3)),
    (0.4 * ROT, GaussBump((-0.1, 0.2), 0.3)),
], decay_N1=4)
gauge = GaugeField(2, [(0.5 * (SIGMA_Z + 0.7 * ROT),
                        GaussBump((0.1, -0.2), 0.4))], decay_M=4)
conn2, higgs2 = gauge_transform(conn, higgs, gauge)

# --- the two pairs are indistinguishable from their data -----------------
fan = FanSpec.uniform_pairs(100, n_openings=10)
cfg = TransportConfig(rho_cut=1e-6)
ds1 = compute_scattering_data(disk, conn, higgs, fan, cfg)
ds2 = compute_scattering_data(disk, conn2, higgs2, fan, cfg)
report = compare_datasets(ds1, ds2)
print(f"max dataset distance of the gauge pair: {report.max_frobenius:.2e}")
print(f"worst unitarity defect of a record:     "
      f"{max(r.unitarity_defect for r in ds1.records):.2e}")

# ... while a genuinely different Higgs field is visible
other = HiggsFieldData.from_terms(2, [(0.5 * ROT, GaussBump((0.0, 0.0),
                                                            0.3))], 4)
ds3 = compute_scattering_data(disk, conn, other, fan, cfg)
print(f"distance to an unrelated Higgs field:   "
      f"{compare_datasets(ds1, ds3).max_frobenius:.2e}")

# --- recovering the gauge from the two transport solutions ---------------
path = DiskGeodesic.between_boundary_angles(disk, 1.2, 4.0).sample()
curve = gauge_candidate(disk, (conn, higgs), (conn2, higgs2), path,
                        np.linspace(-4, 4, 17))
err = np.max(np.abs(curve.q - gauge.q(curve.x)))
print(f"|W_A W_B^-1 - Q*| along a geodesic:    {err:.2e}")

# --- degree-zero verdict over a crossing family ---------------------------
curves = []
times = np.linspace(-3.0, 3.0, 161)
for center in [(-0.3, 0.0), (0.0, 0.2), (0.25, -0.15)]:
    for k in range(4):
        geo = DiskGeodesic.through(disk, center, np.pi * k / 4 + 0.05)
        curves.append(gauge_candidate(disk, (conn, higgs), (conn2, higgs2),
                                      geo.sample(), times))
verdict = gauge_degree_zero_check(curves, (conn, higgs), (conn2, higgs2))
print(f"fiber-angle variation of Q per cell:    "
      f"{verdict.max_theta_variation:.2e} over {verdict.cells_checked} "
      "crossing cells")
print(f"zeroth/first mode relation residuals:   "
      f"{verdict.mode0_residual:.2e}, {verdict.mode1_residual:.2e}")
print(f"degree-zero verdict: {verdict.degree_zero}")
