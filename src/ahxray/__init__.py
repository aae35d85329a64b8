"""Numerical laboratory for the non-abelian X-ray transform on AH surfaces.

The package computes scattering data of unitary connections and
skew-Hermitian Higgs fields along geodesics of the Poincare disk (and small
conformal perturbations), verifies the gauge equivalence of pairs producing
the same data together with the sphere-bundle energy identities behind it,
and reconstructs Higgs fields from scattering data by regularized
Gauss-Newton.
"""

__version__ = "0.1.0"

from .bundle import (ConnectionField, GaugeField, GaussBump, HiggsFieldData,
                     SeparableTerm, ckt_condition_check, curvature_at,
                     curvature_operator, endomorphism_lift, gauge_transform,
                     sup_curvature_norm)
from .config import ExperimentConfig
from .geometry import (AHModel, BoundaryDatum, ConformalBump, DiskGeodesic,
                       Direction, GeodesicPath, IntegratorConfig, ModelKind,
                       PhasePoint, geodesic_between_boundary_angles,
                       integrate_geodesic, metric_at, rho_at,
                       sectional_curvature, shoot_from_boundary)
from .reconstruct import (HiggsParameterization, ReconstructionConfig,
                          ReconstructionReport, forward_map, jacobian_fd,
                          reconstruct_higgs)
from .spherebundle import (NSectionField, SectionField, SphereBundleGrid,
                           apply_X, commutator_residuals, curvature_F,
                           curvature_R, curvature_term_sign_check, degree,
                           fourier_modes, horizontal_derivative,
                           horizontal_divergence, inner, lift_from_base,
                           mode_energies, pestov_residual,
                           vertical_derivative, vertical_divergence,
                           vertical_laplacian, x_split)
from .transport import (TransportConfig, TransportResult, batch_transport,
                        parallel_transport, scattering_matrix,
                        solve_transport)
from .xray import (FanMode, FanSpec, ScatteringDataset, ScatteringRecord,
                   add_matrix_noise, compare_datasets,
                   compute_scattering_data, gauge_candidate,
                   gauge_degree_zero_check, gauge_field_samples)
