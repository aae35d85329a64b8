"""The benchmark tracer's hooks and workloads still fit the library.

``bench/spans.py`` wraps public ahxray names where their callers look them
up; a rename in the library would break ``bench/run.py --trace 1`` without
failing any library test.  These tests install the tracer, run a toy
reconstruction, toy datasets and toy Pestov checks under it, and check the
counters and the uninstall; the toy ``pestov_grid`` workload of ``bench/workloads.py``
runs its set-up, solve and acceptance gates.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402

import ahxray.config as config  # noqa: E402
import ahxray.reconstruct as reconstruct  # noqa: E402
import ahxray.spherebundle as spherebundle  # noqa: E402
import ahxray.transport as transport  # noqa: E402
import ahxray.xray as xray  # noqa: E402
from ahxray.bundle import ConnectionField  # noqa: E402
from ahxray.geometry import AHModel, DiskGeodesic  # noqa: E402
from ahxray.reconstruct import ReconstructionConfig  # noqa: E402
from ahxray.transport import TransportConfig  # noqa: E402
from ahxray.xray import FanSpec, ScatteringDataset  # noqa: E402
from test_bundle import random_connection, random_higgs  # noqa: E402
from test_reconstruct import su2_basis  # noqa: E402


def test_tracer_counts_forward_solves_and_uninstalls():
    model = AHModel()
    conn = ConnectionField.zero(2)
    params = su2_basis(count=2)
    fan = FanSpec.uniform_pairs(4, n_openings=2)
    cfg = ReconstructionConfig(max_iter=2,
                               transport=TransportConfig(n_steps=32))
    truth = np.array([0.5, -0.3])
    data = reconstruct.forward_map(model, conn, params.with_coeffs(truth),
                                   fan, cfg)

    owners = (config, reconstruct, spherebundle, xray,
              config.ExperimentConfig, DiskGeodesic, ScatteringDataset)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    patched = {(owner, attr) for owner, attr, _ in tracer._patches}
    try:
        tracer.group = "solve"
        report = reconstruct.reconstruct_higgs(data, model, conn, params,
                                               fan, cfg)
    finally:
        tracer.uninstall()

    counts = tracer.counts["solve"]
    assert counts["reconstruct.gn_iterations"] == report.iterations >= 1
    assert counts["transport.batch_calls"] > 0
    # every transport run of the loop, forward solve or tangent sweep,
    # goes through reconstruct's binding, which the tracer counts as a
    # forward solve
    assert counts["reconstruct.forward_solves"] \
        == counts["transport.batch_calls"]
    # the initial residual, then per iteration one tangent-linear sweep
    # for the Jacobian and one trial step (this toy accepts every full
    # Gauss-Newton step, so no backtracking)
    assert len(report.residual_history) == report.iterations + 1
    assert counts["reconstruct.forward_solves"] \
        == 1 + 2 * report.iterations
    # the segmented march: n steps as m segments of n/m steps each
    n, width = cfg.transport.n_steps, len(fan)
    m = transport._segments(n, width)
    calls = counts["transport.batch_calls"]
    assert counts["transport.rk_stages"] == 4 * (n // m) * calls
    assert counts["bundle.field_calls"] == (2 * (n // m) + 1) * calls
    assert counts["bundle.field_nodes"] == (2 * n + m) * width * calls

    assert {owner for owner, _ in patched} <= set(owners)
    assert {attr for owner, attr in patched if owner is reconstruct} >= {
        "batch_transport", "compute_scattering_data", "forward_map",
        "reconstruct_higgs"}
    assert {attr for owner, attr in patched if owner is xray} >= {
        "batch_transport", "compute_scattering_data", "scattering_matrix",
        "shoot_from_boundary", "gauge_candidate", "gauge_degree_zero_check"}
    for owner, snapshot in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == snapshot.keys()
        for name, value in snapshot.items():
            assert after[name] is value, f"{owner!r}.{name} not restored"


@pytest.mark.parametrize("shooting", [False, True])
def test_tracer_counts_dataset_transport(perturbed, shooting):
    # a dataset is one transport call through xray's binding, whose field
    # evaluations the tracer sees: a boundary-pair fan on the disk and a
    # shooting fan on the perturbed model, some of whose rays cross the bump
    model = perturbed if shooting else AHModel()
    fan = FanSpec.uniform_shooting(10) if shooting \
        else FanSpec.uniform_pairs(6, n_openings=3)
    rng = np.random.default_rng(5)
    conn, higgs = random_connection(rng), random_higgs(rng)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.group = "solve"
        data = xray.compute_scattering_data(model, conn, higgs, fan,
                                            TransportConfig(n_steps=64))
    finally:
        tracer.uninstall()

    counts = tracer.counts["solve"]
    assert counts["xray.records"] == len(data.records) == len(fan)
    assert counts["transport.batch_calls"] == 1
    assert counts["bundle.field_calls"] > 0
    if shooting:
        assert counts["geometry.rays_shot"] == len(fan)


def _trace_pestov(u):
    """Run pestov_residual on u under the tracer and check its spans,
    counters and uninstall."""
    from test_bundle import random_connection

    conn = random_connection(np.random.default_rng(3), scale=0.3)
    before = dict(vars(spherebundle))
    tracer = spans.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        tracer.group = "solve"
        report = spherebundle.pestov_residual(u, conn)
    finally:
        tracer.uninstall()

    assert report.lhs > 0.0
    names = [rec[1] for rec in tracer.spans]
    assert names.count("spherebundle.pestov") == 1
    assert names.count("spherebundle.apply_X") == 2
    for name in ("spherebundle.vertical", "spherebundle.inner",
                 "spherebundle.curvature"):
        assert name in names, name
    assert tracer.counts["solve"]["spherebundle.bytes_computed"] > 0
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr}"
    after = dict(vars(spherebundle))
    assert after.keys() == before.keys()
    for name, value in before.items():
        assert after[name] is value, f"spherebundle.{name} not restored"


def test_tracer_records_sphere_bundle_operators_and_uninstalls():
    # the pestov_grid workload calls pestov_residual, whose operators the
    # tracer wraps as module globals of ahxray.spherebundle; here on a
    # full-band section from theta samples
    from test_spherebundle import bump_section

    grid = spherebundle.SphereBundleGrid(AHModel(), nx=24, n_theta=16)
    _trace_pestov(bump_section(grid, m=1, d=2, vec=[0.8, 0.6j], radius=0.5))


def test_tracer_records_narrow_band_config_section():
    # the section the pestov_grid workload traces: the band {1} that
    # ExperimentConfig.build_section makes
    grid = spherebundle.SphereBundleGrid(AHModel(), nx=24, n_theta=16)
    cfg = config.ExperimentConfig.from_text(
        "[experiment]\nseed = 3\n[section]\nmode = 1\nradius = 0.5\n"
        "vector = 0.8,0,0,0.6\n")
    u = cfg.build_section(grid, 2)
    assert (u.k_lo, u.modes.shape[2]) == (1, 1)
    _trace_pestov(u)


def test_toy_pestov_grid_workload_passes_its_gates(tmp_path):
    # the set-up, solve and acceptance gates bench/run.py times, at the
    # toy size bench/selftest.py uses
    wl = workloads.PestovGrid(workloads.DEFAULT_SEED, toy=True)
    state = wl.setup()
    out = wl.solve(state, tmp_path / "pestov.json")
    gates = wl.check(state, out)
    assert gates and all(ok for _, ok in gates), gates
    assert (tmp_path / "pestov.json").read_text() == out.text
    levels = out.data["levels"]
    assert [lv["ntheta"] for lv in levels] == [wl.size["ntheta"]] * len(levels)
    assert np.all(np.isfinite(wl.ref_errors(state, out)))
