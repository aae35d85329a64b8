"""Property tests over generated inputs (Hypothesis).

- ``transport._segments(n, width)`` returns the largest divisor m of n
  whose m * width rows fit ``_ROWS``, and 1 when no divisor fits;
- ``FanSpec.uniform_pairs`` and ``FanSpec.uniform_shooting`` return
  exactly ``count`` items for any positive count and per-angle size;
- ``_linalg.mul`` is ``@`` up to rounding for ranks 1-4 and broadcasting
  leading shapes, and exactly ``@`` for single matrices and vectors;
- ``batch_transport`` exit matrices of random skew fields of rank 2 and
  3 are unitary within criterion 4's tolerance;
- every separable field (connection symbols, their contraction with a
  velocity and their partials, Higgs fields, gauges and their partials,
  the reconstruction basis) equals the sum of its terms taken one at a
  time, for ranks 1-3, 0-4 terms and decay 0-4; no terms is the zero
  field, and the identity gauge;
- every reconstruction iterate ``higgs(c)``, which is built without the
  construction-time field checks, passes them: skew-Hermitian and decaying
  like rho^(N+1);
- every sphere-bundle operator and functional on a section held as a band
  of fiber modes equals the same on the full-axis section with the same
  theta samples, for random bands at even and odd n_theta, bands that
  reach the ends of the frequency axis (where the mode shift wraps) and
  the full band;
- the ball-entry quadratic of a closed-form disk geodesic: its roots lie
  on the circle |x - c| = r, and a geodesic it reports as missing the
  ball never comes within r on a fine sample, for random geodesics and
  balls inside {rho >= epsilon0}.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

import ahxray.spherebundle as sb
from ahxray._linalg import mul, unitary_defect
from ahxray.bundle import (ConnectionField, GaugeField, GaussBump,
                           HiggsFieldData, SeparableTerm, _check_skew,
                           validation_points)
from ahxray.geometry import AHModel, DiskGeodesic
from ahxray.reconstruct import HiggsParameterization
from ahxray.transport import (_ROWS, _segments, batch_transport,
                              transport_rhs)
from ahxray.xray import FanSpec, fan_paths
from test_bundle import random_connection, random_higgs, random_skew


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5000), width=st.integers(1, 2 * _ROWS))
def test_segments_is_largest_fitting_divisor(n, width):
    m = _segments(n, width)
    assert n % m == 0
    if m > 1:
        assert m * width <= _ROWS
    assert all(k * width > _ROWS for k in range(m + 1, n + 1) if n % k == 0)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 300), k=st.integers(1, 40))
def test_uniform_fans_have_exact_count(count, k):
    assert len(FanSpec.uniform_pairs(count, k)) == count
    assert len(FanSpec.uniform_shooting(count, k)) == count


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@settings(max_examples=200, deadline=None)
@given(rank=st.integers(1, 4),
       lead=st.lists(st.integers(1, 5), max_size=3),
       mask_a=st.lists(st.booleans(), min_size=3, max_size=3),
       mask_b=st.lists(st.booleans(), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_mul_is_matmul(rank, lead, mask_a, mask_b, seed):
    # each operand keeps or collapses to 1 every leading axis, so the
    # pair broadcasts against each other
    rng = np.random.default_rng(seed)
    a = _complex(rng, tuple(n if keep else 1 for n, keep in
                            zip(lead, mask_a)) + (rank, rank))
    b = _complex(rng, tuple(n if keep else 1 for n, keep in
                            zip(lead, mask_b)) + (rank, rank))
    out, ref = mul(a, b), a @ b
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=50, deadline=None)
@given(rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_mul_falls_back_on_single_matrices(rank, seed):
    rng = np.random.default_rng(seed)
    a, b = _complex(rng, (rank, rank)), _complex(rng, (rank, rank))
    vec = _complex(rng, (rank,))
    assert np.array_equal(mul(a, b), a @ b)
    assert np.array_equal(mul(a, vec), a @ vec)


@settings(max_examples=12, deadline=None)
@given(rank=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_batch_scattering_is_unitary(rank, seed):
    # fields of criterion 4's size (three terms of scale 0.5) at its
    # default 2048 RK4 steps
    rng = np.random.default_rng(seed)
    conn = random_connection(rng, rank)
    higgs = random_higgs(rng, rank)
    geos, _ = fan_paths(AHModel(), FanSpec.uniform_pairs(12, 3))
    exits = batch_transport(transport_rhs(conn, higgs), geos, rank)
    assert float(np.max(unitary_defect(exits))) < 1e-7


def _term_sum(terms, rank, decay, x):
    """rho^N sum_k beta_k S_k at points x, one term at a time."""
    rho_n = (1.0 - np.sum(x * x, axis=-1)) ** decay
    out = np.zeros(x.shape[:-1] + (rank, rank), dtype=complex)
    for gen, bump in terms:
        out += (rho_n * bump(x))[..., None, None] * gen
    return out


def _central(f, x, h=1e-5):
    """Central differences d_j f, stacked on the axis after x's leading
    axes."""
    return np.stack([(f(x + h * e) - f(x - h * e)) / (2.0 * h)
                     for e in np.eye(2)], axis=x.ndim - 1)


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3),
       dirs=st.lists(st.integers(0, 1), max_size=4),
       decay=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_separable_fields_are_their_term_sums(rank, dirs, decay, seed):
    rng = np.random.default_rng(seed)
    terms = [(random_skew(rng, rank),
              GaussBump(center=tuple(rng.uniform(-0.5, 0.5, 2)),
                        sigma=rng.uniform(0.2, 0.5))) for _ in dirs]
    r = 0.9 * np.sqrt(rng.uniform(size=(4, 3)))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3))
    x = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    v = rng.normal(size=(4, 3, 2))
    scale = 1.0 + sum(float(np.max(np.abs(g))) for g, _ in terms)

    def close(a, b, tol=1e-13):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= tol * scale

    # connection: term k feeds Gamma_{dirs[k]}
    conn = ConnectionField.from_terms(
        rank, [SeparableTerm(i, g, b) for i, (g, b) in zip(dirs, terms)],
        decay)
    ref = np.stack([_term_sum([t for i, t in zip(dirs, terms) if i == j],
                              rank, decay, x) for j in range(2)], axis=-3)
    close(conn.symbols(x), ref)
    close(conn.along(x, v), np.einsum("...i,...ikl->...kl", v, ref))
    close(conn.symbol_derivs(x), _central(conn.symbols, x), 1e-7)
    assert conn.is_zero == (not terms)

    higgs = HiggsFieldData.from_terms(rank, terms, decay)
    close(higgs.phi(x), _term_sum(terms, rank, decay, x))

    # the gauge exponent decays like rho^M with M >= 1; no terms is the
    # identity gauge
    gauge = GaugeField(rank, terms, max(decay, 1))
    close(gauge.q(x), expm(_term_sum(terms, rank, max(decay, 1), x)),
          1e-12)
    close(gauge.dq(x), _central(gauge.q, x), 1e-7)
    if not terms:
        close(gauge.q(x), np.broadcast_to(np.eye(rank), x.shape[:-1]
                                          + (rank, rank)), 0.0)
        return

    params = HiggsParameterization(rank=rank, basis=terms, decay_N1=decay)
    c = rng.normal(size=len(terms))
    close(params.combine(params.weights(x), c),
          _term_sum([(ck * g, b) for ck, (g, b) in zip(c, terms)], rank,
                    decay, x))


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3), count=st.integers(1, 4),
       decay=st.integers(0, 4), scale=st.floats(1e-3, 1e2),
       seed=st.integers(0, 2**32 - 1))
def test_reconstruction_iterates_pass_the_higgs_checks(rank, count, decay,
                                                       scale, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.5, 0.5, size=(count, 2))
    basis = [(random_skew(rng, rank),
              GaussBump(center=tuple(c), sigma=rng.uniform(0.2, 0.5)))
             for c in centers]
    params = HiggsParameterization(rank=rank, basis=basis, decay_N1=decay)
    pts = validation_points()
    vals = params.higgs(scale * rng.normal(size=count)).phi(pts)
    _check_skew(vals, "Higgs field")
    ConnectionField._check_decay(vals, pts, decay, "Higgs field")


_BAND_GRIDS = {}


def _band_grid(n_theta):
    if n_theta not in _BAND_GRIDS:
        _BAND_GRIDS[n_theta] = sb.SphereBundleGrid(AHModel(), nx=12,
                                                   n_theta=n_theta)
    return _BAND_GRIDS[n_theta]


@settings(max_examples=60, deadline=None)
@given(n_theta=st.sampled_from([8, 9, 12, 15, 16]),
       width=st.integers(1, 16), shift=st.integers(0, 15),
       rank=st.integers(1, 2), with_conn=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n_theta=16, width=3, shift=0, rank=2, with_conn=True, seed=1)
@example(n_theta=15, width=2, shift=13, rank=2, with_conn=True, seed=2)
@example(n_theta=16, width=16, shift=0, rank=1, with_conn=True, seed=3)
@example(n_theta=9, width=9, shift=0, rank=2, with_conn=False, seed=4)
@example(n_theta=9, width=1, shift=0, rank=1, with_conn=False, seed=0)
@example(n_theta=15, width=1, shift=7, rank=1, with_conn=False, seed=0)
def test_band_operators_equal_full_axis_operators(n_theta, width, shift,
                                                  rank, with_conn, seed):
    # the band k_lo .. k_lo + width - 1 inside -(n // 2) .. (n - 1) // 2;
    # shift 0 touches the low end, the largest shift the high end
    grid = _band_grid(n_theta)
    width = min(width, n_theta)
    k_lo = -(n_theta // 2) + shift % (n_theta - width + 1)
    rng = np.random.default_rng(seed)
    conn = random_connection(rng, rank) if with_conn else None
    modes = _complex(rng, (grid.nx, grid.ny, width, rank))
    u = sb.SectionField.from_modes(modes, grid, k_lo)
    w = sb.NSectionField.from_modes(modes[..., ::-1], grid, k_lo)
    u_full = sb.SectionField(u.values, grid)
    w_full = sb.NSectionField(w.coeffs, grid)
    assert u_full.modes.shape[2] == n_theta

    # relative to the operand too: where the exact result vanishes (d_theta
    # of mode 0, say), the full axis gives rounding noise of the operand
    size = np.max(np.abs(u.values))

    def same(a, b):
        ref = b._samples()
        assert np.max(np.abs(a._samples() - ref)) \
            <= 1e-12 * max(np.max(np.abs(ref)), size)

    def close(a, b, scale):
        assert abs(a - b) <= 1e-12 * max(scale, 1e-300)

    same(u, u_full)
    for op in (sb.vertical_derivative, sb.vertical_laplacian,
               lambda s: sb.apply_X(s, conn),
               lambda s: sb.horizontal_derivative(s, conn)):
        same(op(u), op(u_full))
    for op in (sb.vertical_divergence, sb.curvature_R,
               lambda s: sb.apply_X(s, conn),
               lambda s: sb.horizontal_divergence(s, conn)):
        same(op(w), op(w_full))
    if conn is not None:
        same(sb.curvature_F(u, conn), sb.curvature_F(u_full, conn))
    xu, xu_full = sb.apply_X(u, conn), sb.apply_X(u_full, conn)
    # rounding of an inner product scales with the norms of its operands
    close(sb.inner(xu, u), sb.inner(xu_full, u_full),
          xu_full.norm() * u_full.norm())
    close(xu.norm(), xu_full.norm(), xu_full.norm())
    m_max = n_theta // 2 - 1
    energies = sb.mode_energies(xu, m_max)
    assert np.max(np.abs(energies - sb.mode_energies(xu_full, m_max))) \
        <= 1e-12 * np.max(energies)
    assert sb.degree(u) == sb.degree(u_full)

    # a section concentrated in mode +-m, for the split of X
    m = shift % max(n_theta // 2 - 1, 1)
    one = sb.SectionField.from_modes(modes[:, :, :1], grid,
                                     -m if seed % 2 else m)
    one_full = sb.SectionField(one.values, grid)
    for part, part_full in zip(sb.x_split(one, m, conn)[:2],
                               sb.x_split(one_full, m, conn)[:2]):
        same(part, part_full)
    assert abs(sb.x_split(one, m, conn)[2]
               - sb.x_split(one_full, m, conn)[2]) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(alpha_in=st.floats(0.0, 6.28), opening=st.floats(0.05, 6.23),
       center_r=st.floats(0.0, 0.9), center_angle=st.floats(0.0, 6.28),
       radius_frac=st.floats(0.01, 1.0))
@example(0.0, np.pi, 0.0, 0.0, 0.5)          # diameter through the center
@example(0.0, np.pi, 0.5, np.pi / 2, 0.5)    # diameter tangent to the ball
def test_ball_crossing_roots_lie_on_the_circle(alpha_in, opening, center_r,
                                               center_angle, radius_frac):
    eps0 = 0.1
    geo = DiskGeodesic.between_boundary_angles(
        AHModel(), alpha_in, (alpha_in + opening) % (2 * np.pi))
    reach = np.sqrt(1.0 - eps0)                 # |c| + r <= reach
    c = center_r * reach * np.array([np.cos(center_angle),
                                     np.sin(center_angle)])
    r = radius_frac * (reach - np.linalg.norm(c))
    hit = geo.ball_crossing(c, r)
    if hit is None:
        t = np.linspace(geo.t_entry, geo.t_exit, 20001)
        dist = np.linalg.norm(geo.position(t) - c, axis=-1)
        assert np.min(dist) > r - 1e-12
    else:
        assert hit[0] < hit[1]
        for t in hit:
            assert abs(np.linalg.norm(geo.position(np.asarray(t)) - c)
                       - r) < 1e-12
