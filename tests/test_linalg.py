"""Tests of the Jacobi eigen-path in ``_linalg``.

The oracle is ``oracles.ref_expm_skew``: ``scipy.linalg.expm`` and
``expm_frechet`` one matrix at a time.  The cases are the spectra a
rotation can trip on: a zero or scalar exponent, a diagonal one (b = 0),
repeated eigenvalues, an off-diagonal far below the diagonal, subnormal
entries and a large norm; and the inputs the solver must refuse.
"""

import numpy as np
import pytest

from ahxray import _linalg
from ahxray._linalg import expm_skew, spectral_norm_skew, unitary_defect
from ahxray.errors import DomainError
from oracles import ref_expm_skew


def _skew(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (a - np.conj(np.swapaxes(a, -1, -2)))


def _with_spectrum(rng, lam):
    """U diag(i lam) U* for a random unitary U, one per row of lam."""
    lam = np.asarray(lam, dtype=float)
    d = lam.shape[-1]
    u, _ = np.linalg.qr(rng.normal(size=lam.shape + (d,))
                        + 1j * rng.normal(size=lam.shape + (d,)))
    return u @ (1j * lam[..., None] * np.conj(np.swapaxes(u, -1, -2)))


def _close_to_ref(p, e):
    q, log_dq = expm_skew(p, e)
    q_ref, log_dq_ref = ref_expm_skew(p, e)
    assert np.max(np.abs(q - q_ref)) <= 1e-13
    assert np.max(np.abs(log_dq - log_dq_ref)) <= 1e-12
    assert np.max(unitary_defect(q)) < 1e-14


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("stack", [(), (7,), (5, 3)])
def test_zero_exponent_is_exactly_the_identity(rng, rank, stack):
    e = _skew(rng, stack + (rank, rank))
    q, log_dq = expm_skew(np.zeros(stack + (rank, rank)), e)
    assert np.array_equal(q, np.broadcast_to(np.eye(rank), q.shape))
    assert np.array_equal(log_dq, e)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_scalar_exponent(rng, rank):
    alpha = np.array([-2.5, 0.3, 1.7])
    e = _skew(rng, (3, rank, rank))
    q, log_dq = expm_skew(1j * alpha[:, None, None] * np.eye(rank), e)
    ref = np.exp(1j * alpha)[:, None, None] * np.eye(rank)
    assert np.max(np.abs(q - ref)) <= 1e-15
    assert np.max(np.abs(log_dq - e)) <= 1e-15


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_diagonal_exponent_needs_no_rotation(rng, rank):
    theta = rng.uniform(-3.0, 3.0, size=(6, rank))
    p = 1j * theta[..., None] * np.eye(rank)
    q = expm_skew(p)
    assert np.max(np.abs(q - np.exp(1j * theta)[..., None] * np.eye(rank))) \
        <= 1e-15
    assert np.all(q[..., ~np.eye(rank, dtype=bool)] == 0.0)
    _close_to_ref(p, _skew(rng, (6, rank, rank)))


@pytest.mark.parametrize("lam", [[0.7, 0.7, -1.2], [0.4, 0.4, 0.4],
                                 [1.1, 1.1, -0.3, -0.3], [2.0, -1.0, 2.0, 2.0],
                                 [0.5, 0.5 + 1e-9, -0.8]])
def test_repeated_eigenvalues(rng, lam):
    p = _with_spectrum(rng, np.broadcast_to(lam, (8, len(lam))))
    _close_to_ref(p, _skew(rng, p.shape))
    norms = spectral_norm_skew(p)
    assert np.max(np.abs(norms - np.max(np.abs(lam)))) <= 1e-14


@pytest.mark.parametrize("diag", [(0.3, -0.9), (0.5, 0.5)])
@pytest.mark.parametrize("rank", [2, 3])
def test_tiny_off_diagonal(rng, rank, diag):
    p = np.zeros((rank, rank), dtype=complex)
    p[0, 0], p[1, 1] = 1j * diag[0], 1j * diag[1]
    p[0, 1], p[1, 0] = 1e-300, -1e-300
    _close_to_ref(p, _skew(rng, (rank, rank)))


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_subnormal_exponent_is_the_identity(rng, rank):
    q, log_dq = expm_skew(1e-310 * _skew(rng, (5, rank, rank)),
                          _skew(rng, (5, rank, rank)))
    assert np.max(np.abs(q - np.eye(rank))) <= 1e-15
    assert np.max(unitary_defect(q)) < 1e-14


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_large_norm(rng, rank):
    p = _skew(rng, (10, rank, rank))
    p *= 50.0 / np.linalg.norm(p, ord=2, axis=(-2, -1))[:, None, None]
    _close_to_ref(p, _skew(rng, p.shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_non_finite_input_is_refused(rank, bad):
    p = np.zeros((4, rank, rank), dtype=complex)
    p[2, -1, -1] = bad
    with pytest.raises(DomainError, match="not finite"):
        expm_skew(p)
    with pytest.raises(DomainError, match="not finite"):
        spectral_norm_skew(p)


def test_unconverged_at_the_sweep_cap_is_refused(rng, monkeypatch):
    p = _skew(rng, (16, 3, 3))
    expm_skew(p)
    monkeypatch.setattr(_linalg, "_SWEEPS", 1)
    with pytest.raises(DomainError, match="unconverged after 1 sweeps"):
        expm_skew(p)
