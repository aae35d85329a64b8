"""Hermitian bundle data on the disk: connections, Higgs fields, gauges.

The bundle is the trivial one, M x C^d with the standard Hermitian product.
A unitary connection is given by its skew-Hermitian contraction Gamma(v)
(the symbols are Gamma(e_1), Gamma(e_2)) and its curvature f_12; Higgs
fields by a skew-Hermitian endomorphism Phi.  Fields are parametrized as
finite sums of separable terms rho(x)^N * S * beta(x) with a constant
skew-Hermitian generator S and a smooth scalar bump beta, so the partials
in f_12 = d_1 Gamma_2 - d_2 Gamma_1 + [Gamma_1, Gamma_2] are analytic.
Gauge fields are Q(x) = exp(rho^M * S(x)), unitary by construction and the
identity on the boundary; one Jacobi diagonalisation gives Q and Q^-1 dQ(v).

One evaluator, ``_Separable``, forms every such sum (connection symbols
and curvature, Higgs fields, gauge exponents, the reconstruction basis) as
scalar weights times the stacked generators; zero fields are its empty sum.
Points are arrays of shape (..., 2), read componentwise (x[..., 0],
x[..., 1]) on the per-node paths, because a NumPy reduction over an axis of
length 2 costs about three times its arithmetic; a two-term sum is a + b
either way, so the values are the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import (dagger, expm_skew, frobenius, mul, skew_defect,
                      spectral_norm_skew, unitary_defect)
from .errors import DomainError, RankMismatchError
from .geometry import AHModel

_SKEW_TOL = 1e-12


@dataclass(frozen=True)
class GaussBump:
    """Smooth scalar bump exp(-|x - c|^2 / (2 sigma^2))."""

    center: tuple[float, float]
    sigma: float

    def __post_init__(self):
        finite = np.all(np.isfinite(self.center))
        if not (finite and 0.0 < self.sigma < math.inf):
            raise DomainError("bump needs a finite center and a finite "
                              f"sigma > 0, got {self.center}, {self.sigma}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        dx = np.asarray(x, dtype=float) - np.asarray(self.center)
        return np.exp(-np.sum(dx * dx, axis=-1) / (2.0 * self.sigma**2))


def _check_skew(mat: np.ndarray, what: str) -> None:
    worst = float(np.max(skew_defect(mat), initial=0.0))
    if not worst < _SKEW_TOL:
        raise DomainError(f"{what} is not skew-Hermitian (defect {worst:.2e})")


def _rho(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x0, x1 = x[..., 0], x[..., 1]
    return 1.0 - (x0 * x0 + x1 * x1)


def validation_points(n: int = 48, r_max: float = 0.999) -> np.ndarray:
    """Deterministic interior grid used for construction-time checks."""
    axis = np.linspace(-r_max, r_max, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    pts = pts[np.sum(pts * pts, axis=-1) < r_max**2]
    if not len(pts):
        raise DomainError(f"a {n}-point validation grid has no interior point")
    return pts


@dataclass(frozen=True)
class SeparableTerm:
    """One term rho^N * S * beta(x) feeding the symbol in one direction."""

    direction: int               # 0 or 1: which symbol Gamma_i it feeds
    generator: np.ndarray        # constant skew-Hermitian d x d
    bump: GaussBump

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=complex)
        _check_skew(gen, "separable term generator")
        object.__setattr__(self, "generator", gen)
        if self.direction not in (0, 1):
            raise DomainError("term direction must be 0 or 1")


class _Separable:
    """rho^N sum_k beta_k S_k over K (generator S_k, bump beta_k) terms.

    ``weights`` are the scalars rho^N beta_k on a last axis of length K and
    ``weights_and_grads`` adds their partials; ``combine`` forms sum_k w_k S_k
    for any real weights w as one product with the generators' (re, im) parts,
    so a contraction (velocity, coefficients, direction mask) goes into
    the weights first.
    """

    def __init__(self, rank: int,
                 terms: Sequence[tuple[np.ndarray, GaussBump]], decay: int):
        if rank < 1:
            raise DomainError(f"rank must be >= 1, got {rank}")
        if decay < 0:
            raise DomainError(f"decay exponent must be >= 0, got {decay}")
        terms = list(terms)
        gens = [np.asarray(s, dtype=complex) for s, _ in terms]
        if any(g.shape != (rank, rank) for g in gens):
            raise RankMismatchError("generator rank mismatch")
        self.gens = np.array(gens, dtype=complex).reshape(-1, rank, rank)
        _check_skew(self.gens, "field generator")
        self.rank = rank
        self.decay = decay
        self._flat = self.gens.reshape(len(gens), rank * rank).view(float)
        self._centers = np.array([b.center for _, b in terms],
                                 dtype=float).reshape(-1, 2)
        self._sigma2 = np.array([b.sigma**2 for _, b in terms], dtype=float)

    def _bumps(self, x: np.ndarray) -> np.ndarray:
        # exp(-(d0 d0 + d1 d1) / (2 sigma^2)), step by step in place: the
        # same operations in the same order, in two arrays instead of seven
        d0 = x[..., 0, None] - self._centers[:, 0]
        d1 = x[..., 1, None] - self._centers[:, 1]
        d0 *= d0
        d1 *= d1
        d0 += d1
        np.negative(d0, out=d0)
        d0 /= 2.0 * self._sigma2
        return np.exp(d0, out=d0)

    def weights(self, x: np.ndarray) -> np.ndarray:
        """rho^N beta_k, shape (..., K)."""
        x = np.asarray(x, dtype=float)
        # an array at a lone point too; a NumPy scalar's power rounds otherwise
        return _rho(x)[..., None] ** self.decay * self._bumps(x)

    def weights_and_grads(self, x: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        """``weights`` and their partials d_j, shape (..., 2, K), from one
        evaluation of the bumps, with the same bits as ``weights``."""
        x = np.asarray(x, dtype=float)
        n = self.decay
        rho = _rho(x)[..., None, None]
        rho_n = rho**n
        bumps = self._bumps(x)
        dx = x[..., :, None] - self._centers.T
        return rho_n[..., 0, :] * bumps, bumps[..., None, :] \
            * (n * rho ** max(n - 1, 0) * (-2.0 * x[..., :, None])
               - rho_n * dx / self._sigma2)

    def combine(self, w: np.ndarray) -> np.ndarray:
        """sum_k w_k S_k for real w of shape (..., K): shape (..., d, d)."""
        w = np.asarray(w, dtype=float)
        out = w.reshape(math.prod(w.shape[:-1]), w.shape[-1]) @ self._flat
        return out.view(complex).reshape(w.shape[:-1] + (self.rank,) * 2)


class ConnectionField:
    """Unitary connection with rho^N decay, given by Gamma(v) and f_12.

    ``along(x, v)`` is the contraction Gamma(v) = v^i Gamma_i, shape
    (..., d, d), and ``symbols(x)`` its values Gamma(e_1), Gamma(e_2),
    shape (..., 2, d, d).  The ``curvature`` evaluator, which
    ``curvature_f12(x)`` calls, gives f_12 = d_1 Gamma_2 - d_2 Gamma_1 +
    [Gamma_1, Gamma_2], shape (..., d, d); separable connections form it
    from analytic partials, and gauge transforms carry it by conjugation,
    which is exact.
    """

    def __init__(self, rank: int,
                 along: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 decay_N: int,
                 curvature: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 validate: bool = True, is_zero: bool = False):
        self.rank = rank
        self.decay_N = decay_N
        self.is_zero = is_zero
        self.along = along
        self._curvature = curvature
        if validate:
            self._validate()

    def symbols(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.along(x[..., None, :], np.eye(2))

    def curvature_f12(self, x: np.ndarray) -> np.ndarray:
        """The single independent curvature component, shape (..., d, d)."""
        if self._curvature is None:
            raise DomainError("connection carries no curvature evaluator")
        return self._curvature(np.asarray(x, dtype=float))

    def _validate(self) -> None:
        pts = validation_points()
        gam = self.symbols(pts)
        _check_skew(gam, "connection symbols")
        self._check_decay(gam, pts, self.decay_N, "connection symbols")

    @staticmethod
    def _check_decay(values: np.ndarray, pts: np.ndarray, n_decay: int,
                     what: str) -> None:
        if n_decay == 0:
            return
        norms = frobenius(values)
        while norms.ndim > 1:
            norms = np.max(norms, axis=-1)
        rho = _rho(pts)
        interior = np.max(norms / np.maximum(rho, 0.5) ** n_decay)
        ring = rho < 0.05
        if interior == 0.0 or not np.any(ring):
            return
        bound = 4.0 * interior * rho[ring] ** n_decay
        if not np.all(norms[ring] <= np.maximum(bound, 1e-13)):
            raise DomainError(f"{what} do not decay like rho^{n_decay}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "ConnectionField":
        return cls.from_terms(rank, [], 0)

    @classmethod
    def from_terms(cls, rank: int, terms: Sequence[SeparableTerm],
                   decay_N: int) -> "ConnectionField":
        """Term k feeds the symbol Gamma_{dir_k}; no terms is zero.  Gamma(v)
        puts v into the weights before the generator product."""
        terms = list(terms)
        f = _Separable(rank, [(t.generator, t.bump) for t in terms], decay_N)
        dirs = np.array([t.direction for t in terms], dtype=int)
        feeds = np.eye(2)[:, dirs]           # (i, k): term k feeds Gamma_i

        def along(x, v):
            return f.combine(f.weights(x)
                             * np.asarray(v, dtype=float)[..., dirs])

        def curvature(x):
            w, dw = f.weights_and_grads(x)
            gam = f.combine(w[..., None, :] * feeds)
            g1, g2 = gam[..., 0, :, :], gam[..., 1, :, :]
            curl = f.combine(dw[..., 0, :] * feeds[1]
                             - dw[..., 1, :] * feeds[0])
            return curl + (mul(g1, g2) - mul(g2, g1))

        return cls(rank, along, decay_N, curvature=curvature,
                   validate=bool(terms), is_zero=not terms)


class HiggsFieldData:
    """Skew-Hermitian Higgs field with rho^(N+1) decay; ``is_zero`` marks
    the zero field and its gauge transforms, whose decay exponent says
    nothing."""

    def __init__(self, rank: int, phi: Callable[[np.ndarray], np.ndarray],
                 decay_N1: int, validate: bool = True, is_zero: bool = False):
        self.rank = rank
        self.decay_N1 = decay_N1
        self.is_zero = is_zero
        self._phi = phi
        if validate:
            pts = validation_points()
            vals = self.phi(pts)
            _check_skew(vals, "Higgs field")
            ConnectionField._check_decay(vals, pts, decay_N1, "Higgs field")

    def phi(self, x: np.ndarray) -> np.ndarray:
        return self._phi(np.asarray(x, dtype=float))

    def adjoint(self) -> "HiggsFieldData":
        return HiggsFieldData(self.rank, lambda x: dagger(self._phi(x)),
                              self.decay_N1, validate=False,
                              is_zero=self.is_zero)

    @classmethod
    def zero(cls, rank: int) -> "HiggsFieldData":
        return cls.from_terms(rank, [], 0)

    @classmethod
    def from_terms(cls, rank: int,
                   terms: Sequence[tuple[np.ndarray, GaussBump]],
                   decay_N1: int) -> "HiggsFieldData":
        field = _Separable(rank, terms, decay_N1)
        return cls(rank, lambda x: field.combine(field.weights(x)), decay_N1,
                   validate=bool(len(field.gens)),
                   is_zero=not len(field.gens))


class GaugeField:
    """Unitary gauge Q(x) = exp(rho(x)^M * S(x)), identity on the boundary."""

    def __init__(self, rank: int,
                 terms: Sequence[tuple[np.ndarray, GaussBump]],
                 decay_M: int):
        if decay_M < 1:
            raise DomainError("gauge decay exponent must be >= 1")
        self.rank = rank
        self.decay_M = decay_M
        self._field = _Separable(rank, terms, decay_M)
        q_ring = self.q(validation_points(n=64, r_max=math.sqrt(1 - 1e-4)))
        if float(np.max(unitary_defect(q_ring))) >= _SKEW_TOL:
            raise DomainError("gauge field failed the unitarity check")

    def q(self, x: np.ndarray) -> np.ndarray:
        return expm_skew(self._field.combine(self._field.weights(x)))

    def log_derivative(self, x: np.ndarray, v: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Q and Q^-1 dQ(v), each shape (..., d, d): the exact Frechet
        derivative in the direction dP(v), from Q's diagonalisation."""
        f = self._field
        w, dw = f.weights_and_grads(x)
        v = np.asarray(v, dtype=float)
        dp = dw[..., 0, :] * v[..., 0, None] + dw[..., 1, :] * v[..., 1, None]
        return expm_skew(f.combine(w), f.combine(dp))

    def dq(self, x: np.ndarray) -> np.ndarray:
        """Partials d_i Q, shape (..., 2, d, d)."""
        x = np.asarray(x, dtype=float)
        q, log_dq = self.log_derivative(x[..., None, :], np.eye(2))
        return q @ log_dq

    def compose(self, other: "GaugeField") -> "ComposedGauge":
        return ComposedGauge(self, other)


class ComposedGauge:
    """Pointwise product gauge (self followed by other): Q = Q1 Q2."""

    def __init__(self, first: "GaugeField | ComposedGauge",
                 second: "GaugeField | ComposedGauge"):
        if first.rank != second.rank:
            raise RankMismatchError("gauge rank mismatch")
        self.rank = first.rank
        self.decay_M = min(first.decay_M, second.decay_M)
        self._first = first
        self._second = second

    def q(self, x: np.ndarray) -> np.ndarray:
        return mul(self._first.q(x), self._second.q(x))

    def log_derivative(self, x: np.ndarray, v: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Q = Q1 Q2 and, by the product rule,
        Q^-1 dQ(v) = Q2* (Q1^-1 dQ1(v)) Q2 + Q2^-1 dQ2(v)."""
        q1, l1 = self._first.log_derivative(x, v)
        q2, l2 = self._second.log_derivative(x, v)
        return mul(q1, q2), mul(mul(dagger(q2), l1), q2) + l2


def gauge_transform(conn: ConnectionField, higgs: HiggsFieldData,
                    q: "GaugeField | ComposedGauge"
                    ) -> tuple[ConnectionField, HiggsFieldData]:
    """Apply the gauge relation: Gamma(v) becomes Q* Gamma(v) Q + Q^-1 dQ(v),
    the Higgs field conjugates, and curvature conjugates exactly.

    ``along`` and ``phi`` share Q through a one-slot cache, so a node of
    ``transport_rhs`` (along, then phi) diagonalises each exponent once.  Its
    key is the content of x: ``along`` stores a copy of x with Q, and
    ``phi`` takes both out, so they outlive no node, and reuses Q only for
    an equal shape and equal values.  The Q of ``log_derivative`` is
    ``q(x)``'s bit for bit."""
    if not (conn.rank == higgs.rank == q.rank):
        raise RankMismatchError("rank mismatch between connection, Higgs, gauge")
    last = {}               # the x and Q of the latest along, until phi

    def along(x, v):
        qm, log_dq = q.log_derivative(x, v)
        last.update(x=np.array(x, dtype=float), q=qm)
        return mul(mul(dagger(qm), conn.along(x, v)), qm) + log_dq

    def curvature(x):
        qm = q.q(x)
        return mul(mul(dagger(qm), conn.curvature_f12(x)), qm)

    def phi(x):
        seen, qm = last.pop("x", None), last.pop("q", None)
        if seen is None or not np.array_equal(seen, x):
            qm = q.q(x)
        return mul(mul(dagger(qm), higgs.phi(x)), qm)

    if conn.is_zero:
        decay = q.decay_M - 1
    else:
        decay = min(conn.decay_N, q.decay_M - 1)
    new_conn = ConnectionField(conn.rank, along, decay_N=decay,
                               curvature=curvature)
    new_higgs = HiggsFieldData(higgs.rank, phi, higgs.decay_N1,
                               is_zero=higgs.is_zero)
    return new_conn, new_higgs


def sup_curvature_norm(conn: ConnectionField, pts: np.ndarray,
                       model: AHModel) -> float:
    """Max over the grid of the pointwise curvature-operator norm.

    Per point this is exp(-2 Phi) times the spectral norm of f_12, the
    operator norm over unit fiber vectors (and all unit v, which drops out
    on surfaces).
    """
    pts = np.asarray(pts, dtype=float)
    f12 = conn.curvature_f12(pts)
    scale = np.exp(-2.0 * model.log_conformal(pts))
    return float(np.max(scale * spectral_norm_skew(f12)))


@dataclass(frozen=True)
class CktReport:
    kappa: float
    fnorm: float
    satisfied: bool


def ckt_condition_check(conn: ConnectionField, model: AHModel,
                        pts: Optional[np.ndarray] = None) -> CktReport:
    """Check the curvature-smallness condition excluding nontrivial twisted
    conformal Killing tensors: ||F|| <= kappa * sqrt(n) with n = 1."""
    if pts is None:
        pts = validation_points()
    kappa = -float(np.max(model.gauss_curvature(pts)))
    if kappa <= 0.0:
        raise DomainError("model must have verified negative curvature")
    fnorm = sup_curvature_norm(conn, pts, model)
    return CktReport(kappa=kappa, fnorm=fnorm, satisfied=fnorm <= kappa)
