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
The weights are held terms-first, shape (K, ...nodes), so each elementwise
pass of a bump runs over the long node axes rather than an inner axis of
length K.  A connection or Higgs field is its separable terms seen
through at most one gauge Q, itself an ordered product of exponential
factors; ``gauge_transform`` composes gauges by joining their factors.
``_generator`` forms the transport generator -(Gamma(v) + Phi) by one
rule: one separable sum of the terms per distinct gauge of the pair
(``_stacked_generator``), each conjugated to Q* G Q, minus the
connection gauge's Q^-1 dQ(v).  ``_generators`` applies the rule to
several pairs at one node set with one stacked sum per distinct term set
(terms compared by value) and one ``log_derivative`` per distinct gauge,
so a pair and its gauge transform share their bump pass.

Points are arrays of shape (..., 2), read componentwise (x[..., 0],
x[..., 1]) on the per-node paths, because a NumPy reduction over an axis of
length 2 costs about three times its arithmetic; a two-term sum is a + b
either way, so the values are the same to the bit.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._linalg import (add_commutator, dagger, expm_skew, frobenius,
                      matrix_first, mul, mul_first, skew_defect,
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


@functools.lru_cache(maxsize=8)
def validation_points(n: int = 48, r_max: float = 0.999) -> np.ndarray:
    """Deterministic interior grid used for construction-time checks,
    built once per argument list and returned read-only."""
    axis = np.linspace(-r_max, r_max, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    pts = pts[np.sum(pts * pts, axis=-1) < r_max**2]
    if not len(pts):
        raise DomainError(f"a {n}-point validation grid has no interior point")
    pts.flags.writeable = False
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


def _last_first(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` with its last axis moved in front (``np.moveaxis``
    costs several times more Python on these per-node paths)."""
    return a.transpose((-1,) + tuple(range(a.ndim - 1)))


def _lift(a: np.ndarray, ndim: int) -> np.ndarray:
    """A terms-first array (K, ...) with unit axes put in front of its node
    axes, ``ndim`` node axes in all, so that it broadcasts against another
    terms-first array as their node arrays would."""
    return a.reshape(a.shape[:1] + (1,) * (ndim + 1 - a.ndim) + a.shape[1:])


def _bumps(x: np.ndarray, centers: np.ndarray,
           sigma2: np.ndarray) -> np.ndarray:
    """exp(-(d0 d0 + d1 d1) / (2 sigma_k^2)) with d = x - c_k, terms-first:
    shape (K,) + x's leading axes.  Step by step in place: the same
    operations in the same order, in two arrays instead of seven."""
    lead = (-1,) + (1,) * (x.ndim - 1)
    d0 = x[..., 0] - centers[:, 0].reshape(lead)
    d1 = x[..., 1] - centers[:, 1].reshape(lead)
    d0 *= d0
    d1 *= d1
    d0 += d1
    np.negative(d0, out=d0)
    d0 /= (2.0 * sigma2).reshape(lead)
    return np.exp(d0, out=d0)


class _Separable:
    """rho^N sum_k beta_k S_k over K (generator S_k, bump beta_k) terms.

    ``weights`` are the scalars rho^N beta_k, terms-first: shape (K,)
    followed by the points' leading axes, so each elementwise pass runs
    over the long node axes.  ``weights_and_grads`` adds their partials d_j,
    shape (2, K, ...).  ``combine`` forms sum_k w_k S_k for any real
    terms-first weights w as one product with the generators' (re, im)
    parts, so a contraction (velocity, coefficients, direction mask) goes
    into the weights first.
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

    def weights(self, x: np.ndarray) -> np.ndarray:
        """rho^N beta_k, shape (K,) + x's leading axes."""
        x = np.asarray(x, dtype=float)
        # an array at a lone point too; a NumPy scalar's power rounds otherwise
        return _rho(x)[None] ** self.decay \
            * _bumps(x, self._centers, self._sigma2)

    def weights_and_grads(self, x: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        """``weights`` and their partials d_j, shape (2, K) + x's leading
        axes, from one evaluation of the bumps, with the same bits as
        ``weights``."""
        x = np.asarray(x, dtype=float)
        n = self.decay
        lead = (1,) * (x.ndim - 1)
        rho = _rho(x)[None, None]
        rho_n = rho**n
        bumps = _bumps(x, self._centers, self._sigma2)
        xj = _last_first(x)[:, None]
        # bumps (n rho^(n-1) (-2 x_j) - rho^n (x_j - c_j) / sigma^2) in
        # one array: the same operations in the same order
        grads = xj - self._centers.T.reshape((2, -1) + lead)
        grads *= rho_n
        grads /= self._sigma2.reshape((-1,) + lead)
        np.subtract(n * rho ** max(n - 1, 0) * (-2.0 * xj), grads, out=grads)
        grads *= bumps
        return rho_n[0] * bumps, grads

    def combine(self, w: np.ndarray) -> np.ndarray:
        """sum_k w_k S_k for real terms-first w of shape (K, ...): shape
        (..., d, d).  The product takes a terms-last copy of w, the
        operand of the terms-last form, whose bits it keeps; a transposed
        view raised the peak RSS of a second ``pestov`` solve at 96^2 by
        0.3 MB."""
        w = np.asarray(w, dtype=float)
        lead = w.shape[1:]
        rows = np.ascontiguousarray(w.reshape(len(w), math.prod(lead)).T)
        out = rows @ self._flat
        return out.view(complex).reshape(lead + (self.rank,) * 2)


@dataclass(eq=False)
class ConnectionField:
    """Unitary connection with rho^N decay, held as data: separable terms,
    each feeding one symbol (``from_terms``), under at most one gauge Q,
    Gamma(v) = Q* Gamma_terms(v) Q + Q^-1 dQ(v) (``gauge_transform``).

    ``along(x, v)`` is the contraction Gamma(v) = v^i Gamma_i, shape
    (..., d, d), and ``symbols(x)`` its values Gamma(e_1), Gamma(e_2),
    shape (..., 2, d, d).  ``curvature_f12(x)`` is f_12 = d_1 Gamma_2 -
    d_2 Gamma_1 + [Gamma_1, Gamma_2], shape (..., d, d): from the terms'
    analytic partials, conjugated by Q, which is exact.
    ``symbols_and_curvature(x)`` gives both from one evaluation of the
    terms, as a sphere-bundle grid reads them.
    """

    rank: int
    decay_N: int
    # (separable field, direction of each term), read by
    # ``_stacked_generator``, and the gauge Q or None, read by ``_generator``
    _terms: tuple[_Separable, np.ndarray]
    _gauge: Optional[GaugeField] = None

    @property
    def is_zero(self) -> bool:
        """No terms and no gauge: a gauge adds Q^-1 dQ."""
        return self._gauge is None and not len(self._terms[1])

    def along(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        # the gauge first, so its eigensolve's temporaries meet no others
        qm, log_dq = (None, None) if self._gauge is None \
            else self._gauge.log_derivative(x, v)
        # v goes into the weights before the generator product
        f, dirs = self._terms
        w = f.weights(x)
        v = _last_first(np.asarray(v, dtype=float))[dirs]
        n = max(w.ndim, v.ndim) - 1
        gam = _seen(qm, f.combine(_lift(w, n) * _lift(v, n)))
        return gam if log_dq is None else gam + log_dq

    def symbols(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.along(x[..., None, :], np.eye(2))

    def curvature_f12(self, x: np.ndarray) -> np.ndarray:
        """The single independent curvature component, shape (..., d, d)."""
        return self.symbols_and_curvature(x)[1]

    def symbols_and_curvature(self, x: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
        """``symbols(x)`` and ``curvature_f12(x)`` from one pass over the
        terms' bumps and, under a gauge, one ``log_derivative``.  The
        terms' Gamma_i are the ones ``symbols`` forms: the same weights and
        the same product."""
        x = np.asarray(x, dtype=float)
        # the gauge first, as in ``along``
        qm, log_dq = (None, None) if self._gauge is None \
            else self._gauge.log_derivative(x[..., None, :], np.eye(2))
        f, dirs = self._terms
        feeds = np.eye(2)[:, dirs]           # (i, k): term k feeds Gamma_i
        w, dw = f.weights_and_grads(x)
        n = w.ndim - 1
        # Gamma_1 and Gamma_2 as one product, a row per (node, i)
        gam = f.combine(w[..., None] * feeds.T.reshape(
            (-1,) + (1,) * n + (2,)))
        curl = f.combine(dw[0] * _lift(feeds[1], n)
                         - dw[1] * _lift(feeds[0], n))
        add_commutator(curl, gam[..., 0, :, :], gam[..., 1, :, :])
        f12 = _seen(None if qm is None else qm[..., 0, :, :], curl)
        gam = _seen(qm, gam)
        return (gam if log_dq is None else gam + log_dq), f12

    @classmethod
    def zero(cls, rank: int) -> "ConnectionField":
        return cls.from_terms(rank, [], 0)

    @classmethod
    def from_terms(cls, rank: int, terms: Sequence[SeparableTerm],
                   decay_N: int) -> "ConnectionField":
        """Term k feeds the symbol Gamma_{dir_k}; no terms is zero."""
        terms = list(terms)
        f = _Separable(rank, [(t.generator, t.bump) for t in terms], decay_N)
        dirs = np.array([t.direction for t in terms], dtype=int)
        conn = cls(rank, decay_N, _terms=(f, dirs))
        if terms:
            _check_field(conn.symbols, decay_N, "connection symbols")
        return conn


@dataclass(eq=False)
class HiggsFieldData:
    """Skew-Hermitian Higgs field with rho^(N+1) decay, held as data:
    separable terms with a real coefficient each, Phi = sum_k c_k w_k S_k
    (``from_terms`` with c_k = 1, a reconstruction iterate), seen through
    at most one gauge Q, Phi = Q* Phi_terms Q (``gauge_transform``)."""

    rank: int
    decay_N1: int
    # (separable field, coefficient of each term, None for ones: no
    # multiply in the stacked sum) and the gauge Q or None
    _terms: tuple[_Separable, Optional[np.ndarray]]
    _gauge: Optional[GaugeField] = None

    @property
    def is_zero(self) -> bool:
        """No terms: a field whose decay exponent says nothing."""
        return not len(self._terms[0].gens)

    def phi(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        qm = None if self._gauge is None else self._gauge.q(x)
        f, coeffs = self._terms
        w = f.weights(x)
        return _seen(qm, f.combine(
            w if coeffs is None else w * _lift(coeffs, w.ndim - 1)))

    def adjoint(self) -> "HiggsFieldData":
        """Phi* = -Phi: the same terms with negated coefficients, under
        the same gauge."""
        f, coeffs = self._terms
        neg = -np.ones(len(f.gens)) if coeffs is None else -coeffs
        return replace(self, _terms=(f, neg))

    @classmethod
    def zero(cls, rank: int) -> "HiggsFieldData":
        return cls.from_terms(rank, [], 0)

    @classmethod
    def from_terms(cls, rank: int,
                   terms: Sequence[tuple[np.ndarray, GaussBump]],
                   decay_N1: int) -> "HiggsFieldData":
        f = _Separable(rank, terms, decay_N1)
        higgs = cls(rank, decay_N1, _terms=(f, None))
        if len(f.gens):
            _check_field(higgs.phi, decay_N1, "Higgs field")
        return higgs


def _seen(qm: Optional[np.ndarray], value: np.ndarray) -> np.ndarray:
    """qm* value qm, shape (..., d, d), or value where there is no gauge."""
    return value if qm is None else mul(mul(dagger(qm), value), qm)


def _check_field(evaluate, decay: int, what: str) -> None:
    """The construction checks of a field built from outside data: its
    values at ``validation_points`` are skew-Hermitian and decay like
    rho^decay."""
    pts = validation_points()
    values = evaluate(pts)
    _check_skew(values, what)
    if decay == 0:
        return
    norms = frobenius(values)
    while norms.ndim > 1:
        norms = np.max(norms, axis=-1)
    rho = _rho(pts)
    interior = np.max(norms / np.maximum(rho, 0.5) ** decay)
    ring = rho < 0.05
    if interior == 0.0 or not np.any(ring):
        return
    bound = 4.0 * interior * rho[ring] ** decay
    if not np.all(norms[ring] <= np.maximum(bound, 1e-13)):
        raise DomainError(f"{what} do not decay like rho^{decay}")


def _stacked_generator(conn_terms: tuple[_Separable, np.ndarray],
                       higgs_terms: tuple[_Separable, Optional[np.ndarray]]):
    """x, v -> (A, w) for the terms of a connection and of a Higgs field
    (their ``_terms``).  A = -(Gamma(v) + Phi) of those terms,
    matrix-first, shape (d, d) + nodes, the nodes being the broadcast of
    x's and v's leading axes; w holds the Higgs terms' weights rho^N beta_k
    before their coefficients, terms-first, shape (K_Phi,) + x's leading
    axes.

    A is one separable sum over all K_Gamma + K_Phi terms: one rho, rho^N
    once per decay exponent, one bump pass, the velocity component on the
    connection terms, the coefficients on the Higgs terms, and one product
    of those weights with the negated, stacked generators.  Each weight
    has the bits of the same weight in ``along`` or ``phi``; A differs
    from -(Gamma(v) + Phi) by the rounding of one sum against two.
    """
    (fc, dirs), (fh, coeffs) = conn_terms, higgs_terms
    # Gamma_1's terms, then Gamma_2's: each block takes one component of v.
    # Sorted in Python: a first np.argsort or np.sum touches 0.2-0.4 MB of
    # NumPy's code pages, which would count against the peak RSS of a run
    order = sorted(range(len(dirs)), key=lambda i: dirs[i])
    d, k, k0 = fc.rank, len(dirs), list(dirs).count(0)
    centers = np.concatenate([fc._centers[order], fh._centers])
    sigma2 = np.concatenate([fc._sigma2[order], fh._sigma2])
    gens = -np.concatenate([fc.gens[order], fh.gens]).reshape(-1, d * d)
    # row ij holds the (re, im) of entry ij of every -S_k, so the product
    # (nodes, K) x (K, 2) of row ij is entry ij over the nodes
    neg = np.ascontiguousarray(
        gens.view(float).reshape(len(gens), d * d, 2).transpose(1, 0, 2))

    def generator(x, v):
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        nodes = x.shape[:-1] if v.shape == x.shape \
            else np.broadcast_shapes(x.shape[:-1], v.shape[:-1])
        n = len(nodes)
        w_all = _bumps(x, centers, sigma2)
        rho = _rho(x)[None]
        rho_c = rho**fc.decay
        w_all[:k] *= rho_c
        w_all[k:] *= rho_c if fh.decay == fc.decay else rho**fh.decay
        w, w_conn = np.empty((len(w_all),) + nodes), _lift(w_all[:k], n)
        np.multiply(w_conn[:k0], v[..., 0], out=w[:k0])
        np.multiply(w_conn[k0:], v[..., 1], out=w[k0:k])
        np.multiply(_lift(w_all[k:], n),
                    1.0 if coeffs is None else _lift(coeffs, n), out=w[k:])
        a = np.matmul(w.reshape(len(w), math.prod(nodes)).T, neg)
        return a.view(complex).reshape((d, d) + nodes), w_all[k:]

    return generator


class GaugeField:
    """Unitary gauge Q(x) = exp(rho(x)^M * S(x)), identity on the boundary,
    or a product Q_1 Q_2 ... of such (``compose``): ``_factors`` holds the
    exponents in order, and ``decay_M`` is the smallest of their M."""

    def __init__(self, rank: int,
                 terms: Sequence[tuple[np.ndarray, GaussBump]],
                 decay_M: int):
        if decay_M < 1:
            raise DomainError("gauge decay exponent must be >= 1")
        self.rank = rank
        self.decay_M = decay_M
        self._factors = (_Separable(rank, terms, decay_M),)
        q_ring = self.q(validation_points(n=64, r_max=math.sqrt(1 - 1e-4)))
        if float(np.max(unitary_defect(q_ring))) >= _SKEW_TOL:
            raise DomainError("gauge field failed the unitarity check")

    def q(self, x: np.ndarray) -> np.ndarray:
        return functools.reduce(mul, [expm_skew(f.combine(f.weights(x)))
                                      for f in self._factors])

    def log_derivative(self, x: np.ndarray, v: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Q and Q^-1 dQ(v), each shape (..., d, d): per factor the exact
        Frechet derivative in the direction dP(v), from its diagonalisation;
        for Q1 Q2, Q^-1 dQ(v) = Q2* (Q1^-1 dQ1(v)) Q2 + Q2^-1 dQ2(v)."""
        v = _last_first(np.asarray(v, dtype=float))[:, None]
        q = log_dq = None
        for f in self._factors:
            w, dw = f.weights_and_grads(x)
            n = max(dw.ndim, v.ndim) - 2
            dp = (_lift(dw[0], n) * _lift(v[0], n)
                  + _lift(dw[1], n) * _lift(v[1], n))
            q2, l2 = expm_skew(f.combine(w), f.combine(dp))
            q, log_dq = (q2, l2) if q is None else (
                mul(q, q2), mul(mul(dagger(q2), log_dq), q2) + l2)
        return q, log_dq

    def dq(self, x: np.ndarray) -> np.ndarray:
        """Partials d_i Q, shape (..., 2, d, d)."""
        x = np.asarray(x, dtype=float)
        q, log_dq = self.log_derivative(x[..., None, :], np.eye(2))
        return q @ log_dq

    def compose(self, other: "GaugeField") -> "GaugeField":
        """The pointwise product Q_self Q_other: both factor lists, joined."""
        if self.rank != other.rank:
            raise RankMismatchError("gauge rank mismatch")
        product = copy.copy(self)
        product.decay_M = min(self.decay_M, other.decay_M)
        product._factors = self._factors + other._factors
        return product


def gauge_transform(conn: ConnectionField, higgs: HiggsFieldData,
                    q: GaugeField
                    ) -> tuple[ConnectionField, HiggsFieldData]:
    """Apply the gauge relation: Gamma(v) becomes Q* Gamma(v) Q + Q^-1 dQ(v),
    the Higgs field conjugates, and curvature conjugates exactly.  Each
    field keeps its terms, and its gauge P becomes P Q (``compose``), one
    object for both fields when they shared P."""
    if not (conn.rank == higgs.rank == q.rank):
        raise RankMismatchError("rank mismatch between connection, Higgs, gauge")
    decay = q.decay_M - 1 if conn.is_zero \
        else min(conn.decay_N, q.decay_M - 1)
    gauge = q if conn._gauge is None else conn._gauge.compose(q)
    new_conn = replace(conn, decay_N=decay, _gauge=gauge)
    _check_field(new_conn.symbols, decay, "connection symbols")
    if higgs._gauge is not conn._gauge:
        gauge = q if higgs._gauge is None else higgs._gauge.compose(q)
    new_higgs = replace(higgs, _gauge=gauge)
    _check_field(new_higgs.phi, higgs.decay_N1, "Higgs field")
    return new_conn, new_higgs


def _term_key(conn_terms: tuple[_Separable, np.ndarray],
              higgs_terms: tuple[_Separable, Optional[np.ndarray]]) -> tuple:
    """The values that fix a block's stacked sum, as bytes: generators,
    centers, sigma^2 and decay of both term sets, the directions and the
    coefficients.  Blocks of equal keys form the same sum bit for bit."""
    (fc, dirs), (fh, coeffs) = conn_terms, higgs_terms
    return (fc.rank, fc.decay, fh.decay, dirs.tobytes(),
            None if coeffs is None else coeffs.tobytes(),
            *(a.tobytes() for f in (fc, fh)
              for a in (f.gens, f._centers, f._sigma2)))


def _blocks(conn: ConnectionField, higgs: HiggsFieldData) -> list:
    """(gauge, connection terms, Higgs terms) of each stacked sum of a
    pair: one block when the fields share their gauge (or have none),
    else one per field with an empty partner of its decay, so rho^N is
    formed once per block.  A block without terms adds only zeros and is
    left out (a gauge of the zero connection is its Q^-1 dQ(v) alone),
    unless nothing else forms A."""
    p, q = conn._gauge, higgs._gauge
    fc, fh = conn._terms[0], higgs._terms[0]
    if p is q:
        blocks = [(p, conn._terms, higgs._terms)]
    else:
        blocks = [(p, conn._terms, (_Separable(fc.rank, [], fc.decay), None)),
                  (q, (_Separable(fh.rank, [], fh.decay),
                       np.zeros(0, dtype=int)), higgs._terms)]
    kept = [blk for blk in blocks if len(blk[1][1]) + len(blk[2][0].gens)]
    return kept if kept or p is not None else blocks[:1]


def _generators(pairs: Sequence[tuple[ConnectionField, HiggsFieldData]]):
    """x, v -> [(A, w) of each pair] at one node set: A = -(Gamma(v) +
    Phi), matrix-first, shape (d, d) + nodes, and w the Higgs terms'
    weights (``_stacked_generator``).

    One rule for every pair: one stacked sum of the terms per distinct
    gauge of the pair (``_blocks``), each conjugated to Q* G Q, minus the
    connection gauge's Q^-1 dQ(v), Q and Q^-1 dQ(v) from one
    ``log_derivative``.  Over several pairs, blocks with equal terms
    (``_term_key``) share one stacked sum and pairs with one connection
    gauge (the same object) one ``log_derivative``, whose Q also serves
    that gauge on a Higgs block (else ``q``), so a pair and its gauge
    transform cost one bump pass and one ``log_derivative`` per node, and
    each pair's A and w keep the bits of ``_generator``."""
    sums, plans = {}, []
    for conn, higgs in pairs:
        keyed = []
        for g, c, h in _blocks(conn, higgs):
            key = _term_key(c, h)
            if key not in sums:
                sums[key] = _stacked_generator(c, h)
            keyed.append((g, key))
        plans.append((conn._gauge, keyed))

    def conjugated(qm, a):
        return mul_first(mul_first(np.conj(qm.swapaxes(0, 1)), a), qm)

    def generator(x, v):
        # the gauges first, as in ``ConnectionField.along``
        logs = {p: [matrix_first(b) for b in p.log_derivative(x, v)]
                for p in dict.fromkeys(p for p, _ in plans) if p is not None}
        values = {key: block(x, v) for key, block in sums.items()}
        out = []
        for p, keyed in plans:
            a = None if p is None else -logs[p][1]
            w = np.empty((0,) + np.shape(x)[:-1])  # for a pair without blocks
            for g, key in keyed:
                b, w = values[key]
                if g is not None:
                    b = conjugated(logs[g][0] if g in logs
                                   else matrix_first(g.q(x)), b)
                # IEEE rounding is sign-symmetric, so this is -(Gamma(v) +
                # Phi) from ``along`` and ``phi`` bit for bit; no sum is
                # added into, as another pair may read it
                a = b if a is None else a + b
            out.append((a, w))
        return out

    return generator


def _generator(conn: ConnectionField, higgs: HiggsFieldData):
    """x, v -> (A, w) of one pair by the rule of ``_generators``."""
    generator = _generators([(conn, higgs)])
    return lambda x, v: generator(x, v)[0]


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
