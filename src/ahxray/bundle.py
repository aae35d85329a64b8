"""Hermitian bundle data on the disk: connections, Higgs fields, gauges.

The bundle is the trivial one, M x C^d with the standard Hermitian product.
Unitary connections are given by skew-Hermitian symbol matrices Gamma_1,
Gamma_2; Higgs fields by a skew-Hermitian endomorphism Phi.  Fields are
parametrized as finite sums of separable terms rho(x)^N * S * beta(x) with a
constant skew-Hermitian generator S and a smooth scalar bump beta, so all
first partials used by the curvature formula are analytic.  Gauge fields are
Q(x) = exp(rho^M * S(x)), unitary by construction and equal to the identity
on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import (ad_representation, dagger, expm_skew,
                      expm_skew_frechet, frobenius, skew_defect,
                      spectral_norm_skew, unitary_defect)
from .errors import DomainError, RankMismatchError
from .geometry import AHModel, PhasePoint

_SKEW_TOL = 1e-12


@dataclass(frozen=True)
class GaussBump:
    """Smooth scalar bump exp(-|x - c|^2 / (2 sigma^2))."""

    center: tuple[float, float]
    sigma: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        dx = np.asarray(x, dtype=float) - np.asarray(self.center)
        return np.exp(-np.sum(dx * dx, axis=-1) / (2.0 * self.sigma**2))

    def grad(self, x: np.ndarray) -> np.ndarray:
        dx = np.asarray(x, dtype=float) - np.asarray(self.center)
        return self(x)[..., None] * (-dx / self.sigma**2)


def _check_skew(mat: np.ndarray, what: str) -> None:
    worst = float(np.max(skew_defect(mat)))
    if worst >= _SKEW_TOL:
        raise DomainError(f"{what} is not skew-Hermitian (defect {worst:.2e})")


def _rho(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 1.0 - np.sum(x * x, axis=-1)


def validation_points(n: int = 48, r_max: float = 0.999) -> np.ndarray:
    """Deterministic interior grid used for construction-time checks."""
    axis = np.linspace(-r_max, r_max, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    return pts[np.sum(pts * pts, axis=-1) < r_max**2]


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


class ConnectionField:
    """Unitary connection: skew-Hermitian symbols with rho^N decay.

    ``symbols(x)`` returns shape (..., 2, d, d).  Analytic first partials
    (``symbol_derivs``, shape (..., 2, 2, d, d), index order d_j Gamma_i)
    or a direct curvature evaluator back the curvature computation; gauge
    transforms carry curvature by conjugation, which is exact.
    """

    def __init__(self, rank: int, symbols: Callable[[np.ndarray], np.ndarray],
                 decay_N: int,
                 symbol_derivs: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 curvature: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 validate: bool = True, is_zero: bool = False):
        self.rank = rank
        self.decay_N = decay_N
        self.is_zero = is_zero
        self._symbols = symbols
        self._symbol_derivs = symbol_derivs
        self._curvature = curvature
        if validate:
            self._validate()

    def symbols(self, x: np.ndarray) -> np.ndarray:
        return self._symbols(np.asarray(x, dtype=float))

    def symbol_derivs(self, x: np.ndarray) -> np.ndarray:
        if self._symbol_derivs is None:
            raise DomainError("connection carries no analytic symbol derivatives")
        return self._symbol_derivs(np.asarray(x, dtype=float))

    def along(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Contraction Gamma(v) = v^i Gamma_i, shape (..., d, d)."""
        gam = self.symbols(x)
        return np.einsum("...i,...ikl->...kl", np.asarray(v, float), gam)

    def curvature_f12(self, x: np.ndarray) -> np.ndarray:
        """The single independent curvature component, shape (..., d, d)."""
        if self._curvature is not None:
            return self._curvature(np.asarray(x, dtype=float))
        d = self.symbol_derivs(x)     # (..., j, i, d, d) = d_j Gamma_i
        gam = self.symbols(x)
        comm = gam[..., 0, :, :] @ gam[..., 1, :, :] \
            - gam[..., 1, :, :] @ gam[..., 0, :, :]
        return d[..., 0, 1, :, :] - d[..., 1, 0, :, :] + comm

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
        if np.any(norms[ring] > np.maximum(bound, 1e-13)):
            raise DomainError(f"{what} do not decay like rho^{n_decay}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "ConnectionField":
        def symbols(x):
            return np.zeros(np.shape(x)[:-1] + (2, rank, rank), dtype=complex)

        def derivs(x):
            return np.zeros(np.shape(x)[:-1] + (2, 2, rank, rank),
                            dtype=complex)

        return cls(rank, symbols, decay_N=0, symbol_derivs=derivs,
                   curvature=lambda x: np.zeros(
                       np.shape(x)[:-1] + (rank, rank), dtype=complex),
                   validate=False, is_zero=True)

    @classmethod
    def from_terms(cls, rank: int, terms: Sequence[SeparableTerm],
                   decay_N: int) -> "ConnectionField":
        terms = list(terms)
        for t in terms:
            if t.generator.shape != (rank, rank):
                raise RankMismatchError("generator rank mismatch")

        def symbols(x):
            out = np.zeros(np.shape(x)[:-1] + (2, rank, rank), dtype=complex)
            rho_n = _rho(x) ** decay_N
            for t in terms:
                out[..., t.direction, :, :] += \
                    (rho_n * t.bump(x))[..., None, None] * t.generator
            return out

        def derivs(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(np.shape(x)[:-1] + (2, 2, rank, rank),
                           dtype=complex)
            rho = _rho(x)
            drho = -2.0 * x                      # d_j rho
            for t in terms:
                beta = t.bump(x)
                dbeta = t.bump.grad(x)
                coeff = (decay_N * rho ** max(decay_N - 1, 0))[..., None] \
                    * drho * beta[..., None] + rho[..., None] ** decay_N * dbeta
                out[..., :, t.direction, :, :] += \
                    coeff[..., :, None, None] * t.generator
            return out

        return cls(rank, symbols, decay_N, symbol_derivs=derivs)


class HiggsFieldData:
    """Skew-Hermitian Higgs field with rho^(N+1) decay."""

    def __init__(self, rank: int, phi: Callable[[np.ndarray], np.ndarray],
                 decay_N1: int, validate: bool = True):
        self.rank = rank
        self.decay_N1 = decay_N1
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
                              self.decay_N1, validate=False)

    @classmethod
    def zero(cls, rank: int) -> "HiggsFieldData":
        return cls(rank, lambda x: np.zeros(
            np.shape(x)[:-1] + (rank, rank), dtype=complex), 0,
            validate=False)

    @classmethod
    def from_terms(cls, rank: int,
                   terms: Sequence[tuple[np.ndarray, GaussBump]],
                   decay_N1: int) -> "HiggsFieldData":
        gens = [np.asarray(s, dtype=complex) for s, _ in terms]
        for g in gens:
            _check_skew(g, "Higgs generator")
            if g.shape != (rank, rank):
                raise RankMismatchError("generator rank mismatch")
        bumps = [b for _, b in terms]

        def phi(x):
            out = np.zeros(np.shape(x)[:-1] + (rank, rank), dtype=complex)
            rho_n = _rho(x) ** decay_N1
            for gen, bump in zip(gens, bumps):
                out += (rho_n * bump(x))[..., None, None] * gen
            return out

        return cls(rank, phi, decay_N1)


class GaugeField:
    """Unitary gauge Q(x) = exp(rho(x)^M * S(x)), identity on the boundary."""

    def __init__(self, rank: int,
                 terms: Sequence[tuple[np.ndarray, GaussBump]],
                 decay_M: int):
        if decay_M < 1:
            raise DomainError("gauge decay exponent must be >= 1")
        self.rank = rank
        self.decay_M = decay_M
        self._gens = []
        self._bumps = []
        for s, b in terms:
            s = np.asarray(s, dtype=complex)
            _check_skew(s, "gauge generator")
            if s.shape != (rank, rank):
                raise RankMismatchError("gauge generator rank mismatch")
            self._gens.append(s)
            self._bumps.append(b)
        q_ring = self.q(validation_points(n=64, r_max=math.sqrt(1 - 1e-4)))
        if float(np.max(unitary_defect(q_ring))) >= _SKEW_TOL:
            raise DomainError("gauge field failed the unitarity check")

    def _exponent(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(x)[:-1] + (self.rank, self.rank),
                       dtype=complex)
        rho_m = _rho(x) ** self.decay_M
        for gen, bump in zip(self._gens, self._bumps):
            out += (rho_m * bump(x))[..., None, None] * gen
        return out

    def _exponent_derivs(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.shape(x)[:-1] + (2, self.rank, self.rank),
                       dtype=complex)
        rho = _rho(x)
        drho = -2.0 * x
        for gen, bump in zip(self._gens, self._bumps):
            beta = bump(x)
            coeff = (self.decay_M * rho ** (self.decay_M - 1))[..., None] \
                * drho * beta[..., None] \
                + rho[..., None] ** self.decay_M * bump.grad(x)
            out += coeff[..., :, None, None] * gen
        return out

    def q(self, x: np.ndarray) -> np.ndarray:
        return expm_skew(self._exponent(np.asarray(x, dtype=float)))

    def dq(self, x: np.ndarray) -> np.ndarray:
        """Partials d_i Q, shape (..., 2, d, d), exact Frechet derivatives."""
        x = np.asarray(x, dtype=float)
        p = self._exponent(x)
        dp = self._exponent_derivs(x)
        return np.stack([expm_skew_frechet(p, dp[..., i, :, :])
                         for i in range(2)], axis=-3)

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
        return self._first.q(x) @ self._second.q(x)

    def dq(self, x: np.ndarray) -> np.ndarray:
        q1 = self._first.q(x)[..., None, :, :]
        q2 = self._second.q(x)[..., None, :, :]
        return self._first.dq(x) @ q2 + q1 @ self._second.dq(x)


@dataclass(frozen=True)
class CurvatureSample:
    """The single independent curvature component f_12 at a point."""

    f12: np.ndarray


def curvature_at(conn: ConnectionField, x: np.ndarray) -> CurvatureSample:
    """Curvature component f_12 = d_1 Gamma_2 - d_2 Gamma_1 + [Gamma_1, Gamma_2]."""
    x = np.asarray(x, dtype=float)
    if np.any(np.sum(x * x, axis=-1) >= 1.0):
        raise DomainError("curvature requested outside the open disk")
    return CurvatureSample(f12=conn.curvature_f12(x))


def curvature_operator(conn: ConnectionField, p: PhasePoint,
                       e: np.ndarray) -> np.ndarray:
    """Curvature operator F_v(e) as the coefficient of the g-unit normal.

    On a surface the normal bundle over v is spanned by the rotated unit
    vector, and raising the form index contributes exp(-2 Phi); the result
    is independent of the direction of v itself.
    """
    e = np.asarray(e, dtype=complex)
    if e.shape[-1] != conn.rank:
        raise RankMismatchError("fiber vector rank mismatch")
    f12 = conn.curvature_f12(p.x)
    scale = math.exp(-2.0 * float(p.model.log_conformal(p.x)))
    return scale * (f12 @ e)


def gauge_transform(conn: ConnectionField, higgs: HiggsFieldData,
                    q: "GaugeField | ComposedGauge"
                    ) -> tuple[ConnectionField, HiggsFieldData]:
    """Apply the gauge relation: symbols pick up Q^-1 Gamma Q + Q^-1 dQ,
    the Higgs field conjugates, and curvature conjugates exactly."""
    if not (conn.rank == higgs.rank == q.rank):
        raise RankMismatchError("rank mismatch between connection, Higgs, gauge")

    def symbols(x):
        qm = q.q(x)
        qi = dagger(qm)                      # unitary inverse
        dq = q.dq(x)
        return qi[..., None, :, :] @ (conn.symbols(x) @ qm[..., None, :, :]
                                      + dq)

    def curvature(x):
        qm = q.q(x)
        return dagger(qm) @ conn.curvature_f12(x) @ qm

    def phi(x):
        qm = q.q(x)
        return dagger(qm) @ higgs.phi(x) @ qm

    if conn.is_zero:
        decay = q.decay_M - 1
    else:
        decay = min(conn.decay_N, q.decay_M - 1)
    new_conn = ConnectionField(conn.rank, symbols, decay_N=decay,
                               curvature=curvature)
    new_higgs = HiggsFieldData(higgs.rank, phi, higgs.decay_N1)
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


def endomorphism_lift(conn: ConnectionField) -> ConnectionField:
    """Connection induced on endomorphisms: symbols act by commutator.

    The lifted symbols ad(Gamma_i) are skew-Hermitian for the Frobenius
    product, and the lifted curvature is ad(f_12), so zero curvature lifts
    to zero curvature.
    """
    d2 = conn.rank * conn.rank

    def symbols(x):
        gam = conn.symbols(x)
        return ad_representation(gam)

    def derivs(x):
        dg = conn.symbol_derivs(x)
        return ad_representation(dg)

    def curvature(x):
        return ad_representation(conn.curvature_f12(x))

    has_derivs = conn._symbol_derivs is not None
    return ConnectionField(d2, symbols, conn.decay_N,
                           symbol_derivs=derivs if has_derivs else None,
                           curvature=curvature, validate=False)
