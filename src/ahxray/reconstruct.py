"""Recovery of a skew-Hermitian Higgs field from scattering data.

For a fixed zero-curvature unitary connection the transform is injective
over decaying skew-Hermitian Higgs fields, which makes the noiseless
closed loop well posed: parametrize the field by finitely many
skew-Hermitian generators with spatial bumps and a common decay factor,
then minimize the stacked data misfit by damped Gauss-Newton with a small
Tikhonov term.  Every iterate keeps the exact decay and skewness by
construction.  The Jacobian of each Gauss-Newton iteration comes from one
tangent-linear sweep: the fixed-step march carries the jet (W, V_1..V_P)
of the fundamental system together with its derivatives in the P
coefficients, dV_k = -(M V_k + B_k W), which at Phi = 0 is the
matrix-weighted attenuated ray transform of the basis fields.  Since RK4
of a linear system is a polynomial in the step generators, V_k is the
exact derivative of the discrete forward map.  Central finite differences
(``jacobian_fd``) remain as the oracle.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._linalg import mul_first
from .bundle import (ConnectionField, GaussBump, HiggsFieldData, _generator,
                     _Separable, validation_points)
from .errors import DomainError, StagnationError
from .geometry import AHModel
from .transport import (TransportConfig, _require_decay, batch_transport,
                        transport_rhs)
from .xray import (FanSpec, ScatteringDataset, compute_scattering_data,
                   fan_paths, require_fan)


@dataclass
class HiggsParameterization:
    """Phi_c(x) = rho^(N+1) * sum_k c_k S_k beta_k(x) with real coefficients.

    Skew-Hermitian for every real coefficient vector since the generators
    are; the decay exponent is built in, so all iterates satisfy the
    injectivity hypotheses.
    """

    rank: int
    basis: Sequence[tuple[np.ndarray, GaussBump]]
    decay_N1: int
    coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        if len(self.basis) == 0:
            raise DomainError("reconstruction basis is empty: the "
                              "parameterization needs at least one field")
        self._field = _Separable(self.rank, self.basis, self.decay_N1)
        self.basis = [(s, b) for s, (_, b) in zip(self._field.gens,
                                                  self.basis)]
        self.coeffs = np.zeros(self.size) if self.coeffs is None \
            else self._coeff_vector(self.coeffs)
        self._check_independence()

    def _check_independence(self):
        # columns beta_k S_k at the points: the bare bumps, without decay
        bare = _Separable(self.rank, self.basis, 0)
        beta = bare.weights(validation_points(24)).T
        flat = bare.gens.reshape(self.size, -1).T
        mat = (beta[:, None, :] * flat).reshape(-1, self.size)
        sv = np.linalg.svd(np.concatenate([mat.real, mat.imag]),
                           compute_uv=False)
        if sv[-1] < 1e-10 * sv[0]:
            raise DomainError("basis fields are numerically dependent")

    @property
    def size(self) -> int:
        return len(self.basis)

    def _coeff_vector(self, c) -> np.ndarray:
        """c as floats; DomainError unless one finite real per field."""
        c = np.asarray(c, dtype=float)
        if c.shape != (self.size,) or not np.all(np.isfinite(c)):
            raise DomainError(f"coefficient vector of shape {c.shape} needs "
                              f"{self.size} finite entries")
        return c

    def with_coeffs(self, c: np.ndarray) -> "HiggsParameterization":
        out = copy.copy(self)
        out.coeffs = self._coeff_vector(c)
        return out

    def higgs(self, c: Optional[np.ndarray] = None) -> HiggsFieldData:
        """Phi_c: the basis as its terms and c as their coefficients.  Its
        values are not checked again: a real combination of generators
        checked skew-Hermitian at construction, times rho^(N+1)."""
        c = self.coeffs if c is None else self._coeff_vector(c)
        return HiggsFieldData(self.rank, self.decay_N1,
                              _terms=(self._field, c))


# Gauss-Newton: gradient norm that stops it, step halvings, rejected steps
_GRAD_TOL = 1e-10
_MAX_BACKTRACKS = 25
_STAGNATION_LIMIT = 5


@dataclass
class ReconstructionConfig:
    tikhonov: float = 1e-10
    max_iter: int = 30
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self):
        if not 0.0 <= self.tikhonov < math.inf:
            raise DomainError("tikhonov weight must be finite and "
                              f"nonnegative, got {self.tikhonov}")


@dataclass
class ReconstructionReport:
    coeffs: np.ndarray
    residual_history: list[float]
    data_misfit: float
    iterations: int
    converged: bool
    coeff_error: Optional[float] = None

    def as_dict(self) -> dict:
        out = {"coeffs": [float(c) for c in self.coeffs],
               "residual_history": self.residual_history,
               "data_misfit": self.data_misfit,
               "iterations": self.iterations,
               "converged": self.converged}
        if self.coeff_error is not None:
            out["coeff_error"] = self.coeff_error
        return out


def _require_flat(conn0: ConnectionField) -> None:
    from ._linalg import frobenius
    worst = float(np.max(frobenius(
        conn0.curvature_f12(validation_points(32)))))
    if worst >= 1e-8:
        raise DomainError(
            f"connection curvature {worst:.2e} is not numerically zero; "
            "injectivity of the transform needs a flat connection")


def forward_map(model: AHModel, conn0: ConnectionField,
                params: HiggsParameterization, fan: FanSpec,
                cfg: Optional[ReconstructionConfig] = None,
                fingerprint: str = "") -> ScatteringDataset:
    """Scattering dataset of the parametrized Higgs field (flat connection)."""
    cfg = cfg or ReconstructionConfig()
    _require_flat(conn0)
    return compute_scattering_data(model, conn0, params.higgs(), fan,
                                   cfg.transport, fingerprint=fingerprint)


def _fan_residual(conn0: ConnectionField, params: HiggsParameterization,
                  paths, cfg: TransportConfig, data):
    """c -> stacked real and imaginary parts of F(c) - data, where F is the
    forward map over the record-ordered ``paths`` of ``fan_paths`` (the
    computation of compute_scattering_data, with the fan built once)."""

    def residual(c: np.ndarray) -> np.ndarray:
        out = batch_transport(transport_rhs(conn0, params.higgs(c)),
                              paths, conn0.rank, cfg)
        diff = out - data
        return np.concatenate([diff.real.reshape(-1),
                               diff.imag.reshape(-1)])

    return residual


def _tangent_rhs(conn0: ConnectionField, params: HiggsParameterization,
                 c: np.ndarray):
    """prep(x, v) for the jet (W, V_1..V_P) of the fundamental system of
    M = Gamma(v) + Phi_c in the coefficients: dW = -M W and
    dV_k = -(M V_k + B_k W) with B_k = w_k S_k, w_k = rho^(N+1) beta_k.

    The weights w_k of a node are computed once and give both M, formed
    as ``transport_rhs(conn0, params.higgs(c))`` forms it
    (``bundle._generator``), and B_k W = w_k (S_k W).  The jet is
    matrix-first like every state of the march, shape (d, d, P + 1) and
    the node axes; the weights are terms-first, (P, ...), and the
    generators S_k a (d, d, P) stack.  A basis that decays slower than
    rho^1 is refused, as ``transport_rhs`` refuses such a Higgs field.
    """
    _require_decay(params.decay_N1, "the reconstruction basis")
    gens = np.ascontiguousarray(params._field.gens.transpose(1, 2, 0))
    generator = _generator(conn0, params.higgs(c))

    def prep(x, v):
        neg, weights = generator(x, v)
        neg = neg[:, :, None]
        s = gens.reshape(gens.shape + (1,) * (weights.ndim - 1))

        def rhs(u):
            out = mul_first(neg, u)
            out[:, :, 1:] -= weights * mul_first(s, u[:, :, :1])
            return out

        return rhs

    return prep


def _fan_jacobian(conn0: ConnectionField, params: HiggsParameterization,
                  paths, cfg: TransportConfig):
    """c -> Jacobian of ``_fan_residual`` at c from one tangent-linear
    sweep over ``paths``; column k stacks V_k like the residual stacks
    F(c) - data."""

    def jacobian(c: np.ndarray) -> np.ndarray:
        jet = batch_transport(_tangent_rhs(conn0, params, c), paths,
                              (conn0.rank, params.size), cfg)
        dv = np.moveaxis(jet[:, 1:], 1, -1).reshape(-1, params.size)
        return np.concatenate([dv.real, dv.imag])

    return jacobian


def jacobian_fd(model: AHModel, conn0: ConnectionField,
                params: HiggsParameterization, fan: FanSpec,
                c: np.ndarray,
                cfg: Optional[ReconstructionConfig] = None,
                h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the stacked residual, one column per
    basis coefficient, with step h: two forward solves per column.  The
    oracle for the tangent-linear Jacobian of ``reconstruct_higgs``."""
    if not 1e-8 <= h <= 1e-4:
        raise DomainError("fd step must lie in [1e-8, 1e-4]")
    cfg = cfg or ReconstructionConfig()
    _require_flat(conn0)
    paths, _ = fan_paths(model, fan, cfg.transport)
    residual = _fan_residual(conn0, params, paths, cfg.transport, 0.0)
    c = np.asarray(c, dtype=float)
    cols = []
    for k in range(len(c)):
        e = np.zeros_like(c)
        e[k] = h
        cols.append((residual(c + e) - residual(c - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def reconstruct_higgs(data: ScatteringDataset, model: AHModel,
                      conn0: ConnectionField,
                      params: HiggsParameterization, fan: FanSpec,
                      cfg: Optional[ReconstructionConfig] = None,
                      ground_truth: Optional[np.ndarray] = None
                      ) -> ReconstructionReport:
    """Damped Gauss-Newton output-least-squares from the zero field.

    Minimizes sum over records of the squared Frobenius misfit plus a
    Tikhonov term.  Accepted steps never increase the objective; five
    consecutive failures to decrease raise StagnationError with the
    partial report attached.
    """
    cfg = cfg or ReconstructionConfig()
    _require_flat(conn0)
    if data.rank != conn0.rank:
        raise DomainError("dataset rank does not match the connection")
    if params.rank != conn0.rank:
        raise DomainError(f"reconstruction basis rank {params.rank} does "
                          f"not match the connection's rank {conn0.rank}")
    paths, _ = fan_paths(model, fan, cfg.transport)
    require_fan(data, paths, cfg.transport.rho_cut)
    residual = _fan_residual(conn0, params, paths, cfg.transport,
                             np.array([r.matrix for r in data.records]))
    jacobian = _fan_jacobian(conn0, params, paths, cfg.transport)

    lam = cfg.tikhonov
    c = np.zeros(params.size)
    r = residual(c)

    def objective(res, cc):
        return float(res @ res + lam * cc @ cc)

    history = [objective(r, c)]
    stagnant = 0
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        jac = jacobian(c)
        grad = jac.T @ r + lam * c
        if np.linalg.norm(grad) < _GRAD_TOL:
            converged = True
            iterations -= 1
            break
        lhs = jac.T @ jac + lam * np.eye(params.size)
        step = np.linalg.solve(lhs, -grad)
        scale = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            c_try = c + scale * step
            r_try = residual(c_try)
            if objective(r_try, c_try) < history[-1]:
                c, r = c_try, r_try
                history.append(objective(r, c))
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            stagnant += 1
            if stagnant >= _STAGNATION_LIMIT:
                raise StagnationError(
                    "no residual decrease for "
                    f"{_STAGNATION_LIMIT} consecutive damped steps",
                    report=_report(c, history, r, iterations, False,
                                   ground_truth))
        else:
            stagnant = 0
            if abs(history[-2] - history[-1]) \
                    < 1e-16 * max(history[0], 1e-300):
                converged = True
                break
    return _report(c, history, r, iterations, converged, ground_truth)


def _report(c, history, r, iterations, converged, ground_truth):
    err = None
    if ground_truth is not None:
        truth = np.asarray(ground_truth, dtype=float)
        err = float(np.linalg.norm(c - truth)
                    / max(np.linalg.norm(truth), 1e-300))
    return ReconstructionReport(coeffs=c, residual_history=history,
                                data_misfit=float(np.linalg.norm(r)),
                                iterations=iterations, converged=converged,
                                coeff_error=err)
