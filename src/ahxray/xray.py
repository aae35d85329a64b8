"""Scattering datasets over geodesic fans and gauge recovery from them.

A dataset is the desk-scale realization of the non-abelian X-ray transform:
one invertible matrix per incoming boundary datum, obtained by solving the
fundamental transport system along the corresponding geodesic.  Datasets of
gauge-equivalent pairs agree up to the truncation level, which is the
forward direction of the gauge-equivalence theorem; the reverse pipeline
recovers the gauge and checks that it has fiber degree zero.  The gauge is
the quotient Q = U Utilde^{-1} of the two entry-normalized endomorphism
solutions; with W_A, W_B the fundamental systems of the two pairs and Psi_A
pair A's parallel transport, U = W_A Psi_A^{-1} and Utilde = W_B Psi_A^{-1},
so Psi_A cancels and Q = W_A W_B^{-1}, computed from two rank-d systems.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ._linalg import frobenius, mul, unitary_defect
from .bundle import ConnectionField, HiggsFieldData
from .errors import (DatasetError, DomainError, FanMismatchError,
                     IllConditionedGaugeError, InsufficientCrossingsError,
                     TrappedGeodesicError)
from .geometry import (AHModel, BoundaryDatum, DiskGeodesic, Direction,
                       GeodesicPath, IntegratorConfig, ModelKind,
                       shoot_from_boundary)
# scattering_matrix is not called here; it stays a module attribute
# because bench/spans.py wraps it by name
from .transport import (TransportConfig, _paired_rhs, batch_transport,
                        scattering_matrix, transport_rhs)


_OPENINGS = (math.pi / 3, 5 * math.pi / 3)   # the chord range swept


def _require_positive(**counts: int) -> None:
    for name, n in counts.items():
        if n < 1:
            raise DomainError(f"fan {name} must be at least 1, got {n}")


class FanMode(Enum):
    BOUNDARY_PAIRS = "boundary_pairs"
    SHOOTING = "shooting"


@dataclass(frozen=True)
class FanSpec:
    """Family of geodesics indexing a scattering dataset."""

    mode: FanMode
    pairs: tuple = ()            # (alpha_in, alpha_out) for BOUNDARY_PAIRS
    data: tuple = ()             # BoundaryDatum for SHOOTING

    def __post_init__(self):
        if self.mode is FanMode.BOUNDARY_PAIRS:
            for a, b in self.pairs:
                if abs(math.remainder(a - b, 2.0 * math.pi)) < 1e-9:
                    raise DomainError("degenerate boundary pair in fan")
        else:
            for datum in self.data:
                if datum.direction is not Direction.INCOMING:
                    raise DomainError("shooting fan data must be incoming")

    def __len__(self):
        return len(self.pairs) if self.mode is FanMode.BOUNDARY_PAIRS \
            else len(self.data)

    @classmethod
    def uniform_pairs(cls, count: int, n_openings: int = 8) -> "FanSpec":
        """Exactly ``count`` pairs: entry angles sweep the circle, openings
        sweep a chord range; the last entry angle may take only some."""
        _require_positive(count=count, openings=n_openings)
        n_in = max(1, math.ceil(count / n_openings))
        pairs = []
        openings = np.linspace(*_OPENINGS, n_openings)
        alphas = np.linspace(0.0, 2 * math.pi, n_in, endpoint=False)
        for a in alphas:
            for op in openings:
                pairs.append((float(a), float((a + op) % (2 * math.pi))))
        return cls(FanMode.BOUNDARY_PAIRS, pairs=tuple(pairs[:count]))

    @classmethod
    def uniform_shooting(cls, count: int, n_eta: int = 5,
                         eta_max: float = 2.0) -> "FanSpec":
        """Exactly ``count`` incoming data: entry angles sweep the circle,
        tangential components sweep [-eta_max, eta_max]; the last entry
        angle may take only some."""
        _require_positive(count=count, n_eta=n_eta)
        if not math.isfinite(eta_max):
            raise DomainError(f"fan eta_max must be finite, got {eta_max}")
        n_alpha = max(1, math.ceil(count / n_eta))
        data = []
        for a in np.linspace(0.0, 2 * math.pi, n_alpha, endpoint=False):
            for eta in np.linspace(-eta_max, eta_max, n_eta):
                data.append(BoundaryDatum(float(a), float(eta),
                                          Direction.INCOMING))
        return cls(FanMode.SHOOTING, data=tuple(data[:count]))


@dataclass
class ScatteringRecord:
    entry: BoundaryDatum
    exit: BoundaryDatum
    matrix: np.ndarray
    unitarity_defect: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise DomainError("scattering matrix has non-finite entries")
        if abs(np.linalg.det(self.matrix)) <= 1e-6:
            raise DomainError("scattering matrix is numerically singular")


def _finite(obj: dict, key: str) -> float:
    value = float(obj[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


@dataclass
class ScatteringDataset:
    fingerprint: str
    rank: int
    rho_cut: float
    records: list[ScatteringRecord]
    failures: list[tuple[tuple[float, float], str]] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"fingerprint": self.fingerprint,
                             "rank": self.rank, "rho_cut": self.rho_cut},
                            sort_keys=True)]
        for r in self.records:
            flat = []
            for z in r.matrix.reshape(-1):
                flat.extend([float(z.real), float(z.imag)])
            lines.append(json.dumps({
                "entry_alpha": r.entry.alpha,
                "entry_eta": r.entry.eta_tangential,
                "exit_alpha": r.exit.alpha,
                "exit_eta": r.exit.eta_tangential,
                "matrix": flat,
                "unitarity_defect": r.unitarity_defect,
            }, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ScatteringDataset":
        """Inverse of to_jsonl; malformed input, a rank that is not a
        positive integer or a number that is not finite raises
        DatasetError naming the line."""
        lines = [(num, ln) for num, ln in enumerate(text.splitlines(), 1)
                 if ln.strip()]
        if not lines:
            raise DatasetError("dataset has no header line")
        num, records = lines[0][0], []
        try:
            head = json.loads(lines[0][1])
            d = head["rank"]
            if type(d) is not int or d < 1:
                raise ValueError(
                    f"rank must be a positive integer, got {d!r}")
            fingerprint = str(head["fingerprint"])
            rho_cut = _finite(head, "rho_cut")
            for num, ln in lines[1:]:
                obj = json.loads(ln)
                flat = np.asarray(obj["matrix"], dtype=float)
                if flat.shape != (2 * d * d,):
                    raise ValueError(f"matrix needs {2 * d * d} numbers "
                                     "(row-major re,im pairs)")
                records.append(ScatteringRecord(
                    entry=BoundaryDatum(_finite(obj, "entry_alpha"),
                                        _finite(obj, "entry_eta"),
                                        Direction.INCOMING),
                    exit=BoundaryDatum(_finite(obj, "exit_alpha"),
                                       _finite(obj, "exit_eta"),
                                       Direction.OUTGOING),
                    matrix=flat.view(complex).reshape(d, d),
                    unitarity_defect=_finite(obj, "unitarity_defect")))
        except (KeyError, TypeError, ValueError) as err:
            raise DatasetError(f"line {num}: {type(err).__name__}: {err}") \
                from err
        return cls(fingerprint=fingerprint, rank=d, rho_cut=rho_cut,
                   records=records)


# crossing steps per transport step: a shooting fan crosses the bump at
# h = (incoming span) / (4 n_steps), the step of 2048 at the default 512
_CROSSING_REFINE = 4


def _fan(model: AHModel, fan: FanSpec, cfg: TransportConfig):
    """``fan_paths``, with the (entry, exit) boundary data of each path,
    computed once per path, between the paths and the failures."""
    paths, failures = [], []
    if fan.mode is FanMode.BOUNDARY_PAIRS:
        if model.kind is not ModelKind.POINCARE_DISK:
            raise DomainError(
                "a boundary-pair fan needs the unperturbed disk, where "
                "geodesics between boundary angles are closed form; on a "
                "perturbed model use a shooting fan")
        paths = [DiskGeodesic.between_boundary_angles(model, a, b,
                                                      cfg.rho_cut)
                 for a, b in fan.pairs]
    else:
        icfg = IntegratorConfig(rho_cut=cfg.rho_cut,
                                n_steps=_CROSSING_REFINE * cfg.n_steps)
        for datum in fan.data:
            try:
                paths.append(shoot_from_boundary(model, datum, cfg.rho_cut,
                                                 icfg))
            except TrappedGeodesicError as err:
                failures.append((datum.key(), str(err)))
    keyed = sorted(((p.boundary_data(), p) for p in paths),
                   key=lambda item: item[0][0].key())
    return [p for _, p in keyed], [data for data, _ in keyed], failures


def fan_paths(model: AHModel, fan: FanSpec,
              cfg: Optional[TransportConfig] = None
              ) -> tuple[list, list[tuple[tuple[float, float], str]]]:
    """The paths of a fan in dataset record order (sorted by entry key),
    and the (entry key, message) failures of rays that do not exit.

    A boundary-pair fan is its closed-form geodesics, which exist on the
    unperturbed disk only.  A shooting fan shoots each ray
    (``shoot_from_boundary``), crossing the bump at h = (incoming span) /
    (4 n_steps), the crossing step of 2048 steps at the default 512; a
    trapped ray is a failure, not a path.
    """
    paths, _, failures = _fan(model, fan, cfg or TransportConfig())
    return paths, failures


def compute_scattering_data(model: AHModel, conn: ConnectionField,
                            higgs: HiggsFieldData, fan: FanSpec,
                            cfg: Optional[TransportConfig] = None,
                            fingerprint: str = "") -> ScatteringDataset:
    """One scattering record per path of ``fan_paths``, in its order, from
    one ``batch_transport`` call; a trapped geodesic aborts its record, not
    the dataset."""
    cfg = cfg or TransportConfig()
    paths, data, failures = _fan(model, fan, cfg)
    dataset = ScatteringDataset(fingerprint=fingerprint, rank=conn.rank,
                                rho_cut=cfg.rho_cut, records=[],
                                failures=failures)
    mats = batch_transport(transport_rhs(conn, higgs), paths, conn.rank, cfg)
    for (entry, exit_), mat, defect in zip(data, mats, unitary_defect(mats)):
        dataset.records.append(ScatteringRecord(
            entry=entry, exit=exit_, matrix=mat,
            unitarity_defect=float(defect)))
    return dataset


@dataclass
class ComparisonReport:
    max_frobenius: float
    per_record: list[tuple[tuple[float, float], float]]


def _require_same_entries(entries_a: Sequence[BoundaryDatum],
                          entries_b: Sequence[BoundaryDatum]) -> None:
    if len(entries_a) != len(entries_b):
        raise FanMismatchError(f"fans differ in size: {len(entries_a)} vs "
                               f"{len(entries_b)} records")
    for ea, eb in zip(entries_a, entries_b):
        ka, kb = ea.key(), eb.key()
        # written so that a NaN key, which compares false, is refused
        if not (abs(ka[0] - kb[0]) <= 1e-6 and abs(ka[1] - kb[1]) <= 1e-6):
            raise FanMismatchError(f"entry keys differ: {ka} vs {kb}")


def require_fan(data: ScatteringDataset, paths: Sequence,
                rho_cut: float) -> None:
    """Refuse a dataset whose truncation level or entry keys differ from
    those of the record-ordered ``paths`` of ``fan_paths``."""
    if not math.isclose(data.rho_cut, rho_cut, rel_tol=1e-6):
        raise FanMismatchError(f"dataset rho_cut {data.rho_cut!r} differs "
                               f"from the configured {rho_cut!r}")
    _require_same_entries([r.entry for r in data.records],
                          [p.boundary_data()[0] for p in paths])


def compare_datasets(a: ScatteringDataset,
                     b: ScatteringDataset) -> ComparisonReport:
    """Pairwise Frobenius distances of records over a common fan."""
    if a.rank != b.rank:
        raise FanMismatchError("datasets have different ranks")
    _require_same_entries([r.entry for r in a.records],
                          [r.entry for r in b.records])
    per = [(ra.entry.key(), float(frobenius(ra.matrix - rb.matrix)))
           for ra, rb in zip(a.records, b.records)]
    return ComparisonReport(max_frobenius=max(d for _, d in per) if per
                            else 0.0, per_record=per)


def add_matrix_noise(dataset: ScatteringDataset, sigma: float,
                     seed: int) -> ScatteringDataset:
    """Additive Gaussian noise on matrix entries, for reconstruction
    experiments only."""
    rng = np.random.default_rng(seed)
    noisy = []
    for r in dataset.records:
        shape = r.matrix.shape
        noise = rng.normal(scale=sigma, size=shape) \
            + 1j * rng.normal(scale=sigma, size=shape)
        noisy.append(ScatteringRecord(entry=r.entry, exit=r.exit,
                                      matrix=r.matrix + noise,
                                      unitarity_defect=r.unitarity_defect))
    return ScatteringDataset(fingerprint=dataset.fingerprint,
                             rank=dataset.rank, rho_cut=dataset.rho_cut,
                             records=noisy)


# -- gauge recovery ----------------------------------------------------------


@dataclass
class GaugeCurve:
    """Gauge candidate Q(t) = W_A(t) W_B(t)^{-1} sampled along one
    geodesic."""

    t: np.ndarray          # (n,)
    x: np.ndarray          # (n, 2)
    v: np.ndarray          # (n, 2), unit velocity
    q: np.ndarray          # (n, d, d)


def gauge_candidate(model: AHModel,
                    pair_a: tuple[ConnectionField, HiggsFieldData],
                    pair_b: tuple[ConnectionField, HiggsFieldData],
                    path: GeodesicPath,
                    sample_times: Sequence[float],
                    cfg: Optional[TransportConfig] = None) -> GaugeCurve:
    """Gauge candidate Q = W_A W_B^{-1} along a geodesic from the two pairs'
    entry-normalized fundamental systems, tagged with base point and
    velocity.

    Both systems come from one march over the path taken twice
    (``transport._paired_rhs``), so the two pairs share the path's nodes, its
    snapshot side-steps and its scan.  For gauge-equivalent pairs the
    quotient reproduces the gauge along the lifted geodesic up to
    truncation and solver error.  The path is any that
    ``batch_transport`` takes; on a ray that crosses the bump, a sample
    time strictly inside the crossing is refused.
    """
    cfg = cfg or TransportConfig()
    prep = _paired_rhs(pair_a, pair_b)
    d = pair_a[0].rank
    sample_times = np.sort(np.asarray(sample_times, dtype=float))
    _, (ts, xs, vs, w) = batch_transport(prep, [path, path], d, cfg,
                                         sample_times)
    return GaugeCurve(t=ts[0], x=xs[0], v=vs[0],
                      q=_gauge_quotient(w[0], w[1]))


def _gauge_quotient(w_a: np.ndarray, w_b: np.ndarray) -> np.ndarray:
    """Q = W_A W_B^{-1}, refused when W_B is too ill-conditioned to invert."""
    conds = np.linalg.cond(w_b)
    if np.any(conds > 1e8):
        raise IllConditionedGaugeError(
            f"W_B condition number reached {conds.max():.2e}")
    return mul(w_a, np.linalg.inv(w_b))


def gauge_field_samples(model: AHModel,
                        pair_a: tuple[ConnectionField, HiggsFieldData],
                        pair_b: tuple[ConnectionField, HiggsFieldData],
                        points: np.ndarray, thetas: np.ndarray,
                        cfg: Optional[TransportConfig] = None) -> np.ndarray:
    """Gauge candidate sampled on a base-point x fiber-angle grid.

    For every (x, theta) the geodesic through that phase point is truncated
    at the sample time, so one vectorized march over those geodesics taken
    twice, once per pair (``transport._paired_rhs``), yields
    Q(x, theta) = W_A W_B^{-1} exactly at the requested nodes.  Output
    shape: (len(points), len(thetas), d, d).
    """
    cfg = cfg or TransportConfig()
    prep = _paired_rhs(pair_a, pair_b)
    d = pair_a[0].rank
    geos = []
    for x in np.asarray(points, dtype=float):
        for th in np.asarray(thetas, dtype=float):
            geo = DiskGeodesic.through(model, x, float(th), cfg.rho_cut)
            # integrate entry -> sample point only
            geos.append(geo.span(geo.t_entry, 0.0))
    w = batch_transport(prep, geos + geos, d, cfg)
    return _gauge_quotient(w[:len(geos)], w[len(geos):]).reshape(
        len(points), len(thetas), d, d)


# degree-zero check: cell edge, crossings, co-location radius, verdict bound
_CELL_SIZE = 0.05
_MIN_CROSSINGS = 3
_COLOCATION_TOL = 1e-6
_DEGREE_ZERO_TOL = 1e-4


@dataclass
class DegreeZeroReport:
    degree_zero: bool
    max_theta_variation: float
    mode0_residual: float
    mode1_residual: float
    cells_checked: int


def gauge_degree_zero_check(curves: Sequence[GaugeCurve],
                            pair_a: tuple[ConnectionField, HiggsFieldData],
                            pair_b: tuple[ConnectionField, HiggsFieldData]
                            ) -> DegreeZeroReport:
    """Degree-zero verdict for recovered gauge candidates.

    Samples are grouped by base-point cell.  In each cell crossed by enough
    distinct geodesics, one representative sample per geodesic enters the
    comparison: the sample closest (in summed nearest-neighbor distance) to
    the other geodesics' samples.  Only cells whose representatives
    co-locate within ``_COLOCATION_TOL`` are scored; the degree-zero
    statement is pointwise in the base point, and cells where curves merely
    pass near each other would measure spatial spread instead of fiber
    dependence.  The zeroth-mode relation Phi Q - Q Phi_tilde is evaluated
    on the representative averages; the first-mode relation (the
    endomorphism derivative of Q against Q times the connection
    difference) is differenced along each curve in time, where the
    sampling is dense, rather than across cells.  The verdict is degree
    zero when the fiber variation stays below ``_DEGREE_ZERO_TOL``.
    """
    conn_a, higgs_a = pair_a
    conn_b, higgs_b = pair_b

    # binning origin shifted by half a cell: round-number crossing points
    # (multiples of the cell size) then sit at cell centers, so sub-ulp
    # jitter in the sample positions cannot scatter them across cells
    cells: dict[tuple[int, int], dict[int, list[int]]] = {}
    for ci, curve in enumerate(curves):
        keys = np.floor(curve.x / _CELL_SIZE + 0.5).astype(int).tolist()
        for si, key in enumerate(keys):
            cells.setdefault(tuple(key), {}).setdefault(ci, []).append(si)

    max_var = 0.0
    mode0 = 0.0
    checked = 0
    for key, members in cells.items():
        if len(members) < _MIN_CROSSINGS:
            continue
        reps = {}
        for ci, sis in members.items():
            xs_own = curves[ci].x[sis]
            score = np.zeros(len(sis))
            for cj, sjs in members.items():
                if cj == ci:
                    continue
                xs_other = curves[cj].x[sjs]
                dists = np.linalg.norm(
                    xs_own[:, None, :] - xs_other[None, :, :], axis=-1)
                score += dists.min(axis=1)
            reps[ci] = sis[int(np.argmin(score))]
        pairs = list(reps.items())
        xs = np.array([curves[ci].x[si] for ci, si in pairs])
        dists = np.linalg.norm(xs[:, None, :] - xs[None, :, :], axis=-1)
        # keep the largest co-located cluster; geodesics that merely pass
        # through the cell without meeting the others are left out
        neighbor_counts = np.sum(dists <= _COLOCATION_TOL, axis=1)
        anchor = int(np.argmax(neighbor_counts))
        cluster = np.nonzero(dists[anchor] <= _COLOCATION_TOL)[0]
        if cluster.size < _MIN_CROSSINGS:
            continue
        checked += 1
        xs = xs[cluster]
        qs = np.array([curves[pairs[i][0]].q[pairs[i][1]] for i in cluster])
        diffs = frobenius(qs[:, None, :, :] - qs[None, :, :, :])
        max_var = max(max_var, float(np.max(diffs)))
        q_bar = np.mean(qs, axis=0)
        x_bar = np.mean(xs, axis=0)
        res = mul(higgs_a.phi(x_bar), q_bar) - mul(q_bar, higgs_b.phi(x_bar))
        mode0 = max(mode0, float(frobenius(res)))
    if checked == 0:
        raise InsufficientCrossingsError(
            f"no cell of size {_CELL_SIZE} has >= {_MIN_CROSSINGS} crossings "
            "at a common base point")

    # the interior samples of every curve, one field evaluation per pair
    parts = []
    for curve in curves:
        if len(curve.t) < 5:
            continue
        dt = np.diff(curve.t)
        if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-12):
            continue                      # time-differencing needs uniform t
        h = dt[0]
        dq = (curve.q[:-4] - 8 * curve.q[1:-3] + 8 * curve.q[3:-1]
              - curve.q[4:]) / (12.0 * h)
        mid = slice(2, -2)
        parts.append((dq, curve.x[mid], curve.v[mid], curve.q[mid]))
    mode1 = 0.0
    if parts:
        dq, x_m, v_m, q_m = (np.concatenate(p) for p in zip(*parts))
        gam = conn_a.along(x_m, v_m)
        a_dir = conn_b.along(x_m, v_m) - gam
        xq = dq + mul(gam, q_m) - mul(q_m, gam)
        res = xq - mul(q_m, a_dir)
        mode1 = float(np.max(frobenius(res)))

    return DegreeZeroReport(degree_zero=max_var < _DEGREE_ZERO_TOL,
                            max_theta_variation=max_var,
                            mode0_residual=mode0, mode1_residual=mode1,
                            cells_checked=checked)
