"""The five benchmark workloads of ahxray.

Each workload turns a seed into plain inputs (experiment-config text, fan
sizes, a truth vector) when it is constructed; the library receives only
those inputs.  ``setup`` builds the library objects from them, ``solve``
is the timed unit of work (ending with the output text written to disk,
and calling ``lap()`` between its library calls so that the timer can read
the host's speed there),
``check`` applies the acceptance gates to one solve's output, and
``ref_errors`` (or ``distances``, against a stored or recomputed reference)
gives the error of every compared item of the output.

Sizes are smaller than the acceptance tests they are modelled on so that
one solve takes one to three seconds and a run times many of them;
the regime each workload stresses is kept (the ``why`` of each workload
in BENCHMARK.json).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ahxray
import ahxray.reconstruct as reconstruct
import ahxray.spherebundle as spherebundle
import ahxray.xray as xray
from ahxray.config import ExperimentConfig
from ahxray.geometry import DiskGeodesic
from ahxray.transport import TransportConfig
from ahxray.xray import FanMode, FanSpec, ScatteringDataset

DEFAULT_SEED = 20240817
REF_DIR = Path(__file__).resolve().parent / "refs"

SU2 = (np.array([[1j, 0], [0, -1j]]),
       np.array([[0, 1], [-1, 0]], dtype=complex),
       np.array([[0, 1j], [1j, 0]]))

# acceptance thresholds (tests/test_acceptance.py)
UNITARITY_GATE = 1e-7
GAUGE_GATE = 1e-5
DEGREE_ZERO_GATE = 1e-4
COEFF_GATE = 0.05
MAX_GN_ITERATIONS = 30
PESTOV_GATE = 1e-2


# -- input generation --------------------------------------------------------


def _matrix_text(mat: np.ndarray) -> str:
    return ",".join(repr(float(part)) for z in mat.reshape(-1)
                    for part in (z.real, z.imag))


def _su2(rng, scale: float) -> np.ndarray:
    """Random su(2) element of fixed Frobenius norm scale * sqrt(6)."""
    c = rng.normal(size=3)
    c *= math.sqrt(3.0) / np.linalg.norm(c)
    return scale * sum(ci * g for ci, g in zip(c, SU2))


def _field_section(rng, name: str, decay: int, n_terms: int, scale: float,
                   with_dir: bool, phase: float = 0.0) -> str:
    """Config section of a random rank-2 field.

    The seed draws each term's su(2) direction (and, for connections, its
    coordinate direction); the size of the terms and the layout of their
    bumps, on a ring of radius 0.25, are fixed.  Cost and accuracy of a
    solve then stay put across seeds instead of swinging with a bump that
    happens to sit on a steep stretch of some geodesic.
    """
    lines = [f"[{name}]", "rank = 2", f"decay = {decay}"]
    for k in range(n_terms):
        gen = _su2(rng, scale)
        angle = 2.0 * math.pi * k / n_terms + phase
        cx, cy = 0.25 * math.cos(angle), 0.25 * math.sin(angle)
        fields = [f"dir={int(rng.integers(0, 2))}"] if with_dir else []
        fields += [f"gen={_matrix_text(gen)}", f"center={cx!r},{cy!r}",
                   "sigma=0.3"]
        lines.append(f"term.{k} = " + "; ".join(fields))
    return "\n".join(lines) + "\n"


DISK_MODEL = "[model]\nkind = poincare_disk\n"


def _config_text(seed: int, *sections: str, model: str = DISK_MODEL) -> str:
    return "\n".join((f"[experiment]\nseed = {seed}\n", model) + sections)


def _fingerprint(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _report_json(cfg: ExperimentConfig, payload: dict) -> str:
    """Report layout of the CLI: fingerprint, version and seed first."""
    body = {"fingerprint": cfg.fingerprint(), "version": ahxray.__version__,
            "seed": cfg.seed}
    body.update(payload)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _unitary_defect(mats: np.ndarray) -> np.ndarray:
    """|U^H U - I|_F per matrix, computed here rather than trusted."""
    mats = np.asarray(mats)
    eye = np.eye(mats.shape[-1])
    prod = np.conj(np.swapaxes(mats, -1, -2)) @ mats - eye
    return np.sqrt(np.sum(np.abs(prod) ** 2, axis=(-2, -1)))


@dataclass
class Output:
    """One solve's output text plus what the gates and references read."""

    text: str
    data: dict


class Workload:
    name = ""
    ext = "json"
    sizes: dict = {}
    toy_sizes: dict = {}

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.toy = toy
        self.size = dict(self.toy_sizes if toy else self.sizes)
        self.rng = np.random.default_rng(seed)

    def setup(self):
        raise NotImplementedError

    def solve(self, state, out_path: Path, lap=None) -> Output:
        raise NotImplementedError

    def check(self, state, out: Output) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def ref_errors(self, state, out: Output) -> np.ndarray:
        """Error of every compared output item against the reference."""
        raise NotImplementedError

    def unitarity(self, out: Output):
        """Max unitarity defect of the output matrices, None if it has
        none."""
        return None

    # stored references (dataset workloads only)
    has_stored_reference = False


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _no_lap() -> None:
    """Lap hook of an untimed solve."""


# -- dataset workloads ---------------------------------------------------------


def _records_by_key(dataset: ScatteringDataset) -> dict:
    return {r.entry.key(): r.matrix for r in dataset.records}


def _dataset_payload(dataset: ScatteringDataset) -> list:
    return [{"entry": list(r.entry.key()),
             "matrix": [float(p) for z in r.matrix.reshape(-1)
                        for p in (z.real, z.imag)]}
            for r in dataset.records]


def _payload_matrices(records: list) -> dict:
    out = {}
    for rec in records:
        flat = np.asarray(rec["matrix"])
        d = int(round(math.sqrt(len(flat) // 2)))
        out[tuple(rec["entry"])] = (flat[0::2] + 1j * flat[1::2]).reshape(d, d)
    return out


class DatasetWorkload(Workload):
    """Workloads whose output is a scattering dataset written as JSONL."""

    ext = "jsonl"
    has_stored_reference = True

    def setup(self):
        cfg = ExperimentConfig.from_text(self.text)
        model, conn, higgs = cfg.build_pair()
        return {"cfg": cfg, "text": self.text, "model": model, "conn": conn,
                "higgs": higgs, "fan": cfg.build_fan(self.size["count"]),
                "tcfg": cfg.build_transport()}

    def solve(self, state, out_path, lap=_no_lap):
        dataset = xray.compute_scattering_data(
            state["model"], state["conn"], state["higgs"], state["fan"],
            state["tcfg"], fingerprint=state["cfg"].fingerprint())
        lap()
        text = dataset.to_jsonl()
        _write(out_path, text)
        return Output(text, {"dataset": dataset})

    def check(self, state, out):
        dataset = out.data["dataset"]
        checks = [(f"trapped {key}", False) for key, _ in dataset.failures]
        checks.append(("record count",
                       len(dataset.records) + len(dataset.failures)
                       == len(state["fan"])))
        for i, record in enumerate(dataset.records):
            checks.append((f"unitarity defect record {i}",
                           _unitary_defect(record.matrix) < UNITARITY_GATE))
        return checks

    def unitarity(self, out):
        mats = np.array([r.matrix for r in out.data["dataset"].records])
        return float(np.max(_unitary_defect(mats)))

    # reference: the same inputs solved at a higher resolution
    def reference_inputs(self, state) -> dict:
        raise NotImplementedError

    def reference_fingerprint(self, state) -> str:
        return _fingerprint(self.name, state["text"],
                            self.reference_inputs(state)["describe"])

    def compute_reference(self, state) -> list:
        ref = self.reference_inputs(state)
        dataset = xray.compute_scattering_data(
            state["model"], state["conn"], state["higgs"], ref["fan"],
            ref["tcfg"])
        return _dataset_payload(dataset)

    def distances(self, out, ref_records) -> np.ndarray:
        """Frobenius distance per reference record; a record missing from
        the output is infinitely far."""
        got = _records_by_key(out.data["dataset"])
        return np.array([np.linalg.norm(got[key] - mat) if key in got
                         else math.inf for key, mat
                         in _payload_matrices(ref_records).items()])


class ScatterFan(DatasetWorkload):
    name = "scatter_fan"
    sizes = dict(count=100, openings=10, n_steps=1024, ref_factor=4,
                 ref_stride=8)
    toy_sizes = dict(count=8, openings=4, n_steps=512, ref_factor=4,
                     ref_stride=2)

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        s = self.size
        self.text = _config_text(
            seed,
            _field_section(self.rng, "connection", 3, 3, 0.5, True),
            _field_section(self.rng, "higgs", 4, 3, 0.5, False, 0.5),
            f"[fan]\nmode = boundary_pairs\nopenings = {s['openings']}\n",
            f"[transport]\nn_steps = {s['n_steps']}\n")

    def reference_inputs(self, state):
        s = self.size
        steps = s["n_steps"] * s["ref_factor"]
        pairs = state["fan"].pairs[::s["ref_stride"]]
        return {"fan": FanSpec(FanMode.BOUNDARY_PAIRS, pairs=pairs),
                "tcfg": TransportConfig(rho_cut=state["tcfg"].rho_cut,
                                        n_steps=steps),
                "describe": {"pairs": pairs, "n_steps": steps,
                             "rho_cut": state["tcfg"].rho_cut}}


class ShootPerturbed(DatasetWorkload):
    name = "shoot_perturbed"
    sizes = dict(count=1, n_eta=1, eta_max=1.5, tighten=100.0)
    toy_sizes = dict(count=1, n_eta=1, eta_max=1.5, tighten=100.0)

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        s = self.size
        self.text = _config_text(
            seed,
            _field_section(self.rng, "connection", 3, 3, 0.5, True),
            _field_section(self.rng, "higgs", 4, 3, 0.5, False, 0.5),
            f"[fan]\nmode = shooting\nn_eta = {s['n_eta']}\n"
            f"eta_max = {s['eta_max']}\n",
            model="[model]\nkind = conformal_perturbed\n"
                  "bump_center = 0.25,-0.1\nbump_radius = 0.3\n"
                  "bump_amplitude = 0.04\n")

    def reference_inputs(self, state):
        tcfg = state["tcfg"]
        k = self.size["tighten"]
        ref = TransportConfig(rho_cut=tcfg.rho_cut, rtol=tcfg.rtol / k,
                              atol=tcfg.atol / k, n_steps=tcfg.n_steps)
        return {"fan": state["fan"], "tcfg": ref,
                "describe": {"fan": [d.key() for d in state["fan"].data],
                             "rtol": ref.rtol, "atol": ref.atol,
                             "rho_cut": ref.rho_cut}}


# -- reconstruction ------------------------------------------------------------


class ReconLoop(Workload):
    name = "recon_loop"
    # Gauss-Newton is capped at 4 iterations, which criterion 11 needs, so
    # every seed does the same number of forward solves
    sizes = dict(count=24, openings=8, n_steps=128, n_basis=6, max_iter=4)
    toy_sizes = dict(count=8, openings=4, n_steps=32, n_basis=3, max_iter=2)

    CENTERS = [(0.25, 0.0), (-0.2, 0.2), (0.0, -0.3), (-0.25, -0.15),
               (0.15, 0.3), (0.3, -0.25)]

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        s = self.size
        lines = ["[reconstruction]", "rank = 2", "decay = 4",
                 "tikhonov = 1e-10", f"max_iter = {s['max_iter']}"]
        for k in range(s["n_basis"]):
            c = self.CENTERS[k % len(self.CENTERS)]
            lines.append(f"basis.{k} = gen={_matrix_text(SU2[k % 3])}; "
                         f"center={c[0]},{c[1]}; "
                         f"sigma={0.25 + 0.05 * (k % 3)!r}")
        self.text = _config_text(
            seed, "[higgs]\nrank = 2\n",
            "\n".join(lines) + "\n",
            f"[fan]\nmode = boundary_pairs\nopenings = {s['openings']}\n",
            f"[transport]\nn_steps = {s['n_steps']}\n")
        truth = self.rng.normal(size=s["n_basis"])
        self.truth = truth / np.linalg.norm(truth)

    def setup(self):
        cfg = ExperimentConfig.from_text(self.text)
        model, conn, _ = cfg.build_pair()
        params, rcfg = cfg.build_reconstruction()
        fan = cfg.build_fan(self.size["count"])
        data = reconstruct.forward_map(model, conn,
                                       params.with_coeffs(self.truth), fan,
                                       rcfg, fingerprint=cfg.fingerprint())
        return {"cfg": cfg, "model": model, "conn": conn, "params": params,
                "rcfg": rcfg, "fan": fan, "data": data}

    def solve(self, state, out_path, lap=_no_lap):
        report = reconstruct.reconstruct_higgs(
            state["data"], state["model"], state["conn"], state["params"],
            state["fan"], state["rcfg"], ground_truth=self.truth)
        text = _report_json(state["cfg"], report.as_dict())
        _write(out_path, text)
        return Output(text, {"report": report})

    def check(self, state, out):
        report = out.data["report"]
        return [("coefficient error",
                 bool(report.coeff_error < COEFF_GATE)),
                ("gauss-newton iterations",
                 report.iterations <= MAX_GN_ITERATIONS)]

    def ref_errors(self, state, out):
        return np.array([out.data["report"].coeff_error])


# -- gauge recovery ------------------------------------------------------------


class GaugeRecovery(Workload):
    name = "gauge_recovery"
    sizes = dict(n_steps=384, line_samples=17, dense_samples=161,
                 dense_half=3.0, centers=((-0.3, 0.0),), angles=3)
    toy_sizes = dict(n_steps=64, line_samples=9, dense_samples=41,
                     dense_half=3.0, centers=((-0.3, 0.0),), angles=3)

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        s = self.size
        conn = _field_section(self.rng, "connection", 3, 3, 0.5, True)
        higgs = _field_section(self.rng, "higgs", 4, 3, 0.5, False, 0.5)
        transport = f"[transport]\nn_steps = {s['n_steps']}\n"
        gauge = 0.5 * (SU2[0] + 0.7 * SU2[1] - 0.4 * SU2[2])
        self.text_a = _config_text(seed, conn, higgs, transport)
        self.text_b = _config_text(
            seed, conn, higgs, transport,
            f"[gauge]\ndecay = 4\nterm.0 = gen={_matrix_text(gauge)}; "
            "center=0.1,-0.2; sigma=0.4\n")

    def setup(self):
        cfg_a = ExperimentConfig.from_text(self.text_a)
        cfg_b = ExperimentConfig.from_text(self.text_b)
        model, conn_a, higgs_a = cfg_a.build_pair()
        _, conn_b, higgs_b = cfg_b.build_pair()
        return {"cfg": cfg_a, "model": model, "pair_a": (conn_a, higgs_a),
                "pair_b": (conn_b, higgs_b), "gauge": cfg_b.build_gauge(2),
                "tcfg": cfg_a.build_transport()}

    def solve(self, state, out_path, lap=_no_lap):
        s = self.size
        model, tcfg = state["model"], state["tcfg"]
        pair_a, pair_b = state["pair_a"], state["pair_b"]
        path = DiskGeodesic.between_boundary_angles(model, 1.2, 4.0).sample()
        line = xray.gauge_candidate(
            model, pair_a, pair_b, path,
            np.linspace(-4.0, 4.0, s["line_samples"]), tcfg)
        lap()
        dense = np.linspace(-s["dense_half"], s["dense_half"],
                            s["dense_samples"])
        curves = []
        for center in s["centers"]:
            for k in range(s["angles"]):
                geo = DiskGeodesic.through(model, center,
                                           math.pi * k / s["angles"] + 0.05)
                curves.append(xray.gauge_candidate(
                    model, pair_a, pair_b, geo.sample(), dense, tcfg))
                lap()
        report = xray.gauge_degree_zero_check(curves, pair_a, pair_b)
        text = _report_json(state["cfg"], {
            "q_line": [float(p) for z in line.q.reshape(-1)
                       for p in (z.real, z.imag)],
            "max_theta_variation": report.max_theta_variation,
            "mode0_residual": report.mode0_residual,
            "mode1_residual": report.mode1_residual,
            "cells_checked": report.cells_checked,
            "degree_zero": report.degree_zero})
        _write(out_path, text)
        return Output(text, {"line": line, "curves": curves,
                             "report": report})

    @staticmethod
    def _gauge_errors(state, curve) -> np.ndarray:
        diff = curve.q - state["gauge"].q(curve.x)
        return np.sqrt(np.sum(np.abs(diff) ** 2, axis=(-2, -1)))

    def ref_errors(self, state, out):
        """|Q - Q*| at every sample of every curve."""
        return np.concatenate([self._gauge_errors(state, c) for c in
                               [out.data["line"]] + out.data["curves"]])

    def check(self, state, out):
        report = out.data["report"]
        line_error = np.max(self._gauge_errors(state, out.data["line"]))
        return [("gauge error along the recovery geodesic",
                 line_error < GAUGE_GATE),
                ("theta variation",
                 report.max_theta_variation < DEGREE_ZERO_GATE),
                ("mode-0 residual", report.mode0_residual < DEGREE_ZERO_GATE),
                ("mode-1 residual", report.mode1_residual < DEGREE_ZERO_GATE)]

    def unitarity(self, out):
        qs = np.concatenate([out.data["line"].q]
                            + [c.q for c in out.data["curves"]])
        return float(np.max(_unitary_defect(qs)))


# -- sphere bundle -------------------------------------------------------------


class PestovGrid(Workload):
    name = "pestov_grid"
    sizes = dict(nx=96, ntheta=64)
    toy_sizes = dict(nx=24, ntheta=16)   # the CLI's smallest level

    def __init__(self, seed, toy=False):
        super().__init__(seed, toy)
        vec = self.rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        self.text = _config_text(
            seed,
            _field_section(self.rng, "connection", 3, 3, 0.3, True),
            "[section]\nmode = 1\nradius = 0.7\n"
            f"vector = {','.join(repr(float(v)) for v in vec)}\n",
            "[grid]\nrho_grid = 0.05\n")

    def setup(self):
        cfg = ExperimentConfig.from_text(self.text)
        model, conn, _ = cfg.build_pair()
        base = self.size["nx"]
        # the CLI's refinement table: a coarse companion level at half size
        levels = [n for n in dict.fromkeys((max(base // 2, 24), base))
                  if n <= base]
        return {"cfg": cfg, "model": model, "conn": conn, "levels": levels}

    def solve(self, state, out_path, lap=_no_lap):
        cfg, conn = state["cfg"], state["conn"]
        ntheta = self.size["ntheta"]
        levels = []
        for nx in state["levels"]:
            grid = cfg.build_grid(state["model"], override=(nx, ntheta))
            u = cfg.build_section(grid, conn.rank)
            rep = spherebundle.pestov_residual(u, conn)
            levels.append({"nx": nx, "ntheta": ntheta, **rep.as_dict()})
            lap()
        decreasing = (levels[-1]["relative_residual"]
                      < levels[0]["relative_residual"]
                      if len(levels) > 1 else None)
        text = _report_json(cfg, {"levels": levels,
                                  "refinement_decreasing": decreasing})
        _write(out_path, text)
        return Output(text, {"levels": levels, "decreasing": decreasing})

    def ref_errors(self, state, out):
        return np.array([out.data["levels"][-1]["relative_residual"]])

    def check(self, state, out):
        residual = out.data["levels"][-1]["relative_residual"]
        return [("pestov residual", residual < PESTOV_GATE),
                ("refinement decreasing", out.data["decreasing"] is not False)]


WORKLOADS = {cls.name: cls for cls in (ScatterFan, ReconLoop, GaugeRecovery,
                                       PestovGrid, ShootPerturbed)}
