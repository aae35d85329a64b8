"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark side only: public ahxray names are
replaced, at the place where their caller looks them up, by wrappers that
open a span around the call.  Each span holds its name, start, end, parent
and the id of the solve (or set-up) it belongs to.  A span's self time is
its duration minus the durations of its direct children; wrapped calls
nest strictly, so the children never overlap.

Two bindings of ``batch_transport`` exist (``ahxray.xray`` and
``ahxray.reconstruct``); both are wrapped.  The ``prep(x, v)`` argument of
``batch_transport`` is wrapped as well, which separates bundle field
evaluation (the ``prep`` call) from the RK arithmetic in the closure it
returns, and counts stage evaluations exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import ahxray.config as config_mod
import ahxray.reconstruct as reconstruct_mod
import ahxray.spherebundle as sb_mod
import ahxray.xray as xray_mod
from ahxray.config import ExperimentConfig
from ahxray.errors import TrappedGeodesicError
from ahxray.geometry import DiskGeodesic
from ahxray.transport import TransportConfig
from ahxray.xray import ScatteringDataset

DEFAULT_STEPS = TransportConfig.__dataclass_fields__["n_steps"].default

# per-layer metrics that are self times; with trace.unattributed_s they sum
# to the traced solve time
SELF_TIME_METRICS = {
    "geometry.fan_build_s": "geometry.fan_build",
    "geometry.shoot_s": "geometry.shoot",
    "bundle.field_eval_s": "bundle.field_eval",
    "transport.batch_self_s": "transport.batch",
    "transport.adaptive_self_s": "transport.adaptive",
    "xray.assemble_self_s": "xray.assemble",
    "xray.jsonl_s": "xray.jsonl",
    "xray.gauge_candidate_self_s": "xray.gauge_candidate",
    "xray.degree_zero_s": "xray.degree_zero",
    "reconstruct.self_s": "reconstruct.solve",
    "spherebundle.grid_build_s": "spherebundle.grid_build",
    "spherebundle.apply_X_s": "spherebundle.apply_X",
    "spherebundle.vertical_s": "spherebundle.vertical",
    "spherebundle.inner_s": "spherebundle.inner",
    "spherebundle.curvature_s": "spherebundle.curvature",
}

COUNT_METRICS = {
    "geometry.geodesics_built": "count", "geometry.rays_shot": "count",
    "geometry.trapped": "count", "bundle.field_calls": "count",
    "bundle.field_nodes": "count", "transport.batch_calls": "count",
    "transport.rk_stages": "count", "transport.geodesic_steps": "count",
    "transport.adaptive_calls": "count", "xray.records": "count",
    "xray.jsonl_bytes": "bytes", "xray.cells_checked": "count",
    "reconstruct.gn_iterations": "count",
    "reconstruct.forward_solves": "count", "spherebundle.nodes": "count",
    "spherebundle.bytes_computed": "bytes-computed",
}

# unit of every per-layer metric a traced run reports
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS}, **COUNT_METRICS,
    "transport.batch_width": "geodesics/call", "bundle.ns_per_node": "ns",
    "reconstruct.solves_per_iteration": "solves/iter",
    "reconstruct.forward_solve_s": "s", "config.build_s": "s",
    "cli.import_s": "s", "trace.solve_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters of one traced run, kept until the run ends."""

    def __init__(self):
        self.spans: list[list] = []      # [id, name, start, end, parent, group]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.group = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, time.perf_counter(), None, parent,
               self.group]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[self.group][name] += amount

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(rec, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_classmethod(self, cls, attr, name, after=None) -> None:
        traced = self.wrap(name, getattr(cls, attr), after)
        self._patch(cls, attr, classmethod(
            lambda _cls, *a, **k: traced(*a, **k)))

    def install(self) -> None:
        self._patch_classmethod(ExperimentConfig, "from_text", "config.build")
        for attr in ("build_pair", "build_fan", "build_transport",
                     "build_reconstruction", "build_gauge", "build_grid",
                     "build_section"):
            self._patch(ExperimentConfig, attr, self.wrap(
                "config.build", ExperimentConfig.__dict__[attr]))

        built = lambda rec, a, k, r: self.count("geometry.geodesics_built")
        self._patch_classmethod(DiskGeodesic, "between_boundary_angles",
                                "geometry.fan_build", built)
        self._patch_classmethod(DiskGeodesic, "through",
                                "geometry.fan_build", built)
        self._patch(DiskGeodesic, "sample", self.wrap(
            "geometry.fan_build", DiskGeodesic.__dict__["sample"]))
        self._patch(xray_mod, "shoot_from_boundary", self._traced_shoot(
            xray_mod.shoot_from_boundary))

        for mod, forward in ((xray_mod, False), (reconstruct_mod, True)):
            self._patch(mod, "batch_transport", self._traced_batch(
                mod.batch_transport, forward))
            self._patch(mod, "compute_scattering_data", self.wrap(
                "xray.assemble", mod.compute_scattering_data,
                lambda rec, a, k, r: self.count("xray.records",
                                                len(r.records))))
        self._patch(xray_mod, "scattering_matrix", self.wrap(
            "transport.adaptive", xray_mod.scattering_matrix,
            lambda rec, a, k, r: self.count("transport.adaptive_calls")))
        self._patch(ScatteringDataset, "to_jsonl", self.wrap(
            "xray.jsonl", ScatteringDataset.__dict__["to_jsonl"],
            lambda rec, a, k, r: self.count("xray.jsonl_bytes",
                                            len(r.encode()))))
        self._patch(xray_mod, "gauge_candidate", self.wrap(
            "xray.gauge_candidate", xray_mod.gauge_candidate))
        self._patch(xray_mod, "gauge_degree_zero_check", self.wrap(
            "xray.degree_zero", xray_mod.gauge_degree_zero_check,
            lambda rec, a, k, r: self.count("xray.cells_checked",
                                            r.cells_checked)))

        self._patch(reconstruct_mod, "reconstruct_higgs", self.wrap(
            "reconstruct.solve", reconstruct_mod.reconstruct_higgs,
            lambda rec, a, k, r: self.count("reconstruct.gn_iterations",
                                            r.iterations)))
        self._patch(reconstruct_mod, "forward_map", self.wrap(
            "reconstruct.forward_map", reconstruct_mod.forward_map))

        self._patch(config_mod, "SphereBundleGrid", self.wrap(
            "spherebundle.grid_build", config_mod.SphereBundleGrid,
            lambda rec, a, k, r: self.count("spherebundle.nodes",
                                            r.nx * r.ny * r.n_theta)))
        for attr, name in (("apply_X", "spherebundle.apply_X"),
                           ("vertical_derivative", "spherebundle.vertical"),
                           ("vertical_divergence", "spherebundle.vertical"),
                           ("vertical_laplacian", "spherebundle.vertical"),
                           ("inner", "spherebundle.inner"),
                           ("curvature_R", "spherebundle.curvature"),
                           ("curvature_F", "spherebundle.curvature")):
            self._patch(sb_mod, attr, self.wrap(name, getattr(sb_mod, attr),
                                                self._count_bytes))
        # the operators above do its array work; its own self time is left
        # to trace.unattributed_s
        self._patch(sb_mod, "pestov_residual", self.wrap(
            "spherebundle.pestov", sb_mod.pestov_residual))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers with counters ---------------------------------------------

    def _count_bytes(self, rec, args, kwargs, result) -> None:
        """Computed bytes: array operands read plus the array written."""
        total = 0
        for obj in (*args, result):
            arr = getattr(obj, "values", None)
            if arr is None:
                arr = getattr(obj, "coeffs", None)
            if isinstance(arr, np.ndarray):
                total += arr.nbytes
        self.count("spherebundle.bytes_computed", total)

    def _traced_shoot(self, fn):
        def traced(*args, **kwargs):
            rec = self.open("geometry.shoot")
            self.count("geometry.rays_shot")
            try:
                return fn(*args, **kwargs)
            except TrappedGeodesicError:
                self.count("geometry.trapped")
                raise
            finally:
                self.close(rec)
        traced.__wrapped__ = fn
        return traced

    def _traced_prep(self, prep):
        def field_eval(x, v):
            rec = self.open("bundle.field_eval")
            try:
                rhs = prep(x, v)
            finally:
                self.close(rec)
            self.count("bundle.field_calls")
            self.count("bundle.field_nodes",
                       int(np.prod(np.shape(x)[:-1], dtype=int)))

            def stage(u):
                self.count("transport.rk_stages")
                return rhs(u)
            return stage
        return field_eval

    def _traced_batch(self, fn, forward: bool):
        def traced(prep, geos, rank, cfg=None, record_fracs=None):
            width = len(geos)
            steps = (cfg.n_steps if cfg is not None else DEFAULT_STEPS)
            self.count("transport.batch_calls")
            self.count("transport.batch_width_total", width)
            self.count("transport.geodesic_steps", steps * width)
            rec = self.open("transport.batch")
            try:
                return fn(self._traced_prep(prep), geos, rank, cfg,
                          record_fracs)
            finally:
                self.close(rec)
                if forward:
                    self.count("reconstruct.forward_solves")
                    self.count("reconstruct.forward_solve_s",
                               rec[3] - rec[2])
        traced.__wrapped__ = fn
        return traced

    # -- reduction ----------------------------------------------------------

    def self_times(self, group) -> dict[str, float]:
        """Summed self time per span name within one group."""
        child = defaultdict(float)
        for _, _, start, end, parent, g in self.spans:
            if g == group and parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, g in self.spans:
            if g == group:
                out[name] += (end - start) - child[sid]
        return out

    def duration(self, group, name: str) -> float:
        return sum(end - start for _, n, start, end, _, g in self.spans
                   if g == group and n == name)

    def layer_metrics(self, group, root: str = "solve") -> dict[str, float]:
        """Per-layer metrics of one solve (or set-up) group."""
        selfs = self.self_times(group)
        counts = self.counts[group]
        out = {metric: selfs.get(span, 0.0)
               for metric, span in SELF_TIME_METRICS.items()}
        for name in COUNT_METRICS:
            out[name] = counts.get(name, 0.0)
        calls = counts.get("transport.batch_calls", 0.0)
        out["transport.batch_width"] = (
            counts.get("transport.batch_width_total", 0.0) / calls
            if calls else 0.0)
        nodes = out["bundle.field_nodes"]
        out["bundle.ns_per_node"] = (1e9 * out["bundle.field_eval_s"] / nodes
                                     if nodes else 0.0)
        iters = out["reconstruct.gn_iterations"]
        out["reconstruct.solves_per_iteration"] = (
            out["reconstruct.forward_solves"] / iters if iters else 0.0)
        out["reconstruct.forward_solve_s"] = counts.get(
            "reconstruct.forward_solve_s", 0.0)
        out["config.build_s"] = selfs.get("config.build", 0.0)
        total = self.duration(group, root)
        out["trace.solve_s"] = total
        out["trace.unattributed_s"] = total - sum(
            out[m] for m in SELF_TIME_METRICS)
        return out

    def dump(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "group": group}
                for sid, name, start, end, parent, group in self.spans]
