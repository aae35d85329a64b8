"""ahxray benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload scatter_fan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, default seed

A run sets the workload up several times (median reported as setup_s),
solves once to warm up, then repeats the solve for the rest of --seconds
seconds (median reported as solve_s), checks every output against the
acceptance gates and against the workload's reference, and prints one JSON
object as its last line.
Both times are wall times scaled to a reference host speed, read from a
fixed kernel before and after each timed interval and between the library
calls of a solve (see hostspeed.py); the raw wall times are kept in the
run's record.  The last line is:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off.  With --trace 1 half of the time is spent untraced and half traced,
and the metrics are the per-layer ones taken from the trace spans (see
spans.py), plus the tracing overhead.  Lines before the last one carry a
provenance header and a readable summary of every metric with its unit.
The full record of a run (provenance, every timing, failed gates, spans)
is written to .bench_out/ at the repository root.

The benchmark imports ahxray from src/ next to this directory and nothing
else; without it the run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_SETUP_REPS = 5
SETUP_BUDGET_S = 1.0
SETUP_BLOCK_S = 0.2
MIN_SOLVES = 3
MIN_TRACED_SOLVES = 2
DIGITS_CAP = 17.0          # beyond double precision an error reads as 0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
                    "ref_error_digits": "digits"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


# -- provenance ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    import ahxray
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": _blas(),
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": _git_commit(),
            "ahxray": ahxray.__version__,
            "seed": seed}


# -- gates -----------------------------------------------------------------------


class Gates:
    """Every gate evaluation counts as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def extend(self, checks) -> None:
        for name, ok in checks:
            self.add(name, bool(ok))


# -- measurement -----------------------------------------------------------------


def _setup_loop(wl):
    """Set up at least MIN_SETUP_REPS times and for SETUP_BUDGET_S seconds,
    in blocks of about SETUP_BLOCK_S with a host-speed reading between
    blocks.

    Returns the wall time of every set-up, the same scaled to the reference
    speed, and the last state built.
    """
    times, scaled = [], []
    before = hostspeed.kernel_time()
    while len(times) < MIN_SETUP_REPS or sum(times) < SETUP_BUDGET_S:
        block = []
        start = time.perf_counter()
        while not block or time.perf_counter() - start < SETUP_BLOCK_S:
            t0 = time.perf_counter()
            state = wl.setup()
            block.append(time.perf_counter() - t0)
        after = hostspeed.kernel_time()
        factor = hostspeed.scale(before, after)
        times += block
        scaled += [t * factor for t in block]
        before = after
    return times, scaled, state


def _solve_loop(wl, state, out_path, budget, min_solves, gates, first,
                on_start=None, on_end=None, scaled=True):
    """Solve min_solves times, then while another solve of median length
    still fits in budget seconds from the start of the loop.

    Returns the wall time of every successful solve, the same scaled to
    the reference host speed (read at every lap of the solve; empty if
    scaled is false, as in a traced run, whose spans must not hold kernel
    readings), and the first output.  A solve that raises a package error
    counts as a failed operation and ends the loop: the inputs are the
    same every time, so would the error.
    """
    from ahxray.errors import AhxrayError

    times, scaled_times = [], []
    start = time.perf_counter()
    watch = hostspeed.Stopwatch() if scaled else None
    while (len(times) < min_solves
           or time.perf_counter() - start + statistics.median(times)
           <= budget):
        if on_start is not None:
            on_start()
        t0 = time.perf_counter()
        try:
            if watch is None:
                out = wl.solve(state, out_path)
            else:
                watch.start()
                out = wl.solve(state, out_path, watch.lap)
                watch.lap()
        except AhxrayError as err:
            traceback.print_exc(file=sys.stderr)
            gates.add(f"solve raised {type(err).__name__}", False)
            if on_end is not None:
                on_end(False)
            break
        if watch is None:
            times.append(time.perf_counter() - t0)
        else:
            times.append(watch.wall)
            scaled_times.append(watch.scaled)
        if on_end is not None:
            on_end(True)
        gates.extend(wl.check(state, out))
        if first is None:
            first = out
        else:
            gates.add("output identical to the first untraced solve",
                      out.text == first.text)
    return times, scaled_times, first


def _reference_error(wl, state, out, gates):
    """Distance to the reference; stored references are keyed by an input
    fingerprint and a mismatch is a failure, never a silent comparison."""
    from workloads import DEFAULT_SEED, REF_DIR
    if not wl.has_stored_reference:
        return wl.ref_errors(state, out), "intrinsic"
    fingerprint = wl.reference_fingerprint(state)
    path = REF_DIR / f"{wl.name}.json"
    stored = None
    if wl.seed == DEFAULT_SEED and not wl.toy:
        stored = json.loads(path.read_text()) if path.is_file() else None
        gates.add("stored reference present", stored is not None)
    if stored is not None:
        match = stored["fingerprint"] == fingerprint
        gates.add("reference fingerprint", match)
        if match:
            return wl.distances(out, stored["records"]), "stored"
        note = "computed: stored fingerprint does not match the inputs"
    else:
        note = "computed: no stored reference for this seed"
    return wl.distances(out, wl.compute_reference(state)), note


def _digits(errors) -> float:
    """Mean correct digits, -log10(error), over the compared items.

    The mean of logarithms is steady across seeds where the maximum error
    swings with the one worst item; an infinite error has no digits.
    """
    digits = [min(-math.log10(max(e, 10.0 ** -DIGITS_CAP)), DIGITS_CAP)
              if math.isfinite(e) else 0.0 for e in errors]
    return statistics.fmean(digits)


def _median_group(times: list[float]) -> int:
    """Index of the lower-median solve."""
    order = sorted(range(len(times)), key=times.__getitem__)
    return order[(len(order) - 1) // 2]


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False, out_dir: Path = OUT_DIR,
            import_s: float = 0.0) -> dict:
    """One benchmark run; returns the full record."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, toy)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{name}.{wl.ext}"
    gates = Gates()

    setup_times, setup_scaled, state = _setup_loop(wl)

    budget = seconds / 2.0 if trace else seconds
    # warm-up: lazy imports and first-touch allocations stay out of solve_s;
    # its output is still checked and is what later solves must reproduce
    warmup, _, first = _solve_loop(wl, state, out_path, 0.0, 1, gates, None,
                                   scaled=False)
    times = scaled = []
    if warmup:
        times, scaled, first = _solve_loop(
            wl, state, out_path, budget - warmup[0], MIN_SOLVES, gates, first)
    if not times:
        raise SystemExit(f"{name}: every solve failed: {gates.failures}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref_errors, ref_note = _reference_error(wl, state, first, gates)
    ref_error = float(max(ref_errors))
    gates.add("reference distance finite", math.isfinite(ref_error))
    unitarity = wl.unitarity(first)

    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "sizes": wl.size,
        "setup_times": setup_times, "setup_times_scaled": setup_scaled,
        "warmup_s": warmup[0], "solve_times": times,
        "solve_times_scaled": scaled,
        "metrics": {
            "setup_s": statistics.median(setup_scaled),
            "solve_s": statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb,
            "ref_error_digits": _digits(ref_errors)},
        "ref_error": ref_error, "reference": ref_note,
        "max_unitarity_defect": unitarity,
    }

    if trace:
        record.update(_traced(wl, out_path, budget, gates, first, times,
                              import_s))

    record["attempted"] = gates.attempted
    record["failed"] = len(gates.failures)
    record["fail_rate"] = len(gates.failures) / max(gates.attempted, 1)
    record["failures"] = sorted(set(gates.failures))
    return record


def _traced(wl, out_path, budget, gates, first, untraced_times, import_s):
    """Traced half of a --trace 1 run: per-layer metrics and faithfulness."""
    from spans import SELF_TIME_METRICS, Tracer

    tracer = Tracer()
    solved: list[str] = []
    root: list = []

    def start():
        tracer.group = f"solve-{len(root)}"
        root.append(tracer.open("solve"))

    def end(ok):
        tracer.close(root[-1])
        if ok:
            solved.append(tracer.group)

    with tracer:
        tracer.group = "setup"
        rec = tracer.open("setup")
        state = wl.setup()
        tracer.close(rec)
        times, _, _ = _solve_loop(wl, state, out_path, budget,
                                  MIN_TRACED_SOLVES, gates, first, start,
                                  end, scaled=False)
    if not times:
        raise SystemExit(f"{wl.name}: every traced solve failed")
    layers = [tracer.layer_metrics(g) for g in solved]
    for lay in layers:
        gates.add("trace self times within the traced solve",
                  lay["trace.unattributed_s"] >= -1e-9
                  and all(lay[m] >= -1e-9 for m in SELF_TIME_METRICS))
    per_layer = layers[_median_group([lay["trace.solve_s"]
                                      for lay in layers])]
    per_layer["config.build_s"] = tracer.layer_metrics(
        "setup", root="setup")["config.build_s"]
    per_layer["cli.import_s"] = import_s
    per_layer["trace.overhead_s"] = (statistics.median(times)
                                     - statistics.median(untraced_times))
    return {"per_layer": per_layer, "traced_solve_times": times,
            "spans": tracer.dump()}


# -- reporting -------------------------------------------------------------------


def summary_lines(record: dict) -> list[str]:
    m = record["metrics"]
    lines = [
        f"{record['workload']} seed={record['seed']}",
        f"  setup_s              {m['setup_s']:.4f} s "
        f"(median of {len(record['setup_times'])} at reference speed; "
        f"wall median {statistics.median(record['setup_times']):.4f}, "
        f"first, cold: {record['setup_times'][0]:.4f} s)",
        f"  solve_s              {m['solve_s']:.4f} s "
        f"(median of {len(record['solve_times'])} at reference speed; "
        f"wall median {statistics.median(record['solve_times']):.4f}, "
        f"min {min(record['solve_times']):.4f}, "
        f"max {max(record['solve_times']):.4f}, "
        f"warm-up {record['warmup_s']:.4f} s)",
        f"  peak_rss_mb          {m['peak_rss_mb']:.1f} MB",
        f"  ref_error            {record['ref_error']:.3e} "
        f"({record['reference']})",
        f"  ref_error_digits     {m['ref_error_digits']:.3f} digits",
        "  max_unitarity_defect "
        + (f"{record['max_unitarity_defect']:.3e}"
           if record["max_unitarity_defect"] is not None
           else "n/a (no unitary output)"),
        f"  fail_rate            {record['fail_rate']:.4g} "
        f"({record['failed']}/{record['attempted']} gates failed)"]
    for name in record["failures"]:
        lines.append(f"  FAILED: {name}")
    from spans import PER_LAYER_UNITS
    for name, value in sorted(record.get("per_layer", {}).items()):
        lines.append(f"  {name:34s} {value:.6g} {PER_LAYER_UNITS[name]}")
    return lines


def result_line(record: dict, trace: bool) -> str:
    if trace:
        from spans import PER_LAYER_UNITS
        metrics = {k: {"value": record["per_layer"][k], "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": record["metrics"][k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": metrics})


def run_all(args) -> int:
    """Every workload in its own fresh process; prints their summaries."""
    from workloads import WORKLOADS
    print("# provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("# provenance")))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
        elif not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ahxray" / "__init__.py").is_file():
        print(f"ahxray sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ahxray  # noqa: F401  (timed: the CLI pays this on every call)
    import_s = time.perf_counter() - t0
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), import_s=import_s)
    record["provenance"] = provenance(args.seed)
    path = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("\n".join(summary_lines(record)))
    print(result_line(record, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
