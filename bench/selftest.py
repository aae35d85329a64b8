"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py

Runs every workload at toy size (an 8-geodesic fan, a 16x16 sphere-bundle
grid, ...) once with tracing off and once with it on, and asserts that
each metric BENCHMARK.json lists is emitted with its unit.  Then corrupts
one output matrix of a scatter_fan solve and asserts that the gates count
it, so fail_rate rises above zero.  Exits 0 on success.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, ROOT, SRC, Gates, measure, result_line

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, ScatterFan  # noqa: E402

SEED = 1


def _emitted(record: dict, trace: bool) -> dict:
    return {name: m["unit"] for name, m in
            json.loads(result_line(record, trace))["metrics"].items()}


def check_metrics(spec: dict, out_dir) -> None:
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = measure(name, SEED, 0.0, trace, toy=True,
                             out_dir=out_dir)
            emitted = _emitted(record, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            assert emitted == expected, (
                f"{name} trace={int(trace)}: emitted {sorted(emitted)} "
                f"but BENCHMARK.json lists {sorted(expected)}")
            print(f"ok  {name:16s} trace={int(trace)}: "
                  f"{len(emitted)} metrics with units")


def check_corruption(out_dir) -> None:
    wl = ScatterFan(SEED, toy=True)
    state = wl.setup()
    out = wl.solve(state, out_dir / "corrupt.jsonl")
    clean = Gates()
    clean.extend(wl.check(state, out))
    assert not clean.failures, clean.failures
    record = out.data["dataset"].records[0]
    record.matrix = record.matrix * 1.001
    corrupted = Gates()
    corrupted.extend(wl.check(state, out))
    rate = len(corrupted.failures) / corrupted.attempted
    assert rate > 0.0, "a corrupted output matrix passed every gate"
    print(f"ok  corrupted matrix: fail_rate {rate:.4g} "
          f"({corrupted.failures[0]})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = OUT_DIR / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    check_metrics(spec, out_dir)
    check_corruption(out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
