"""Regenerate the stored references of the dataset workloads.

    python3 bench/make_refs.py

Writes bench/refs/<workload>.json for scatter_fan and shoot_perturbed at
the default seed.  Each file is keyed by a fingerprint of the inputs the
reference was solved from; run.py refuses (counts as a failure) a stored
reference whose fingerprint does not match the inputs of the run.  The
references are meant to stay fixed while the timed code changes, so
regenerate them only when the workload inputs change, and record the
commit they were made at.
"""

from __future__ import annotations

import json
import sys

from run import SRC, _git_commit

sys.path.insert(0, str(SRC))

import ahxray  # noqa: E402
from workloads import DEFAULT_SEED, REF_DIR, WORKLOADS  # noqa: E402


def main() -> int:
    REF_DIR.mkdir(exist_ok=True)
    for name in ("scatter_fan", "shoot_perturbed"):
        wl = WORKLOADS[name](DEFAULT_SEED)
        state = wl.setup()
        body = {"workload": name, "seed": DEFAULT_SEED,
                "fingerprint": wl.reference_fingerprint(state),
                "inputs": wl.reference_inputs(state)["describe"],
                "commit": _git_commit(), "ahxray": ahxray.__version__,
                "records": wl.compute_reference(state)}
        path = REF_DIR / f"{name}.json"
        path.write_text(json.dumps(body, indent=1, default=list) + "\n")
        print(f"wrote {path} ({len(body['records'])} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
