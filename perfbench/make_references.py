"""Regenerate references.json: region boundaries and diagonal rates.

The frontier and packets workloads place their rate points on rays through
these boundaries, and the regions workload compares the diagonal rates of
the fixed channels against them to 1e-9.  Run from the repository root:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from duocast import regions  # noqa: E402

from workloads import DIRECTIONS, NOISY, Job, regions_jobs, run_region_job  # noqa: E402


def main() -> None:
    # The fixed-channel jobs of the regions workload, and the outer bound for
    # hidden max-weight in frontier: the noisy channel's state seen a slot late.
    fixed = [j for j in regions_jobs(0) if j.args["name"] in ("bursty", "noisy")]
    fixed.append(Job("sweep", {"name": "noisy", "doc": NOISY, "kind": "visible"}))
    found = {f"{j.args['name']}.{j.args['kind']}": run_region_job(j) for j in fixed}
    doc = {
        "directions": DIRECTIONS,
        "diagonals": {k: regions.diagonal_rate(r) for k, r in found.items()},
        "boundaries": {k: [[p.r1, p.r2] for p in r.boundary] for k, r in found.items()},
    }
    (HERE / "references.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
