#!/usr/bin/env python3
"""Record the reference answers of every workload's pool.

    python3 perfbench/record.py

Runs each workload's request once per pool instance, refuses to record if
any answer fails the paper's checks or ``verify_trace``, and writes
``perfbench/reference.json``: per workload the pool's family, seed, size
and SHA-256 digest, and per instance the values a later commit must
reproduce.  Run it only when the pools change; the point of the file is
that it was recorded at one commit and later commits are held to it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pools  # noqa: E402
import work  # noqa: E402
from repairalloc.scenario_io import scenario_from_dict  # noqa: E402


def main() -> int:
    reference = {}
    for name, spec in pools.WORKLOADS.items():
        pool = pools.make_pool(name)
        request = work.REQUESTS[name]
        policy = work.make_policy()
        instances = []
        for i, item in enumerate(pool):
            scenario = scenario_from_dict(item["scenario"])
            answer = request(scenario, item["assumption"], policy)
            problems = work.check(scenario, item["assumption"], answer, {})
            if problems:
                print(f"{name} #{i}: {problems}", file=sys.stderr)
                return 1
            instances.append(work.reference_entry(answer))
        reference[name] = {
            "family": spec.family,
            "pool_seed": spec.seed,
            "size": spec.size,
            "digest": pools.digest(pool),
            "instances": instances,
        }
        print(f"{name}: {len(instances)} instances recorded")
    # One line per instance keeps the file diffable.
    blocks = []
    for name, entry in sorted(reference.items()):
        fields = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in entry.items() if key != "instances"]
        rows = ",\n".join(f"   {json.dumps(row, sort_keys=True)}" for row in entry["instances"])
        fields.append(f'  "instances": [\n{rows}\n  ]')
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) + "\n }")
    (HERE / "reference.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
