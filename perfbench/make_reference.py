"""Regenerate the committed reference digests for one workload.

Usage, from the repository root::

    python3 perfbench/make_reference.py --workload ps-star --seeds 0-127

Runs one untraced round per seed and records the digest of every
operation's simulated outputs in ``perfbench/reference/<workload>.json``
(existing seeds are replaced, others kept).  It refuses to record a seed
whose round failed the gate's other checks.  Regenerate only when a
change is *meant* to alter simulated outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="N or FIRST-LAST")
    args = parser.parse_args(argv)
    run.pin_environment()
    workload = WORKLOADS[args.workload]
    path = harness.reference_path(workload.name)
    table = json.loads(path.read_text()) if path.is_file() else {"ops": None, "digests": {}}
    for seed in parse_seeds(args.seeds):
        rnd = harness.run_round(workload, seed)
        gate = harness.Gate(workload, None)
        gate.check(rnd)
        if not gate.correct:
            print(f"seed {seed}: {gate.problems}", file=sys.stderr)
            return 1
        ops = list(rnd.outcomes)  # operations run in build order
        if table["ops"] is None:
            table["ops"] = ops
        elif table["ops"] != ops:
            print(f"seed {seed}: operations changed; start a new table", file=sys.stderr)
            return 1
        table["digests"][str(seed)] = [rnd.outcomes[op].digest for op in ops]
        table["digests"] = dict(sorted(table["digests"].items(), key=lambda kv: int(kv[0])))
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, indent=1) + "\n")
        print(f"seed {seed}: {rnd.wall_s:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
