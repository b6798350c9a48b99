"""Host-time benchmark of the training simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload ps-star --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it repeats rounds of the workload for ``--seconds``
and prints the end-to-end host metrics.  With ``--trace 1`` it does the
same, then profiles one more round and prints the per-layer ledger.
Every simulated run is checked against the committed reference for the
seed.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Diagnostics go to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import harness
from workloads import WORKLOADS

#: Rounds measured even when ``--seconds`` is spent sooner.
MIN_ROUNDS = 3


def pin_environment() -> None:
    """One thread, no result cache or process pool, fast-forward allowed.

    Round processes inherit this environment.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ["REPRO_JOBS"] = "1"
    os.environ.pop("REPRO_NO_FASTFORWARD", None)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (harness.SRC_ROOT / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {harness.SRC_ROOT}", file=sys.stderr)
        return 2
    pin_environment()
    workload = WORKLOADS[args.workload]
    reference = harness.load_reference(workload.name, args.seed)
    if reference is None:
        print(
            f"note: no committed reference for seed {args.seed}; the first "
            f"round is the reference (determinism check only)",
            file=sys.stderr,
        )
    gate = harness.Gate(workload, reference)

    rounds: list[harness.Round] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rnd = harness.run_round(workload, args.seed)
        gate.check(rnd)
        rounds.append(rnd)
    metrics = harness.end_to_end(rounds)
    report = dict(metrics)
    if args.trace:
        traced = harness.run_round(workload, args.seed, profile=True)
        gate.check(traced)
        gate.check_same(traced, rounds[0])
        metrics = harness.per_layer(traced, rounds)
        report.update(metrics)

    for problem in gate.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"{workload.name}: {len(rounds)} rounds, {gate.attempted} runs, "
        f"{gate.failed} failed",
        file=sys.stderr,
    )
    for name, (value, unit) in report.items():
        print(f"  {name:<48} {value:14.6g} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": gate.correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
