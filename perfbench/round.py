"""One round of a workload, in a process of its own.

    python3 perfbench/round.py --workload ps-star --seed 0 [--profile]

Imports ``repro``, builds every operation of the workload (set-up), runs
them one after another, and prints one JSON object: set-up and round
host seconds, the process's peak resident memory, every operation's
outcome or error, and with ``--profile`` the round's layer ledger.
Unless profiling, a calibration probe runs before the set-up and after
it and every operation, so each host time comes with a gauge of how fast
the host ran at that moment (see ``calibrate.py``).
``run.py`` starts one such process per round, so every round starts
from a fresh interpreter, as a user's run does.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import sys
import time
import traceback

import calibrate
from harness import SRC_ROOT
from workloads import WORKLOADS



def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    import numpy  # noqa: F401  -- a dependency's import is not set-up

    profile = None
    if args.profile:
        import cProfile

        profile = cProfile.Profile()

    def gauge() -> float:
        """One calibration probe; none in a profiled round, whose host
        times feed no end-to-end metric."""
        return 0.0 if profile is not None else calibrate.probe()

    outcomes: dict[str, dict] = {}
    errors: dict[str, str] = {}
    before = gauge()
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        sys.path.insert(0, str(SRC_ROOT))
        repro = importlib.import_module("repro")
        importlib.import_module("repro.fleet")
        ops = workload.build(repro, args.seed)
    except Exception as exc:  # a failed set-up is one failed operation
        traceback.print_exc()
        errors["set-up"] = f"{type(exc).__name__}: {exc}"
        ops = []
    built = time.perf_counter()
    after = probing = gauge()
    setup_probe_s = (before + after) / 2
    for op in ops:
        before = after
        try:
            outcome = op.execute()
        except Exception as exc:  # a failed operation is a gate result
            traceback.print_exc()
            errors[op.name] = f"{type(exc).__name__}: {exc}"
            outcome = None
        after = gauge()
        probing += after
        if outcome is not None:
            outcome.probe_s = (before + after) / 2
            outcomes[op.name] = dataclasses.asdict(outcome)
        op.execute = None  # release the finished trainer
    if profile is not None:
        profile.disable()
    end = time.perf_counter()
    result = {
        "setup_s": built - start,
        "setup_probe_s": setup_probe_s,
        "wall_s": end - start - probing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
        "errors": errors,
    }
    if profile is not None:
        import pstats

        from ledger import Ledger

        result["ledger"] = Ledger(pstats.Stats(profile).stats, str(SRC_ROOT)).summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
