"""Rounds, the correctness gate, and the metrics computed from them.

A *round* is one process running ``round.py``: it imports ``repro``,
builds every operation of a workload (set-up), then executes them one
after another (the timed simulation phase), with calibration probes in
between.  Rounds repeat until the run's time is spent.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ledger import LAYERS
from workloads import Outcome, Workload

HERE = Path(__file__).resolve().parent
#: The program under test: the checkout's ``src`` directory.
SRC_ROOT = HERE.parent / "src"
REFERENCE_DIR = HERE / "reference"
#: A round that takes longer than this is killed and counted as failed.
ROUND_TIMEOUT_S = 120
#: Host seconds of one calibration probe on the reference host.  Timings
#: are reported as if the host had run at that speed throughout.
PROBE_REFERENCE_S = 0.025


@dataclass
class Round:
    setup_s: float
    #: Host seconds of the whole round in its process, set-up included and
    #: calibration probes left out.
    wall_s: float
    peak_rss_mb: float
    outcomes: dict[str, Outcome]
    #: Operation name -> error of the operations that raised.
    errors: dict[str, str] = field(default_factory=dict)
    #: ``Ledger.summary()`` of a profiled round.
    ledger: dict | None = None
    #: Mean host seconds of the calibration probes around the set-up.
    setup_probe_s: float = 0.0


def run_round(workload: Workload, seed: int, profile: bool = False) -> Round:
    """Run one round in a child process and collect what it reports."""
    command = [sys.executable, str(HERE / "round.py"), "--workload", workload.name]
    command += ["--seed", str(seed)] + (["--profile"] if profile else [])
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return Round(0.0, 0.0, 0.0, {}, {"round": f"timed out after {ROUND_TIMEOUT_S} s"})
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return Round(0.0, 0.0, 0.0, {}, {"round": f"exited with code {done.returncode}"})
    data = json.loads(lines[-1])
    return Round(
        setup_s=data["setup_s"],
        wall_s=data["wall_s"],
        peak_rss_mb=data["peak_rss_mb"],
        outcomes={name: Outcome(**o) for name, o in data["outcomes"].items()},
        errors=data["errors"],
        ledger=data.get("ledger"),
        setup_probe_s=data["setup_probe_s"],
    )


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict[str, str] | None:
    """Committed ``op -> digest`` for this seed, or ``None`` if absent."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    table = json.loads(path.read_text())
    digests = table["digests"].get(str(seed))
    if digests is None:
        return None
    return dict(zip(table["ops"], digests))


@dataclass
class Gate:
    """Counts operations and flags every failed one.

    ``reference`` maps operation name to the digest of its simulated
    outputs.  Without one, the first outcome of each operation becomes
    the reference for the rest of the run (a determinism check).
    """

    workload: Workload
    reference: dict[str, str] | None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._pinned = dict(self.reference or {})

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def check(self, rnd: Round) -> None:
        for name, error in rnd.errors.items():
            self.attempted += 1
            self.fail(f"{name}: {error}")
        for name, outcome in rnd.outcomes.items():
            self.attempted += 1
            if outcome.ff_engaged != self.workload.fastforward:
                state = "engaged" if outcome.ff_engaged else "did not engage"
                self.fail(f"{name}: fast-forward {state}")
                continue
            expected = self._pinned.setdefault(name, outcome.digest)
            if outcome.digest != expected:
                self.fail(
                    f"{name}: simulated outputs differ from the reference "
                    f"({outcome.digest} != {expected})"
                )
        ran = set(rnd.outcomes) | set(rnd.errors)
        if self.reference is not None and ran != set(self.reference):
            self.fail(
                f"operations {sorted(ran)} do not match the reference's "
                f"{sorted(self.reference)}"
            )

    def check_same(self, traced: Round, untraced: Round) -> None:
        """The traced round must reproduce the untraced outputs."""
        for name, outcome in traced.outcomes.items():
            base = untraced.outcomes.get(name)
            if base is not None and outcome.digest != base.digest:
                self.fail(f"{name}: traced outputs differ from untraced")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def calibrated(seconds: float, probe_s: float) -> float:
    """Host seconds rescaled to the reference host's speed.

    ``probe_s`` is what the calibration probe took next to the timed
    code; without a probe (a profiled round) the seconds stay as read.
    """
    return seconds * PROBE_REFERENCE_S / probe_s if probe_s > 0 else seconds


def run_seconds(rnd: Round) -> float:
    """Calibrated host seconds of the round's ``run()`` calls."""
    return sum(calibrated(o.host_s, o.probe_s) for o in rnd.outcomes.values())


def pass_rate(rnd: Round) -> float:
    """Worker-iterations per calibrated second of the ``run()`` calls."""
    work = sum(o.worker_iterations for o in rnd.outcomes.values())
    return ratio(work, run_seconds(rnd))


def ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def _median(values) -> float:
    values = [v for v in values if v > 0]
    return statistics.median(values) if values else 0.0


def end_to_end(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    return {
        "worker_iterations_per_s": (_median(pass_rate(r) for r in rounds), "1/s"),
        "setup_s": (
            _median(calibrated(r.setup_s, r.setup_probe_s) for r in rounds),
            "s",
        ),
        "peak_rss_mb": (_median(r.peak_rss_mb for r in rounds), "MB"),
    }


def per_layer(traced: Round, untraced: list[Round]) -> dict[str, tuple[float, str]]:
    """The layer ledger of one profiled round, with counts and ratios."""
    ledger = traced.ledger or {}
    self_s = ledger.get("self_s", {})
    calls_in = ledger.get("calls_in", {})
    counts = ledger.get("counters", {})
    total = ledger.get("total_s", 0.0)
    outcomes = traced.outcomes.values()
    events = sum(o.events for o in outcomes)
    worker_iterations = sum(o.worker_iterations for o in outcomes)
    iterations = sum(o.iterations for o in outcomes)
    skipped = sum(o.iterations_skipped for o in outcomes)
    untraced_us_per_event = _median(
        ratio(run_seconds(r), sum(o.events for o in r.outcomes.values()), 1e6)
        for r in untraced
    )
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        layer_s = self_s.get(layer, 0.0)
        metrics[f"{layer}.self_s"] = (layer_s, "s")
        metrics[f"{layer}.self_share"] = (ratio(layer_s, total), "fraction")
        metrics[f"{layer}.calls_in"] = (float(calls_in.get(layer, 0)), "count")
    pushes = counts.get("pushes", 0)
    sends = counts.get("sends", 0)
    metrics.update(
        {
            "sim.engine.events": (float(events), "count"),
            "sim.engine.host_us_per_event": (untraced_us_per_event, "us"),
            "sim.engine.cancel_ratio": (
                ratio(counts.get("cancels", 0), counts.get("schedules", 0)),
                "ratio",
            ),
            "sim.fastforward.skipped_share": (ratio(skipped, iterations), "fraction"),
            "cluster.ps.pushes": (float(pushes), "count"),
            "cluster.ps.self_us_per_push": (
                ratio(self_s.get("cluster.ps", 0.0), pushes, 1e6),
                "us",
            ),
            "metrics.timeline.calls_per_worker_iteration": (
                ratio(calls_in.get("metrics.timeline", 0), worker_iterations),
                "count",
            ),
            "net.link.sends": (float(sends), "count"),
            "net.link.self_us_per_send": (
                ratio(self_s.get("net.link", 0.0), sends, 1e6),
                "us",
            ),
            "fleet.ticks": (float(counts.get("ticks", 0)), "count"),
            "net.topology.relevels": (float(counts.get("relevels", 0)), "count"),
            "trace.unattributed_share": (
                ratio(ledger.get("unattributed_s", 0.0), total),
                "fraction",
            ),
            "trace.overhead_ratio": (
                ratio(traced.wall_s, _median(r.wall_s for r in untraced)),
                "ratio",
            ),
        }
    )
    return metrics
