"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest perfbench -q

The traced end-to-end tests run the real workloads and take about a
minute in total.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from ledger import COUNTERS, LAYER_MAP, LAYERS, layer_of_module
from workloads import WORKLOADS, Outcome, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _modules() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def test_every_module_maps_to_a_named_layer():
    modules = _modules()
    assert len(modules) > 50
    for module in modules:
        assert layer_of_module(module) in LAYERS, module
    # Every prefix of the map is used, and every layer is reachable.
    for prefix in LAYER_MAP:
        assert any(m == prefix or m.startswith(prefix + ".") for m in modules), prefix
    assert set(LAYER_MAP.values()) == set(LAYERS)


def test_counters_name_functions_that_exist_once():
    for module, names in COUNTERS.values():
        path = SRC.joinpath(*module.split(".")).with_suffix(".py")
        tree = ast.parse(path.read_text())
        defs = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for name in names:
            assert defs.count(name) == 1, (module, name)


def _outcome(**overrides) -> Outcome:
    fields = dict(
        worker_iterations=8,
        events=100,
        ff_engaged=False,
        iterations_skipped=0,
        iterations=4,
        digest=digest({"training_rate": 61.25, "iteration_s": [[0.5, 0.25]]}),
        host_s=0.01,
    )
    fields.update(overrides)
    return Outcome(**fields)


def _round(outcomes) -> harness.Round:
    return harness.Round(setup_s=0.1, wall_s=0.3, peak_rss_mb=50.0, outcomes=outcomes)


def test_gate_flags_a_perturbed_reference():
    workload = WORKLOADS["ring-allreduce"]
    good = _outcome()
    gate = harness.Gate(workload, {"op": good.digest})
    gate.check(_round({"op": good}))
    assert gate.correct

    perturbed = {"op": good.digest[:-1] + ("0" if good.digest[-1] != "0" else "1")}
    gate = harness.Gate(workload, perturbed)
    gate.check(_round({"op": good}))
    assert (gate.attempted, gate.failed) == (1, 1)
    assert "differ from the reference" in gate.problems[0]


def test_digest_sees_a_change_in_the_eleventh_digit():
    outputs = {"training_rate": 61.25, "iteration_s": [[0.5, 0.25]]}
    nudged = {"training_rate": 61.25 * (1 + 1e-10), "iteration_s": [[0.5, 0.25]]}
    assert digest(outputs) != digest(nudged)
    assert digest(outputs) == digest({"iteration_s": [[0.5, 0.25]], "training_rate": 61.25})


def test_gate_flags_errors_fastforward_state_and_drift():
    gate = harness.Gate(WORKLOADS["ps-star"], None)
    rnd = _round({"a": _outcome(), "c": _outcome(ff_engaged=True)})
    rnd.errors["b"] = "SimulationError: training stalled"
    gate.check(rnd)
    assert (gate.attempted, gate.failed) == (3, 2)
    # Without a committed reference the first round pins the outputs.
    gate.check(_round({"a": _outcome(digest="0" * 16)}))
    assert gate.failed == 3

    gate = harness.Gate(WORKLOADS["long-horizon"], None)
    gate.check(_round({"a": _outcome()}))
    assert gate.failed == 1 and "did not engage" in gate.problems[0]


def test_committed_references_cover_the_same_seeds():
    seeds = None
    for name in WORKLOADS:
        table = json.loads(harness.reference_path(name).read_text())
        assert all(len(d) == len(table["ops"]) for d in table["digests"].values())
        seeds = seeds or set(table["digests"])
        assert set(table["digests"]) == seeds, name
    assert {str(s) for s in range(10)} <= seeds


def test_calibration_rescales_to_the_reference_host():
    ref = harness.PROBE_REFERENCE_S
    # A host running the probe twice as slow ran the program twice as slow.
    assert harness.calibrated(2.0, 2 * ref) == pytest.approx(1.0)
    assert harness.calibrated(2.0, 0.0) == 2.0  # profiled rounds: no probe
    rnd = _round({"a": _outcome(host_s=0.5, probe_s=2 * ref), "b": _outcome(host_s=0.25, probe_s=ref)})
    assert harness.pass_rate(rnd) == pytest.approx(16 / 0.5)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "ps-star", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_the_ledger_and_its_predictions(name):
    done = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    for spec in BENCHMARK["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    # The end-to-end metrics are printed too, on standard error.
    for spec in BENCHMARK["end_to_end"]:
        assert spec["name"] in done.stderr

    share = {layer: metrics[f"{layer}.self_share"]["value"] for layer in LAYERS}
    top = max(share, key=share.__getitem__)
    workload = WORKLOADS[name]
    if workload.hot_layers:
        assert top in workload.hot_layers, share
    if name == "long-horizon":
        assert metrics["sim.fastforward.skipped_share"]["value"] > 0.9
    else:
        assert metrics["sim.fastforward.skipped_share"]["value"] == 0
    if name == "fleet-mixed":
        # The only workload on the sharded port path; placement and
        # water-filling are predicted to be a negligible share.
        assert share["cluster.sharded"] > 0.05
        assert share["fleet"] + share["net.topology"] < 0.01
        assert metrics["fleet.ticks"]["value"] > 0
    if name == "ring-allreduce":
        assert metrics["cluster.ps.pushes"]["value"] == 0
    else:
        assert metrics["cluster.ps.pushes"]["value"] > 0
    assert metrics["trace.unattributed_share"]["value"] < 0.05
