"""Tests of the benchmark's own code: inputs, digests and trace wrappers.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import digests  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from walras_vi.cli import parse_region  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["harness_plan", "solve_sweep"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a")
    second = workloads.generate(workload, 7, tmp_path / "b")
    assert [op.key for op in first] == [op.key for op in second]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")


def test_other_seed_gives_other_starts_inside_each_region():
    a, b = workloads.solve_starts(1), workloads.solve_starts(2)
    for region in workloads.SOLVE_REGIONS:
        built = parse_region(region.spec)
        assert not np.array_equal(np.array(a[region.name]), np.array(b[region.name]))
        for start in a[region.name] + b[region.name]:
            assert built.contains(start, tol=1e-12)


def test_known_solutions_are_projections_of_the_shifted_target():
    # E(p) = alpha (p - s - v) with v in the normal cone at s: s = P(s + v).
    for region in workloads.SOLVE_REGIONS:
        built = parse_region(region.spec)
        target = np.add(region.solution, region.normal)
        assert not built.contains(target)
        assert np.linalg.norm(built.project(target) - region.solution) <= 1e-9


def test_discrete_digest_ignores_last_bit_but_catches_verdict_and_exit():
    payload = {"results": [{"theorem_id": "L2_2", "fixture": "rotation",
                            "premises_established": [{"premise": "strict_pseudo",
                                                      "verdict": "refuted",
                                                      "samples_used": 12}],
                            "vacuous": True, "conclusion_verified": True,
                            "details": {"stampacchia": {"member_count": 3,
                                                        "diameter": 0.1}}}],
               "failure_events": []}
    base = digests.discrete_digest(0, payload)

    nudged = json.loads(json.dumps(payload))
    d = nudged["results"][0]["details"]["stampacchia"]
    d["diameter"] = float(np.nextafter(d["diameter"], 1.0))
    assert digests.discrete_digest(0, nudged) == base
    assert digests.differing_paths(digests.flatten(payload),
                                   digests.flatten(nudged)) == [
        "results[0].details.stampacchia.diameter"]

    flipped = json.loads(json.dumps(payload))
    flipped["results"][0]["premises_established"][0]["verdict"] = "holds_on_samples"
    assert digests.discrete_digest(0, flipped) != base
    assert digests.discrete_digest(4, payload) != base


def _fast_solve_ops(tmp_path):
    ops = workloads.generate("solve_sweep", 3, tmp_path)
    return [op for op in ops if op.key in ("box10-00", "mortgage-00")]


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    seen = []
    real_invoke = run.invoke

    def spy(argv):
        seen.append(tracer.installed_wrappers())
        return real_invoke(argv)

    monkeypatch.setattr(run, "invoke", spy)
    checker = run.Checker("solve_sweep", 3, run.load_references("solve_sweep"))
    tally = run.Tally()
    run.measure(_fast_solve_ops(tmp_path), 0.0, checker, tally)
    assert seen == [[], []]
    assert tally.failed == 0


def test_traced_run_restores_every_rebound_name(tmp_path, monkeypatch):
    sites = tracer.sites()
    before = [tracer._current(s) for s in sites]
    seen = []
    real_invoke = run.invoke

    def spy(argv):
        seen.append(tracer.installed_wrappers())
        return real_invoke(argv)

    monkeypatch.setattr(run, "invoke", spy)
    checker = run.Checker("solve_sweep", 3, run.load_references("solve_sweep"))
    tally = run.Tally()
    metrics, missing = run.traced_pass(_fast_solve_ops(tmp_path), checker, tally,
                                       tmp_path / "spans.jsonl", {})
    assert missing == []
    labels = sorted(s.label for s in sites)
    assert [sorted(w) for w in seen] == [[], [], [], [], labels, labels]
    assert all(tracer._current(s) is obj for s, obj in zip(sites, before))
    assert tracer.installed_wrappers() == []
    assert tally.failed == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["vi_core.solve_iterations"] > 0
    assert metrics["regions.project_calls.polyhedron"] > 0


def test_input_that_always_raises_is_reported_as_failed(tmp_path, monkeypatch):
    from walras_vi.regions import ProjectionBudgetError

    real_invoke = run.invoke

    def spy(argv):
        if argv[-1].endswith("mortgage-00.json"):
            raise ProjectionBudgetError(np.zeros(2), 1.0)
        return real_invoke(argv)

    monkeypatch.setattr(run, "invoke", spy)
    ops = _fast_solve_ops(tmp_path)
    checker = run.Checker("solve_sweep", 3, run.load_references("solve_sweep"))

    tally = run.Tally()
    metrics = run.measure(ops, 0.0, checker, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert metrics["latency_p50_ms"] > 0

    tally = run.Tally()
    metrics, _ = run.traced_pass(ops, checker, tally, tmp_path / "spans.jsonl", {})
    assert (tally.attempted, tally.failed) == (6, 3)
    assert metrics["trace.overhead"] > 0
