import json

import numpy as np
import pytest

from walras_vi import harness, monotonicity, vi_core
from walras_vi.economy import Fixture, default_catalog, linear_economy
from walras_vi.harness import (
    GATED_THEOREMS,
    THEOREM_IDS,
    HarnessConfig,
    TheoremCheckResult,
    check_lemma_2_1,
    check_lemma_2_2,
    check_theorem_4_1,
    check_theorem_4_2,
    check_theorem_4_3,
    failure_events,
    gather_evidence,
    run_catalog_with_evidence,
    summary_table,
)
from walras_vi.regions import Box

CATALOG = default_catalog()
CONFIG = HarnessConfig()


@pytest.fixture(scope="module")
def evidence():
    return {label: gather_evidence(f, CONFIG) for label, f in CATALOG.items()}


def test_evidence_computes_only_the_classes_the_checks_read(monkeypatch):
    # L2_2 reads strict_pseudo, T4_1 proper_quasi, T4_2 and T4_3
    # strict_proper_quasi: neither the pseudo pair scan nor the dual scan runs
    entered = []
    pair_scan, dual_scan = monotonicity._pair_scan, monotonicity._dual_scan
    monkeypatch.setattr(monotonicity, "_pair_scan", lambda name, *args, **kw:
                        entered.append(name) or pair_scan(name, *args, **kw))
    monkeypatch.setattr(monotonicity, "_dual_scan", lambda *args:
                        entered.append("proper_quasi_dual") or dual_scan(*args))
    fixture = CATALOG["rotation"]
    ev = gather_evidence(fixture, HarnessConfig(grid_spacing=0.1))
    assert list(ev.reports) == ["strict_pseudo", "proper_quasi",
                                "strict_proper_quasi"]
    assert entered == ["strict_pseudo"]
    for name, report in ev.reports.items():
        alone = monotonicity.check_class(name, fixture.model, ev.plan)
        assert report.to_dict() == alone.to_dict(), name


# ---------------------------------------------------------------------------
# L2_1 / L2_2


def test_existence_concluded_on_every_fixture(evidence):
    for label in CATALOG:
        result = check_lemma_2_1(evidence[label])
        assert result.conclusion_verified, label
        assert not result.vacuous
        assert result.details["solver_status"] == "converged", label


def test_uniqueness_verified_for_strictly_monotone_fixture(evidence):
    result = check_lemma_2_2(evidence["linear_identity"])
    assert not result.vacuous
    assert result.conclusion_verified
    assert result.details["uniqueness_probe"] is True


def test_uniqueness_vacuous_when_strictness_refuted(evidence):
    for label in ("scalar_negslope", "constant_field"):
        result = check_lemma_2_2(evidence[label])
        assert result.vacuous
        assert result.conclusion_verified  # vacuous pass, recorded as such
        assert result.premises_established[0]["verdict"] == "refuted"


# ---------------------------------------------------------------------------
# T4_1


def test_existence_iff_proper_quasi_consistency(evidence):
    # increasing field: nonempty dual set, checker holds
    r = check_theorem_4_1(evidence["scalar_posslope"])
    assert r.conclusion_verified
    assert r.details["minty"]["member_count"] > 0
    assert r.details["checker_verdict"] == "holds_on_samples"
    # decreasing field: refutation witness and empty dual set
    r = check_theorem_4_1(evidence["scalar_negslope"])
    assert r.conclusion_verified
    assert r.details["minty"]["member_count"] == 0
    assert r.details["checker_verdict"] == "refuted"
    # monotone field on the square
    r = check_theorem_4_1(evidence["linear_identity"])
    assert r.conclusion_verified
    assert r.details["minty"]["member_count"] > 0


# ---------------------------------------------------------------------------
# T4_2


def test_at_most_one_solution_under_strict_proper(evidence):
    r = check_theorem_4_2(evidence["scalar_posslope"])
    assert not r.vacuous
    assert r.conclusion_verified
    assert r.details["stampacchia"]["cluster_count"] == 1


def test_constant_field_contrapositive_face(evidence):
    r = check_theorem_4_2(evidence["constant_field"])
    assert r.vacuous
    # the oracle still records the solution face as contrapositive evidence
    assert r.details["stampacchia"]["member_count"] > 10
    assert r.details["stampacchia"]["diameter"] >= 0.9


def test_negslope_contrapositive_three_clusters(evidence):
    r = check_theorem_4_2(evidence["scalar_negslope"])
    assert r.vacuous
    assert r.details["stampacchia"]["cluster_count"] == 3


# ---------------------------------------------------------------------------
# T4_3


def test_positive_equivalence_triple_all_true(evidence):
    for label in ("scalar_positive", "simplex_positive"):
        r = check_theorem_4_3(evidence[label])
        assert not r.vacuous
        triple = r.details["triple"]
        assert set(triple) == {"strict_proper_quasi_holds", "unique_minty",
                               "unique_stampacchia"}
        assert all(triple.values()), label
        assert r.conclusion_verified


def test_positive_equivalence_disagreement_is_surfaced_not_gated(evidence):
    # positive constant field: both solution sets are unique singletons but
    # an orthogonal segment refutes strict-proper quasimonotonicity, so the
    # triple disagrees; this is reported evidence, not a failure event
    r = check_theorem_4_3(evidence["constant_positive"])
    assert not r.vacuous
    triple = r.details["triple"]
    assert triple["strict_proper_quasi_holds"] is False
    assert triple["unique_minty"] is True
    assert triple["unique_stampacchia"] is True
    assert not r.conclusion_verified
    assert r.theorem_id not in GATED_THEOREMS


def test_positivity_gate_records_failing_premise(evidence):
    r = check_theorem_4_3(evidence["scalar_negslope"])
    assert r.vacuous
    assert r.premises_established[1]["verdict"] == "refuted"
    assert "triple" not in r.details


# ---------------------------------------------------------------------------
# catalog runs


def test_run_catalog_shape_and_gate():
    results = run_catalog_with_evidence()[0]
    assert len(results) == 5 * len(CATALOG)
    assert failure_events(results) == []
    seen = {(r.fixture_label, r.theorem_id) for r in results}
    assert len(seen) == len(results)


def test_run_catalog_empty():
    assert run_catalog_with_evidence(catalog={})[0] == []


def test_run_catalog_single_fixture_has_five_results():
    single = {"linear_identity": CATALOG["linear_identity"]}
    results = run_catalog_with_evidence(catalog=single)[0]
    assert [r.theorem_id for r in results] == list(THEOREM_IDS)


def test_run_catalog_clusters_each_solution_set_once(monkeypatch):
    # a helper that re-clustered would go through vi_core's binding
    calls = []
    original = vi_core.cluster_members

    def counting(points, threshold):
        calls.append(threshold)
        return original(points, threshold)

    monkeypatch.setattr(harness, "cluster_members", counting)
    monkeypatch.setattr(vi_core, "cluster_members", counting)
    labels = ("linear_identity", "scalar_negslope", "constant_positive")
    config = HarnessConfig(grid_spacing=0.1)
    results, _ = run_catalog_with_evidence({label: CATALOG[label] for label in labels},
                                           config)
    assert len(results) == 5 * len(labels)
    assert calls == [2 * config.grid_spacing] * (2 * len(labels))


def test_summary_table_lines_end_without_whitespace():
    results = [TheoremCheckResult(tid, label, [], False, True)
               for label in ("a", "long_fixture_label") for tid in THEOREM_IDS[:2]]
    for line in summary_table(results).splitlines():
        assert line == line.rstrip(), repr(line)


def test_summary_table_marks():
    results = run_catalog_with_evidence()[0]
    table = summary_table(results)
    lines = table.splitlines()
    assert lines[0].split()[0] == "fixture"
    assert all(t in lines[0] for t in THEOREM_IDS)
    for label in CATALOG:
        assert any(line.startswith(label) for line in lines[1:])
    assert "vacuous" in table
    assert "✓" in table
    body = "\n".join(lines[1:])
    # only the non-gated equivalence triple may show a cross
    for line in lines[1:]:
        if "✗" in line:
            assert line.startswith(("constant_positive", "simplex_positive",
                                    "scalar_positive"))


def test_results_serialize_to_json():
    results, _ = run_catalog_with_evidence(
        catalog={"scalar_posslope": CATALOG["scalar_posslope"]})
    payload = json.dumps([r.to_dict() for r in results])
    parsed = json.loads(payload)
    assert len(parsed) == 5
    assert parsed[0]["fixture"] == "scalar_posslope"


def test_fixtures_on_equal_regions_share_one_plan_per_run(monkeypatch):
    built, build = [], monotonicity._strict_exclusions
    monkeypatch.setattr(monotonicity, "_strict_exclusions",
                        lambda plan: built.append(plan) or build(plan))
    # the scan and the exclusions read one enumeration of the tuples
    extended, extend = [], monotonicity._extend_combinations
    monkeypatch.setattr(monotonicity, "_extend_combinations",
                        lambda combos, n: extended.append(n) or extend(combos, n))
    # equal regions built as separate objects
    catalog = {label: Fixture(label, linear_economy(M, [0.5, 0.5]),
                              Box([0.0, 0.0], [1.0, 1.0]), 0.25)
               for label, M in (("identity", np.eye(2)),
                                ("rotation", [[0.0, 1.0], [-1.0, 0.0]]))}
    config = HarnessConfig(grid_spacing=0.1, num_points=8, budget=2000)

    def dump(results, evidence):
        return json.dumps([[r.to_dict() for r in results],
                           {label: {name: report.to_dict()
                                    for name, report in ev.reports.items()}
                            for label, ev in evidence.items()}])

    results, evidence = run_catalog_with_evidence(catalog, config)
    assert len(built) == 1
    assert extended == [evidence["identity"].plan.size] * 2   # m = 2 and 3
    assert evidence["identity"].plan is evidence["rotation"].plan
    for label, fixture in catalog.items():
        alone = run_catalog_with_evidence({label: fixture}, config)
        mine = [r for r in results if r.fixture_label == label]
        assert dump(*alone) == dump(mine, {label: evidence[label]})
    # every run computes its own exclusions: nothing is cached across runs
    assert len(built) == 1 + len(catalog)


def test_a_run_builds_one_plan_per_region(monkeypatch):
    # 4 fixtures on the unit square, 3 on [0, 1], a simplex and a polyhedron:
    # 4 regions, so 4 plans where a plan per fixture made 9
    built, build = [], monotonicity.build_plan
    monkeypatch.setattr(harness, "build_plan", lambda region, config:
                        built.append(region) or build(region, config))
    _, evidence = run_catalog_with_evidence(CATALOG, CONFIG)
    assert len(built) == 4
    assert evidence["linear_identity"].plan is evidence["rotation"].plan


def _counting_lattices(monkeypatch):
    built = []
    build = vi_core.GridLattice
    monkeypatch.setattr(harness, "GridLattice", lambda region, spacing:
                        built.append((region, spacing)) or build(region, spacing))
    return built


def _fixture_dump(results, evidence, label) -> str:
    """The harness JSON of one fixture's results, with its oracle's bytes."""
    est = evidence[label].estimate
    return json.dumps([[r.to_dict() for r in results if r.fixture_label == label],
                       [a.tobytes().hex() for a in (est.grid_points, est.stampacchia_mask,
                                                    est.minty_mask)]])


def test_fixtures_on_equal_regions_share_one_lattice_per_run(monkeypatch):
    built = _counting_lattices(monkeypatch)
    config = HarnessConfig(grid_spacing=0.05)
    # 4 fixtures on the unit square, 3 on [0, 1], a simplex and a polyhedron
    results, evidence = run_catalog_with_evidence(CATALOG, config)
    assert len(built) == 4
    assert {spacing for _, spacing in built} == {0.05}
    assert (evidence["linear_identity"].estimate.grid_points
            is evidence["rotation"].estimate.grid_points)
    # a second run builds its own: nothing outlives a run
    assert run_catalog_with_evidence(CATALOG, config)[0] and len(built) == 8
    for label, fixture in CATALOG.items():
        alone = run_catalog_with_evidence({label: fixture}, config)
        assert _fixture_dump(*alone, label) == _fixture_dump(results, evidence, label)
    assert len(built) == 8 + len(CATALOG)


def test_lattices_are_keyed_by_every_bit_of_the_region(monkeypatch):
    # a -0.0 lower bound equals 0.0 but differs in its bytes; equal regions
    # built as separate objects share
    built = _counting_lattices(monkeypatch)
    model = linear_economy(np.eye(2), [0.5, 0.25])
    catalog = {label: Fixture(label, model, Box(lower, [1.0, 1.0]), 0.25)
               for label, lower in (("zero", [0.0, 0.0]), ("negative-zero", [-0.0, 0.0]),
                                    ("zero-again", [0.0, 0.0]))}
    config = HarnessConfig(grid_spacing=0.1, num_points=8)
    results, evidence = run_catalog_with_evidence(catalog, config)
    assert [region.lower.tobytes() for region, _ in built] == [
        catalog["zero"].region.lower.tobytes(),
        catalog["negative-zero"].region.lower.tobytes()]
    assert (evidence["zero"].estimate.grid_points
            is evidence["zero-again"].estimate.grid_points)
    for label, fixture in catalog.items():
        alone = run_catalog_with_evidence({label: fixture}, config)
        assert _fixture_dump(*alone, label) == _fixture_dump(results, evidence, label)


def test_no_region_grid_reaches_extreme_points(monkeypatch):
    # the harness sorts member sets only, each once, for its diameter
    calls = []
    original = vi_core._extreme_points
    monkeypatch.setattr(vi_core, "_extreme_points",
                        lambda points: calls.append(points) or original(points))
    _, evidence = run_catalog_with_evidence(CATALOG, HarnessConfig(grid_spacing=0.05))
    members = [m for ev in evidence.values()
               for m in (ev.estimate.stampacchia_members, ev.estimate.minty_members)
               if len(m)]
    assert len(calls) == len(members)
    assert all(np.array_equal(c, m) for c, m in zip(calls, members))


def test_config_validation():
    with pytest.raises(ValueError):
        HarnessConfig(grid_spacing=-0.1)
    with pytest.raises(ValueError):
        HarnessConfig(eps_strict=-1.0)


@pytest.mark.parametrize("field, value", [
    ("grid_spacing", float("nan")),
    ("grid_spacing", float("inf")),
    ("eps_strict", float("nan")),
    ("step", float("-inf")),
    ("tol_solve", float("nan")),
    ("tol_solve", 0.0),
    ("num_points", -1),
    ("tuple_size_max", 1),
    ("weight_grid_resolution", 2),
    ("budget", -1),
])
def test_config_rejects_each_out_of_range_setting_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        HarnessConfig(**{field: value})
