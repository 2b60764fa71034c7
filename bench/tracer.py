"""Traced runs: wrap walras_vi's public functions from outside and record spans.

``Tracer.install`` rebinds each traced name at its import site (module
functions) or defining class (methods) to a wrapper that records a span:
name, start, end, parent span and operation id, plus a few counts taken
from the call's arguments or result.  ``Tracer.uninstall`` puts every
original back.  Spans stay in memory until ``write_spans`` at the end of
the run.  Nothing under ``src/`` changes.

Spans nest through a single stack, so tracing assumes one thread; the
benchmark pins ``WALRAS_VI_THREADS=1``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

CLASSES = ("pseudo", "strict_pseudo", "proper_quasi", "proper_quasi_dual",
           "strict_proper_quasi")
KINDS = ("simplex", "box", "polyhedron")

# Span fields as written to the spans file, one JSON array per span.
SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "attrs")


def _eval_rows(args, kwargs, result) -> dict:
    return {"rows": 1 if np.ndim(result) <= 1 else int(np.shape(result)[0])}


def _grid_rows(args, kwargs, result) -> dict:
    return {"rows": int(np.shape(result)[0])}


def _plan_points(args, kwargs, result) -> dict:
    return {"points": int(result.size)}


def _report(args, kwargs, result) -> dict:
    return {"class": result.class_checked, "samples": int(result.samples_used)}


def _members(args, kwargs, result) -> dict:
    return {"stampacchia": int(result.stampacchia_mask.sum()),
            "minty": int(result.minty_mask.sum())}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


def _outside(args, kwargs, result) -> dict:
    """Whether the projected point lay outside, judged from the public A, b."""
    region, x = args[0], np.asarray(args[1], dtype=float)
    return {"outside": bool(np.any(region.A @ x - region.b > 0.0))}


@dataclass(frozen=True)
class Site:
    """One traced name: ``owner.attr`` recorded as span ``span``."""

    owner: object
    attr: str
    span: str
    after: Optional[Callable] = None

    @property
    def label(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


def sites() -> list[Site]:
    """Every traced name.  Import sites are rebound one by one."""
    from walras_vi import cli, economy, harness, regions, vi_core

    out = []
    # Library calls made by the CLI commands, rebound in walras_vi.cli.
    for attr, span, after in (
        ("load_problem", "cli.load", None),
        ("load_catalog_file", "cli.load", None),
        ("default_catalog", "economy.default_catalog", None),
        ("linear_economy", "economy.linear_economy", None),
        ("scalar_catalog", "economy.scalar_catalog", None),
        ("run_catalog_with_evidence", "harness.run_catalog", None),
        ("failure_events", "harness.failure_events", None),
        ("summary_table", "harness.summary_table", None),
        ("build_plan", "monotonicity.build_plan", _plan_points),
        ("check_class", "monotonicity.check_class", _report),
        ("enumerate_solutions", "vi_core.enumerate_solutions", _members),
        ("solve_extragradient", "vi_core.solve", _iterations),
    ):
        out.append(Site(cli, attr, span, after))
    # Per-fixture evidence, rebound in walras_vi.harness.
    for attr, span, after in (
        ("default_catalog", "economy.default_catalog", None),
        ("gather_evidence", "harness.gather_evidence", None),
        ("build_plan", "monotonicity.build_plan", _plan_points),
        ("check_class", "monotonicity.check_class", _report),
        ("enumerate_solutions", "vi_core.enumerate_solutions", _members),
        ("solve_extragradient", "vi_core.solve", _iterations),
        ("is_positive", "economy.is_positive", None),
    ):
        out.append(Site(harness, attr, span, after))
    out.append(Site(vi_core, "minty_gap", "vi_core.minty_gap"))
    out.append(Site(regions.ConvexRegion, "grid", "regions.grid", _grid_rows))
    out.append(Site(regions.Simplex, "grid", "regions.grid", _grid_rows))
    for cls in (regions.ConvexRegion, regions.Simplex, regions.Box):
        out.append(Site(cls, "project_many", "regions.project_many"))
    for cls, kind in ((regions.Simplex, "simplex"), (regions.Box, "box"),
                      (regions.Polyhedron, "polyhedron")):
        after = _outside if kind == "polyhedron" else None
        out.append(Site(cls, "project", f"regions.project.{kind}", after))
        out.append(Site(cls, "contains", f"regions.contains.{kind}"))
    out.append(Site(regions.Polyhedron, "__init__", "regions.polyhedron_init"))
    out.append(Site(regions.Polyhedron, "bounding_box", "regions.bounding_box"))
    out.append(Site(economy.ExcessDemandModel, "__call__", "economy.eval",
                    _eval_rows))
    return out


def _current(site: Site):
    """The object now bound at a site, or None when the site does not exist."""
    if isinstance(site.owner, type):
        return site.owner.__dict__.get(site.attr)
    return getattr(site.owner, site.attr, None)


class Tracer:
    """Span recorder.  Install, run operations, uninstall, then read spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: Optional[int] = None
        self.origin_ns = time.perf_counter_ns()
        self._stack: list[int] = []
        self._installed: list[tuple[Site, object]] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.op, name, 0, 0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: int, end: int) -> None:
        self._stack.pop()
        self.spans[sid][4] = start - self.origin_ns
        self.spans[sid][5] = end - self.origin_ns

    def run_op(self, op_id: int, name: str, fn: Callable):
        """Run one operation under a root span."""
        self.op = op_id
        sid = self._open(name)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self._close(sid, start, time.perf_counter_ns())
            self.op = None

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, start, time.perf_counter_ns())
            if after is not None:
                tracer.spans[sid][6] = after(args, kwargs, result)
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for site in sites():
            original = _current(site)
            if original is None:
                self.missing.append(site.label)
                print(f"bench: trace site {site.label} not found; skipped",
                      file=sys.stderr)
                continue
            setattr(site.owner, site.attr, self.wrap(original, site.span,
                                                     site.after))
            self._installed.append((site, original))

    def uninstall(self) -> None:
        while self._installed:
            site, original = self._installed.pop()
            setattr(site.owner, site.attr, original)

    def write_spans(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def installed_wrappers() -> list[str]:
    """Labels of sites currently bound to a benchmark wrapper."""
    return [s.label for s in sites()
            if getattr(_current(s), "__wrapped_by_bench__", False)]


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics over the given spans (one or more traced ops).

    Times are totals in seconds over the traced operations, ``*_us`` are
    means per call, and counts are totals.
    """
    dur = {s[0]: (s[5] - s[4]) * 1e-9 for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + dur[s[0]]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)

    def total(name):
        return sum(dur[s[0]] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key, where=None):
        return sum(s[6][key] for s in by_name.get(name, ())
                   if where is None or where(s))

    def self_time(name):
        return sum(dur[s[0]] - child_time.get(s[0], 0.0)
                   for s in by_name.get(name, ()))

    m = {
        "regions.grid_s": total("regions.grid"),
        "regions.grid_points": attr_sum("regions.grid", "rows"),
        "regions.contains_calls": sum(count(f"regions.contains.{k}") for k in KINDS),
    }
    for kind in KINDS:
        name = f"regions.project.{kind}"
        calls = count(name)
        m[f"regions.project_calls.{kind}"] = calls
        m[f"regions.project_us.{kind}"] = total(name) / calls * 1e6 if calls else 0.0
    poly_calls = count("regions.project.polyhedron")
    outside = sum(1 for s in by_name.get("regions.project.polyhedron", ())
                  if s[6]["outside"])
    m["regions.project_active_ratio.polyhedron"] = (
        outside / poly_calls if poly_calls else 0.0)
    m["regions.polyhedron_init_s"] = total("regions.polyhedron_init")
    m["regions.bounding_box_s"] = total("regions.bounding_box")
    m["economy.eval_calls"] = count("economy.eval")
    m["economy.eval_rows"] = attr_sum("economy.eval", "rows")
    m["economy.eval_s"] = total("economy.eval")
    m["monotonicity.build_plan_s"] = total("monotonicity.build_plan")
    m["monotonicity.plan_points"] = attr_sum("monotonicity.build_plan", "points")
    checks = by_name.get("monotonicity.check_class", ())
    for cls in CLASSES:
        mine = [s for s in checks if s[6]["class"] == cls]
        m[f"monotonicity.{cls}_s"] = sum(dur[s[0]] for s in mine)
        m[f"monotonicity.{cls}_samples"] = sum(s[6]["samples"] for s in mine)
    m["vi_core.oracle_s"] = total("vi_core.enumerate_solutions")
    m["vi_core.oracle_self_s"] = self_time("vi_core.enumerate_solutions")
    m["vi_core.stampacchia_members"] = attr_sum("vi_core.enumerate_solutions",
                                                "stampacchia")
    m["vi_core.minty_members"] = attr_sum("vi_core.enumerate_solutions", "minty")
    solve_s = total("vi_core.solve")
    iterations = attr_sum("vi_core.solve", "iterations")
    m["vi_core.solve_s"] = solve_s
    m["vi_core.solve_iterations"] = iterations
    m["vi_core.solve_us_per_iter"] = solve_s / iterations * 1e6 if iterations else 0.0
    m["vi_core.minty_gap_s"] = total("vi_core.minty_gap")
    evidence = [dur[s[0]] for s in by_name.get("harness.gather_evidence", ())]
    m["harness.gather_evidence_s"] = sum(evidence)
    m["harness.fixture_max_s"] = max(evidence, default=0.0)
    m["harness.theorem_checks_s"] = self_time("harness.run_catalog")
    m["cli.load_s"] = total("cli.load")
    m["cli.self_s"] = sum(self_time(name) for name in by_name
                          if name.startswith("op."))
    return m
