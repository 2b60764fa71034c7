"""Compare two sets of run records, e.g. the parent commit and a change.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

Records are the JSON lines ``bench/run.py`` appends to ``--record``.  For
each workload and end-to-end metric this prints each side's median and
quartiles over its runs, the share of seed-matched pairs the change won
(ties count for neither), and a verdict:

* ``unresolved``: either side's quartile spread exceeds the metric's bound;
* ``regression``: the change's median is worse by more than the bound;
* ``gain``: the change won at least 9 in 10 pairs and the medians differ
  by more than the base's own quartile spread;
* ``same`` otherwise.

Traced runs give per-layer rows: the median of each side and its relative
delta, and for count metrics the exact values, marked ``varies`` when a
side's runs disagree.  Last come the output digests: operations whose
emitted bytes or discrete content differ between the sides, with the
differing JSON paths.  With one file, only that side's figures print.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from digests import differing_paths

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def values(records, workload, trace, metric) -> list[tuple[int, float]]:
    """(seed, value) of every matching run, in record order."""
    return [(r["seed"], r["result"]["metrics"][metric]["value"]) for r in records
            if r["workload"] == workload and r["trace"] == trace]


def pairs(a, b) -> list[tuple[float, float]]:
    """Runs of the two sides matched by seed, occurrence by occurrence."""
    out = []
    for seed in sorted({s for s, _ in a} & {s for s, _ in b}):
        out += zip([v for s, v in a if s == seed], [v for s, v in b if s == seed])
    return out


def _fmt_side(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def end_to_end_rows(base, change):
    workloads = sorted({r["workload"] for r in base + (change or []) if r["trace"] == 0})
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            runs_a = values(base, workload, 0, name)
            if not runs_a:
                continue
            a = [v for _, v in runs_a]
            row = f"{workload:<13} {name:<15} base {_fmt_side(a)}"
            if change is None:
                print(f"{row}  spread {spread(a):.3f}")
                continue
            runs_b = values(change, workload, 0, name)
            if not runs_b:
                print(f"{row}  change: no runs")
                continue
            b = [v for _, v in runs_b]
            matched = pairs(runs_a, runs_b)
            wins = sum((y < x) if lower else (y > x) for x, y in matched)
            base_med, change_med = statistics.median(a), statistics.median(b)
            worse = (change_med - base_med) if lower else (base_med - change_med)
            a_q1, _, a_q3 = quartiles(a)
            if max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            elif worse > bound * base_med:
                verdict = "regression"
            elif matched and wins >= 0.9 * len(matched) and -worse > a_q3 - a_q1:
                verdict = "gain"
            else:
                verdict = "same"
            share = f"{wins}/{len(matched)}" if matched else "no pairs"
            print(f"{row}\n{'':<29} change {_fmt_side(b)}"
                  f"  won {share}  {verdict}")
        for label, records in (("base", base), ("change", change or [])):
            runs = [r for r in records if r["workload"] == workload]
            if runs:
                attempted = sum(r["result"]["attempted"] for r in runs)
                failed = sum(r["result"]["failed"] for r in runs)
                print(f"{workload:<13} {'fail_rate':<15} {label} "
                      f"{failed / attempted:.6g} ({failed}/{attempted})")


def per_layer_rows(base, change):
    workloads = sorted({r["workload"] for r in base + (change or []) if r["trace"] == 1})
    for workload in workloads:
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            a = [v for _, v in values(base, workload, 1, name)]
            b = [v for _, v in values(change or [], workload, 1, name)]
            if not a:
                continue
            if metric["unit"] == "count":
                note = "" if len(set(a)) == 1 else " varies"
                row = f"base {sorted(set(a))}{note}"
                if change is not None and b:
                    note = "" if len(set(b)) == 1 else " varies"
                    same = "same" if set(a) == set(b) else "DIFF"
                    row += f"  change {sorted(set(b))}{note}  {same}"
            else:
                ma = statistics.median(a)
                row = f"base {ma:.6g} {metric['unit']}"
                if change is not None and b:
                    mb = statistics.median(b)
                    delta = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
                    row += f"  change {mb:.6g}  {delta}"
            print(f"{workload:<13} {name:<44} {row}")


def digest_rows(base, change):
    def outputs(records):
        out = {}
        for r in records:
            for key, o in r["outputs"].items():
                out.setdefault((r["workload"], r["seed"], key), o)
        return out

    a, b = outputs(base), outputs(change)
    shared = sorted(a.keys() & b.keys())
    byte_diff = [k for k in shared if a[k]["sha256"] != b[k]["sha256"]]
    discrete_diff = [k for k in shared
                     if a[k]["discrete_sha256"] != b[k]["discrete_sha256"]]
    print(f"outputs compared: {len(shared)}; bytes differ: {len(byte_diff)}; "
          f"discrete content differs: {len(discrete_diff)}")
    for k in byte_diff:
        paths = differing_paths(a[k]["flat"], b[k]["flat"])
        flag = " DISCRETE" if k in discrete_diff else ""
        print(f"  {k[0]} seed {k[1]} {k[2]}{flag}: {', '.join(paths[:8])}"
              + (f" (+{len(paths) - 8} more)" if len(paths) > 8 else ""))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    end_to_end_rows(base, change)
    per_layer_rows(base, change)
    if change is not None:
        digest_rows(base, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
