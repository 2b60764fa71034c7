"""walras-vi benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload harness_grid --seed 1 --seconds 30 --trace 0

Every operation is one ``walras-vi`` CLI invocation made in process
through ``walras_vi.cli.main``, one after another.  The last line of
standard output is the result object; a human-readable table goes to
standard error and a full run record is appended to ``--record``.

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs a fixed amount of work
instead (a warm-up pass, one pass untraced, then the same pass traced),
so every count repeats exactly, and reports the per-layer metrics plus
the tracing overhead.  ``--workload all`` runs the three workloads one after another,
each in its own process.

The program is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "references"

WORKLOAD_NAMES = ("harness_grid", "harness_plan", "solve_sweep")
SETUP_REPEATS = 3
SOLUTION_TOL = 1e-6
LOW_MEMORY_MB = 6000
IMPORT_PROBE = ("import time; t = time.perf_counter(); import walras_vi.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=OUT_DIR / "records.jsonl",
                        help="append the full run record (JSON line) here")
    return parser.parse_args(argv)


# -- environment ---------------------------------------------------------

def _mem_available_mb():
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import walras_vi

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "walras_vi": walras_vi.__version__,
        "git_commit": _git_commit(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS") if k in os.environ}},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "walras_vi_threads": os.environ["WALRAS_VI_THREADS"],
        "seed": seed,
        "machine": platform.machine(),
    }


# -- set-up ----------------------------------------------------------------

def _import_sample() -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _construct_regions(workload: str, ops) -> None:
    """Build the regions the first operation will use.

    ``is_bounded`` computes the bounding box, which runs the LPs on polyhedra.
    """
    from walras_vi import cli, economy
    from workloads import SOLVE_REGIONS

    if workload == "harness_grid":
        for fixture in economy.default_catalog().values():
            fixture.region.is_bounded
    elif workload == "harness_plan":
        fixtures, _ = cli.load_catalog_file(ops[0].argv[2])
        for fixture in fixtures.values():
            fixture.region.is_bounded
    else:
        for region in SOLVE_REGIONS:
            cli.parse_region(region.spec).is_bounded


def set_up(workload: str, seed: int, directory: Path, first_import_s: float,
           repeats: int):
    """Generate inputs and build regions ``repeats`` times; return ops, setup_s.

    setup_s is the median import time (this process's own import plus
    ``repeats - 1`` fresh interpreters, start-up excluded) plus the median
    time to generate the inputs and construct the regions.
    """
    from workloads import generate

    imports = [first_import_s] + [_import_sample() for _ in range(repeats - 1)]
    prepare = []
    for _ in range(repeats):
        start = time.perf_counter()
        ops = generate(workload, seed, directory)
        _construct_regions(workload, ops)
        prepare.append(time.perf_counter() - start)
    return ops, statistics.median(imports) + statistics.median(prepare)


# -- operations ------------------------------------------------------------

def invoke(argv) -> tuple[int, str]:
    """One in-process CLI invocation; returns (exit code, stdout text)."""
    from walras_vi import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main.main(args=list(argv), standalone_mode=False)
    return int(code or 0), out.getvalue()


def load_references(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


class Checker:
    """Checks each operation's output and collects digests for the record."""

    def __init__(self, workload: str, seed: int, references: dict):
        self.workload = workload
        self.seed = seed
        self.references = references
        self.outputs: dict[str, dict] = {}
        self.unstable: set[str] = set()

    def reference_discrete(self, key: str):
        from workloads import region_of

        table = self.references.get("discrete", {})
        name = region_of(key) if self.workload == "solve_sweep" else key
        return table.get(name)

    def check(self, key: str, code: int, text: str) -> bool:
        from digests import discrete_digest, flatten, sha256

        payload = json.loads(text)
        digest = sha256(text.encode())
        discrete = discrete_digest(code, payload)
        seen = self.outputs.get(key)
        if seen is None:
            self.outputs[key] = {"exit_code": code, "sha256": digest,
                                 "discrete_sha256": discrete,
                                 "flat": flatten(payload)}
        elif seen["sha256"] != digest:
            self.unstable.add(key)
        ok = code == 0 and discrete == self.reference_discrete(key)
        if self.workload == "solve_sweep":
            ok = ok and self._solution_ok(key, payload)
        return ok

    def _solution_ok(self, key: str, payload: dict) -> bool:
        import numpy as np
        from workloads import REGIONS_BY_NAME, region_of

        expected = np.asarray(REGIONS_BY_NAME[region_of(key)].solution)
        return bool(np.linalg.norm(np.asarray(payload["solution"]) - expected)
                    <= SOLUTION_TOL)

    def digest_match(self) -> dict:
        """Full-byte comparison against the stored reference for this seed."""
        from digests import differing_paths

        table = self.references.get("bytes", {})
        expected = table.get("*", table.get(str(self.seed)))
        if expected is None:
            return {"status": "no-reference", "differing": []}
        differing = []
        for key, out in sorted(self.outputs.items()):
            ref = expected.get(key)
            if ref is None or not out["sha256"].startswith(ref):
                differing.append(key)
        outputs = self.references.get("outputs", {})
        paths = []
        for key in differing:
            if key in outputs:
                paths += [f"{key}:{p}" for p in
                          differing_paths(outputs[key], self.outputs[key]["flat"])]
            else:
                paths.append(key)
        return {"status": "mismatch" if differing else "match",
                "differing": paths}


def run_op(op, tracer=None, op_id=0):
    """Time one operation; returns (seconds, exit code, stdout text or None).

    Garbage from earlier operations is collected first, outside the timed
    region, so every operation starts from the same collector state.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            code, text = invoke(op.argv)
        else:
            code, text = tracer.run_op(op_id, f"op.{op.argv[0]}",
                                       lambda: invoke(op.argv))
    except Exception as exc:  # an operation that raises counts as failed
        print(f"bench: {op.key} raised {exc!r}", file=sys.stderr)
        return time.perf_counter() - start, None, None
    return time.perf_counter() - start, code, text


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Attempted and failed operations, and a log line for each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops: list[list] = []

    def add(self, op, seconds, code, text, checker: Checker, phase: str):
        """Count one operation; return its latency in ms if it completed."""
        self.attempted += 1
        ok = code is not None
        if ok:
            try:
                ok = checker.check(op.key, code, text)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"bench: {op.key} output check raised {exc!r}",
                      file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1
            print(f"bench: {op.key} failed its output check (exit {code})",
                  file=sys.stderr)
        self.ops.append([phase, op.key, round(seconds * 1e3, 4), code, ok])
        return None if code is None else seconds * 1e3


# -- modes -------------------------------------------------------------------

def measure(ops, seconds: float, checker: Checker, tally: Tally) -> dict:
    """Closed loop over whole passes until ``seconds`` have elapsed.

    Every input runs once per pass, so all inputs get the same number of
    repeats.  An input's latency is its mean over those repeats, which
    averages out the host's sub-second speed swings; the percentiles are
    taken across the inputs that completed at least once.  An input that
    raised on every repeat is counted in ``tally.failed`` only.
    """
    per_input: dict[str, list[float]] = {op.key: [] for op in ops}
    start = time.perf_counter()
    while True:
        for op in ops:
            ms = tally.add(op, *run_op(op), checker, "measure")
            if ms is not None:
                per_input[op.key].append(ms)
        if time.perf_counter() - start >= seconds:
            break
    lat = [statistics.fmean(v) for v in per_input.values() if v]
    if not lat:
        raise RuntimeError("no input completed")
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": _percentile(lat, 90),
        "ops_per_s": 1e3 * len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(ops, checker: Checker, tally: Tally, spans_path: Path,
                header: dict) -> tuple[dict, list[str]]:
    """A warm-up pass, an untraced pass, then the same pass traced.

    The warm-up pass takes the first-call costs, so neither timed pass runs
    cold.  Per-layer metrics come from the traced pass alone.
    ``trace.overhead`` is the traced pass's median latency over the
    untraced pass's, over the inputs that completed in both.
    """
    from tracer import Tracer, layer_metrics

    def one_pass(phase: str, tracer=None) -> dict[str, float]:
        latencies = {}
        for op_id, op in enumerate(ops):
            ms = tally.add(op, *run_op(op, tracer, op_id), checker, phase)
            if ms is not None:
                latencies[op.key] = ms
        return latencies

    one_pass("warmup")
    untraced = one_pass("untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass("traced", tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, header)
    metrics = layer_metrics(tracer.spans)
    both = untraced.keys() & traced.keys()
    if not both:
        raise RuntimeError("no input completed both timed passes")
    metrics["trace.overhead"] = (statistics.median(traced[k] for k in both)
                                 / statistics.median(untraced[k] for k in both))
    return metrics, tracer.missing


def describe(workload: str, metrics: dict, attempted: int, failed: int) -> str:
    """The workload's end-to-end metrics under their per-workload names."""
    rows = [("setup_s", metrics["setup_s"], "s")]
    if workload.startswith("harness"):
        rows.append(("harness_s", metrics["latency_p50_ms"] / 1e3, "s"))
    else:
        rows += [("solve_p50_ms", metrics["latency_p50_ms"], "ms"),
                 ("solve_p90_ms", metrics["latency_p90_ms"], "ms"),
                 ("solves_per_s", metrics["ops_per_s"], "1/s")]
    rows += [("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
             ("fail_rate", failed / attempted, "ratio")]
    return "\n".join(f"{workload:<13} {name:<14} {value:>12.6g} {unit}"
                     for name, value, unit in rows)


def run_workload(args) -> int:
    if not (SRC / "walras_vi" / "__init__.py").is_file():
        print(f"bench: no walras_vi sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["WALRAS_VI_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import walras_vi.cli  # noqa: F401  (timed: imports belong to setup_s)
    first_import_s = time.perf_counter() - start

    mem_mb = _mem_available_mb()
    if args.workload == "harness_grid" and mem_mb is not None and mem_mb < LOW_MEMORY_MB:
        print(f"bench: warning: MemAvailable is {mem_mb:.0f} MB; harness_grid "
              f"peaks near 5.2 GB", file=sys.stderr)
    inputs = OUT_DIR / "inputs" / f"{args.workload}-seed{args.seed}"
    repeats = 1 if args.trace else SETUP_REPEATS
    ops, setup_s = set_up(args.workload, args.seed, inputs, first_import_s, repeats)

    checker = Checker(args.workload, args.seed, load_references(args.workload))
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "mem_available_mb": mem_mb}
    if args.trace:
        spans_path = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        metrics, missing = traced_pass(
            ops, checker, tally, spans_path,
            {"workload": args.workload, "seed": args.seed})
        record.update(spans=str(spans_path.relative_to(ROOT)),
                      missing_trace_sites=missing)
    else:
        metrics = measure(ops, args.seconds, checker, tally)
        metrics["setup_s"] = setup_s
        print(describe(args.workload, metrics, tally.attempted, tally.failed),
              file=sys.stderr)
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           f"match BENCHMARK.json")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record.update(result=result, ops=tally.ops, outputs=checker.outputs,
                  nondeterministic_keys=sorted(checker.unstable),
                  digest_match=checker.digest_match())
    if record["digest_match"]["status"] == "mismatch":
        print(f"bench: emitted bytes differ from the reference: "
              f"{record['digest_match']['differing'][:10]}", file=sys.stderr)
    args.record.parent.mkdir(parents=True, exist_ok=True)
    with open(args.record, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics this mode reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Each workload in its own process, one after another; one table."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--record", str(args.record)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"bench: {workload} exited {out.returncode}", file=sys.stderr)
            return out.returncode
        results[workload] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
