"""Record the reference digests the benchmark checks outputs against.

    python3 bench/make_references.py

Runs one pass of every workload and rewrites ``bench/references/<name>.json``
for all of them: the discrete digest per operation key (per region on
solve_sweep), the SHA-256 of the emitted JSON bytes per seed (``"*"`` when
the workload ignores the seed; 16-hex-digit prefixes for seeds 1 to 10 on
solve_sweep), and, for the harness workloads, the flattened reference
output so that a byte mismatch can be reported as JSON paths.  A reference
is written only for outputs that pass the workload's own correctness
check: exit code 0, no failure events, and solutions within 1e-6 of the
known equilibrium.
"""

from __future__ import annotations

import json
import os
import sys

import run

SEEDS = range(1, 11)


def _harness_reference(workload: str) -> dict:
    from digests import discrete_digest, flatten, sha256
    from workloads import generate

    (op,) = generate(workload, 0, run.OUT_DIR / "inputs" / f"{workload}-reference")
    code, text = run.invoke(op.argv)
    payload = json.loads(text)
    if code != 0 or payload["failure_events"]:
        raise SystemExit(f"{workload}: exit {code}, failure events "
                         f"{payload['failure_events']}; no reference written")
    return {"discrete": {op.key: discrete_digest(code, payload)},
            "bytes": {"*": {op.key: sha256(text.encode())}},
            "outputs": {op.key: flatten(payload)}}


def _solve_reference() -> dict:
    import numpy as np
    from digests import discrete_digest, sha256
    from workloads import REGIONS_BY_NAME, generate, region_of

    discrete, by_seed = {}, {}
    for seed in SEEDS:
        ops = generate("solve_sweep", seed,
                       run.OUT_DIR / "inputs" / f"solve_sweep-reference{seed}")
        by_seed[str(seed)] = {}
        for op in ops:
            code, text = run.invoke(op.argv)
            payload = json.loads(text)
            region = region_of(op.key)
            error = np.linalg.norm(np.asarray(payload["solution"])
                                   - REGIONS_BY_NAME[region].solution)
            if code != 0 or error > run.SOLUTION_TOL:
                raise SystemExit(f"{op.key} (seed {seed}): exit {code}, "
                                 f"error {error:.3g}; no reference written")
            digest = discrete_digest(code, payload)
            if discrete.setdefault(region, digest) != digest:
                raise SystemExit(f"{op.key}: discrete content varies by start")
            by_seed[str(seed)][op.key] = sha256(text.encode())[:16]
    return {"discrete": discrete, "bytes": by_seed}


def main() -> int:
    if not (run.SRC / "walras_vi" / "__init__.py").is_file():
        print(f"no walras_vi sources under {run.SRC}", file=sys.stderr)
        return 2
    os.environ["WALRAS_VI_THREADS"] = "1"
    sys.path.insert(0, str(run.SRC))
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOAD_NAMES:
        if workload == "solve_sweep":
            reference = _solve_reference()
        else:
            reference = _harness_reference(workload)
        path = run.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
