"""Output checks: full-byte digests, discrete digests and JSON path diffs.

The discrete digest covers what must never change under a speed-up: the
exit code, every verdict, the failure events, member and cluster counts,
samples used, witness indices and the solver status.  Floats are left
out, so a last-bit change in a residual or centroid does not move it.
"""

from __future__ import annotations

import hashlib
import json

# Keys whose values are discrete content wherever they appear.
DISCRETE_KEYS = frozenset({
    "theorem_id", "fixture", "premise", "verdict", "samples_used", "vacuous",
    "conclusion_verified", "member_count", "cluster_count", "solver_status",
    "uniqueness_probe", "checker_verdict", "triple", "class_checked",
    "indices", "status",
})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def flatten(value, path: str = "") -> dict:
    """Map every JSON leaf path (``results[3].details.diameter``) to its value."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(flatten(item, f"{path}.{key}" if path else key))
        return out
    if isinstance(value, list):
        out = {}
        for i, item in enumerate(value):
            out.update(flatten(item, f"{path}[{i}]"))
        if not value:
            out[path] = []
        return out
    return {path: value}


def discrete_content(exit_code: int, payload) -> list:
    """Exit code plus every (path, value) under a discrete key, in order."""
    found = []

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                sub = f"{path}.{key}" if path else key
                if key in DISCRETE_KEYS:
                    found.append([sub, item])
                else:
                    walk(item, sub)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")

    walk(payload, "")
    return [["exit_code", exit_code]] + found


def discrete_digest(exit_code: int, payload) -> str:
    text = json.dumps(discrete_content(exit_code, payload), sort_keys=True)
    return sha256(text.encode())


def differing_paths(ref: dict, act: dict) -> list[str]:
    """Paths of two flattened outputs whose leaves differ (floats by repr)."""
    return [p for p in sorted(ref.keys() | act.keys())
            if p not in ref or p not in act
            or type(ref[p]) is not type(act[p]) or repr(ref[p]) != repr(act[p])]
