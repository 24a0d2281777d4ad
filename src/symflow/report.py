"""Deterministic machine-readable reports.

JSON with a schema version; every number is serialized as a decimal string
so reports are byte-identical across platforms and runs with the same seed.
Timing is opt-in for the same reason.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from . import __version__
from .candidates import CandidatePointMap, Classification, ClassificationBranch
from .fields import SmoothMap

SCHEMA_VERSION = "1"


def float_str(x) -> str:
    return repr(float(x))


def sigma_jsonable(sigma: Optional[SmoothMap]):
    from .expr import to_string

    if sigma is None:
        return None
    return [to_string(c) for c in sigma.components]


def branch_jsonable(branch: ClassificationBranch) -> dict:
    return {
        "kind": branch.kind.value,
        "verdict": branch.verdict,
        "sigma": sigma_jsonable(branch.sigma),
        "conditions": [
            {
                "name": c.name,
                "passed": c.passed,
                "certainty": c.certainty.value,
                "detail": c.detail,
                "witness": (
                    {
                        "point": [float_str(v) for v in c.witness[0]],
                        "residual": float_str(c.witness[1]),
                    }
                    if c.witness
                    else None
                ),
            }
            for c in branch.conditions
        ],
        "verification": {k: v.to_jsonable() for k, v in branch.verification.items()},
    }


def classification_jsonable(cl: Classification) -> dict:
    return {
        "family": cl.family,
        "overall": cl.overall,
        "reversibility": branch_jsonable(cl.reversibility),
        "symmetry": branch_jsonable(cl.symmetry),
    }


def table_jsonable(cmap: CandidatePointMap, csv_path: Optional[str]) -> dict:
    return {
        "selection": list(cmap.selection.entries),
        "kind": cmap.kind.value,
        "status": cmap.status,
        "entries": len(cmap.entries),
        "stats": {k: int(v) for k, v in cmap.stats.items()},
        "csv": csv_path,
    }


def build_report(
    command: str,
    spec_echo: dict,
    seed: int,
    checks: list,
    exit_code: int,
    timing_ms: Optional[float] = None,
) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "symflow",
        "version": __version__,
        "command": command,
        "seed": str(seed),
        "spec": spec_echo,
        "checks": checks,
        "exit_code": exit_code,
    }
    if timing_ms is not None:
        report["timing_ms"] = float_str(timing_ms)
    return report


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
