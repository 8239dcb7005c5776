"""Correctness checks on the outputs of one benchmark operation.

Each check returns a list of problems; an empty list means the operation
is correct.  None of this runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def digest_dir(path) -> dict:
    """sha256 of every regular file directly inside `path`, by file name."""
    out = {}
    for entry in sorted(Path(path).iterdir()):
        if entry.is_file():
            h = hashlib.sha256()
            with open(entry, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[entry.name] = h.hexdigest()
    return out


def check_pinned(digests: dict, pinned) -> list:
    """Artifacts must match their pinned digests byte for byte."""
    if not pinned:
        return ["no pinned digests for this input"]
    problems = [f"{name}: missing" for name in sorted(set(pinned) - set(digests))]
    problems += [f"{name}: not pinned" for name in sorted(set(digests) - set(pinned))]
    problems += [f"{name}: sha256 {digests[name][:12]} != pinned {pinned[name][:12]}"
                 for name in sorted(set(pinned) & set(digests))
                 if digests[name] != pinned[name]]
    return problems


def check_closure(op_dir) -> list:
    """`analyze` on a run's events.log must reproduce the run's hits.csv."""
    from memesim import cli

    op_dir = Path(op_dir)
    cli.cmd_analyze(op_dir / "events.log", 1, op_dir / "closure")
    if (op_dir / "closure" / "hits.csv").read_bytes() != (op_dir / "hits.csv").read_bytes():
        return ["analyze(events.log) hits.csv differs from the run's hits.csv"]
    return []


def check_analyze(op_dir, expected: dict) -> list:
    """summary.json, hits.csv and bins.csv must equal the generator's counts."""
    op_dir = Path(op_dir)
    problems = []
    summary = json.loads((op_dir / "summary.json").read_text())
    if summary != expected["summary"]:
        problems.append(f"summary.json {summary} != expected {expected['summary']}")
    for name, key in (("hits.csv", "hits_csv"), ("bins.csv", "bins_csv")):
        if (op_dir / name).read_text() != expected[key]:
            problems.append(f"{name} differs from the generated counts")
    return problems


def check_fit(path, expected: dict) -> list:
    """The fit converged and every coefficient is within tolerance of the
    generating value."""
    fit = json.loads(Path(path).read_text())
    problems = [] if fit.get("converged") else [f"{Path(path).name}: not converged"]
    got = fit.get("coefficients", [])
    want = expected["coefficients"]
    if len(got) != len(want):
        return problems + [f"{Path(path).name}: {len(got)} coefficients, expected {len(want)}"]
    problems += [f"{Path(path).name}: coefficient {i} = {g:.4f}, expected {w} +- {expected['tolerance']}"
                 for i, (g, w) in enumerate(zip(got, want))
                 if not math.isclose(g, w, abs_tol=expected["tolerance"])]
    return problems
