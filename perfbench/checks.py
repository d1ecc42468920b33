"""Output checks applied to every run the benchmark makes.

A run passes when its final clustering has k non-empty clusters whose
centers are the member means, its reported final objectives equal
``gameclust.objectives`` recomputed on the final clustering, and every
accepted iteration obeys the acceptance rule (the ``bad_accepts`` test
of acceptance criterion 8).
"""

from __future__ import annotations

import hashlib
import math
from typing import List

import numpy as np

from gameclust import objectives

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def accepted_ok(record) -> bool:
    """True when an accepted iteration obeys the acceptance rule."""
    if record.reallocation_score is not None:
        return record.reallocation_score < 2.0
    if record.l_end > record.l_before_games:
        return False
    return not (record.l_end == record.l_before_games and record.sse_end > record.sse_before_games)


def check_report(dataset, k: int, report) -> List[str]:
    """Problems found in one run's report; empty when the run is correct."""
    c = report.final_clustering
    a = np.asarray(c.assignment)
    if c.k != k or a.shape != (dataset.n,) or a.min() < 0 or a.max() >= k:
        return [f"final clustering is not a k={k} assignment of {dataset.n} points"]
    problems = []
    loads = np.bincount(a, minlength=k)
    if np.any(loads == 0):
        problems.append(f"cluster {int(np.flatnonzero(loads == 0)[0])} is empty")
    elif not np.array_equal(loads, c.loads):
        problems.append("reported loads differ from the assignment")
    else:
        sums = np.zeros((k, dataset.dim))
        np.add.at(sums, a, dataset.points)
        if not np.allclose(c.centers, sums / loads[:, None], rtol=REL_TOL, atol=REL_TOL):
            problems.append("centers are not the member means")
        again = objectives(dataset, c)
        if not _close(report.final.sse, again.sse):
            problems.append(f"final SSE {report.final.sse!r} != recomputed {again.sse!r}")
        if not _close(report.final.load_metric, again.load_metric):
            problems.append(f"final L {report.final.load_metric!r} != recomputed {again.load_metric!r}")
    bad = [r.index for r in report.trace if r.accepted and not accepted_ok(r)]
    if bad:
        problems.append(f"iterations {bad} accepted against the acceptance rule")
    return problems


def assignment_digest(assignment) -> bytes:
    """Digest of one final assignment, independent of its integer width."""
    return hashlib.sha256(np.asarray(assignment, dtype="<i8").tobytes()).digest()


def pass_digest(run_digests: List[bytes]) -> str:
    """Digest of a pass: its runs' digests in the natural run order."""
    return hashlib.sha256(b"".join(run_digests)).hexdigest()[:16]
