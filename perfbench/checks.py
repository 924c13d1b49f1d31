"""Output checks.  Every failed check counts into the run's ``failed``.

The checks are written against plain numpy arrays and do not call the
library's own validators, so a defect in the code under test cannot hide
itself by also breaking the check.
"""

from __future__ import annotations

import math

import numpy as np


class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, problems: list[str]) -> bool:
        """Count one operation; it failed when ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems[:5])
        return not problems


def simple_problems(u, v, n: int) -> list[str]:
    """Self loops, duplicate edges and out-of-range endpoints."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if len(u) != len(v):
        return [f"endpoint arrays differ in length ({len(u)} vs {len(v)})"]
    if len(u) == 0:
        return []
    problems = []
    if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
        problems.append("endpoint out of range")
    loops = int(np.count_nonzero(u == v))
    if loops:
        problems.append(f"{loops} self loops")
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    dups = len(keys) - len(np.unique(keys))
    if dups:
        problems.append(f"{dups} duplicate edges")
    return problems


def degree_sequence(u, v, n: int) -> np.ndarray:
    return np.bincount(u, minlength=n) + np.bincount(v, minlength=n)


def degree_l1_error(u, v, n: int, degrees, counts) -> float:
    """Relative L1 distance of the output degree histogram from the target.

    ``sum_d |N_out(d) - N_target(d)| / n``, where ``N(d)`` counts the
    vertices of degree ``d``.
    """
    out = np.bincount(degree_sequence(u, v, n))
    top = max(len(out), int(np.max(degrees)) + 1)
    target = np.zeros(top, dtype=np.int64)
    np.add.at(target, np.asarray(degrees, dtype=np.int64), counts)
    out = np.pad(out, (0, top - len(out)))
    return float(np.abs(out - target).sum()) / n


def edge_count_problems(m: int, expected: float, sigmas: float = 6.0) -> list[str]:
    """Edge count within ``sigmas`` standard deviations of its expectation.

    The edge count is a sum of independent Bernoulli draws, so its
    variance is at most its mean; six of those deviations put a false
    alarm at about one in 10^9.
    """
    if abs(m - expected) > sigmas * math.sqrt(max(expected, 1.0)):
        return [f"edge count {m} is not within {sigmas} sd of {expected:.0f}"]
    return []


def same_graph_problems(a, b, what: str) -> list[str]:
    """Bitwise equality of two outputs made with the same seed."""
    if not (np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)):
        return [f"{what}: same seed gave a different output"]
    return []
