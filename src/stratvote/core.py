"""Election primitives: polls and utility functions.

Candidates are integer indices ``0 .. m-1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

Candidate = int


@dataclass(frozen=True)
class Poll:
    """Observed Plurality scores for ``m >= 2`` candidates.

    ``n`` is the reported participant count.  :meth:`from_scores` sets it to
    the score total, which is the canonical case; loaders may carry a
    differing reported ``n`` (published polls are sometimes rounded), and all
    consumers normalize against the appropriate total themselves.
    """

    scores: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        scores = tuple(int(s) for s in self.scores)
        if len(scores) < 2:
            raise ValueError("a poll needs at least two candidates")
        if any(s < 0 for s in scores) or any(s != t for s, t in zip(scores, self.scores)):
            raise ValueError(f"poll scores must be non-negative integers, got {self.scores!r}")
        n = int(self.n)
        if n != self.n or n < 0:
            raise ValueError(f"participant count must be a non-negative integer, got {self.n!r}")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_scores(cls, scores: Iterable[int]) -> "Poll":
        scores = tuple(int(s) for s in scores)
        return cls(scores, sum(scores))

    @property
    def m(self) -> int:
        return len(self.scores)

    def _check_candidate(self, c: Candidate) -> None:
        if not 0 <= c < self.m:
            raise ValueError(f"candidate index {c} out of range for m={self.m}")


@dataclass(frozen=True)
class UtilityFunction:
    """Non-negative finite utility per candidate, in candidate order."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValueError("need utilities for at least two candidates")
        if any(not math.isfinite(v) or v < 0 for v in values):
            raise ValueError(f"utilities must be finite and non-negative, got {self.values!r}")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return len(self.values)

    def __getitem__(self, c: Candidate) -> float:
        return self.values[c]

