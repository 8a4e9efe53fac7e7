"""Voting decision models: map (utilities, poll) to a single Plurality vote.

Families
--------
TRUTH   vote the most preferred candidate, ignoring the poll.
BR      best response treating the poll as the actual standings.
PRAG    k-pragmatist: most preferred among the k poll leaders.
CV      expected-gain maximization over pivot probabilities (see ``pivot``).
LD      local dominance within a score-uncertainty radius.
LDLB    local dominance with a leader bias when no tie is deemed possible.
TMG     fixed voter types: truthful / compromiser / leader-biased (m=3).
AU      multiplicative utility-attainability trade-off.
NN      learned baseline (see ``nn``); only ``evaluate`` trains and scores it.

Every family but NN has one decision path, :func:`decide_matrix`, which
decides a whole parameter grid over a batch of records (utilities and poll
scores as (R, m) arrays) in array operations; :func:`decide` is its
one-point, one-record case.  The tests' oracle, ``tests/scalar_deciders.py``,
states each family's definition candidate by candidate, and the tests check
the array code against it.  NN is not a grid family: ``evaluate`` trains
one network per fold and predicts with it (``evaluation._predict_nn``).

All deciders are deterministic functions of their inputs and parameters:
CV too, since its pivot tables depend only on the poll's scores and eta
(exact for m <= 4; for m >= 5 exact within ``pivot.TERM_BUDGET``, past it
Monte-Carlo seeded from the scores and eta).  Tie-breaking conventions are
part of the model semantics.  Preference ties and poll-score ties break toward the lower
candidate index; among equally good votes, BR and AU pick the more
preferred candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from typing import Iterator, Mapping, Sequence

import numpy as np

from .behavior import poll_positions
from .core import Candidate, Poll, UtilityFunction

TMG_TYPES = ("TRT", "CMP", "LB")


class Family(str, Enum):
    TRUTH = "TRUTH"
    BR = "BR"
    PRAG = "PRAG"
    CV = "CV"
    LD = "LD"
    LDLB = "LDLB"
    TMG = "TMG"
    AU = "AU"
    NN = "NN"


# Smoothing constant added to both AU utility and attainability factors.
AU_EPSILON = 0.001

_FAMILY_PARAMS = {
    Family.TRUTH: (),
    Family.BR: (),
    Family.PRAG: ("k",),
    Family.CV: ("eta",),
    Family.LD: ("r",),
    Family.LDLB: ("r",),
    Family.TMG: ("voter_type",),
    Family.AU: ("alpha", "beta"),
    Family.NN: (),
}


# Each parameter's one rule: an array test of the real numbers it takes
# (none for voter_type), the strings it takes, and what a value must be.
_RULES = {
    "k": (lambda x: (x >= 1) & (x % 1 == 0), (), "k must be a positive integer"),
    "r": (lambda x: (x >= 0) & (x <= 1), (), "r must lie in [0, 1]"),
    "eta": (lambda x: (x >= 1) & (x % 1 == 0), ("n",), "eta must be a positive integer or 'n'"),
    "voter_type": (lambda x: x > np.inf, TMG_TYPES, f"voter_type must be one of {TMG_TYPES}"),
    "alpha": (lambda x: (x >= 0) & (x <= 2), (), "alpha must lie in [0, 2]"),
    "beta": (lambda x: x >= 0, (), "beta must be non-negative"),
}


@np.errstate(invalid="ignore")  # for NaN and inf
def _passes(name: str, values: Sequence) -> np.ndarray:
    """Which of ``values`` keep ``name``'s rule; a column of Python numbers is tested in numpy."""
    test, words, _ = _RULES[name]
    if set(map(type, values)) <= {int, float}:
        x = np.asarray(values)  # of objects only for an int past int64
    else:  # NaN for each value that is not a real number: a bool is not one
        real = [v if isinstance(v, Real) and not isinstance(v, bool) else np.nan for v in values]
        x = np.array(real, dtype=object)
    ok = np.asarray(test(x), dtype=bool)
    return ok | [isinstance(v, str) and v in words for v in values] if words else ok


def check_points(family: Family, points: Sequence[Mapping]) -> dict[str, list]:
    """The column of each of ``family``'s parameters over ``points``, all checked.

    A descriptor and a :class:`ParameterGrid` check here, once, when they
    are built; :func:`decide_matrix` reads a grid's columns unchecked.  A
    point gives the family's parameters and no other (``None`` is not
    given), each keeping its rule in ``_RULES``.  ``ValueError`` names the
    first bad point's first problem: a parameter given or missing, in
    ``_RULES`` order, then a value, in the family's order.  PRAG's k <= m
    and TMG's m = 3 are checked where m is known.
    """
    family = Family(family)
    names = _FAMILY_PARAMS[family]
    # Dicts of as many keys as the family has parameters: one missing reads None, which fails.
    if set(map(type, points)) <= {dict} and set(map(len, points)) <= {len(names)}:
        columns = {name: [point.get(name) for point in points] for name in names}
        if all(_passes(name, column).all() for name, column in columns.items()):
            return columns
    for point in points:  # one at a time, to name the first bad one
        if not isinstance(point, Mapping):
            raise TypeError(f"a parameter point must be a mapping, got {point!r}")
        for name in [*(key for key in point if key not in _RULES), *_RULES]:
            given = point.get(name) is not None
            if given and name not in names:
                raise ValueError(f"{family.value} does not take parameter {name!r}")
            if not given and name in names:
                raise ValueError(f"{family.value} requires parameter {name!r}")
        for name in names:
            if not _passes(name, [point[name]])[0]:
                raise ValueError(f"{_RULES[name][2]}, got {point[name]!r}")
    return {name: [point[name] for point in points] for name in names}


@dataclass(frozen=True)
class ModelDescriptor:
    """A model family plus its parameter assignment.

    ``eta`` may be the string ``"n"``, resolved to the poll's participant
    count at decision time.
    """

    family: Family
    k: int | None = None
    r: float | None = None
    eta: int | str | None = None
    voter_type: str | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        check_points(family, [{name: getattr(self, name) for name in _RULES}])

    def params(self) -> dict:
        return {name: getattr(self, name) for name in _FAMILY_PARAMS[self.family]}

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.family.value}({inner})" if inner else self.family.value


_DEFAULT_CV_ETAS: tuple = (*(2**k for k in range(14)), 10000, 16384, 20000, "n")
_DEFAULT_ALPHAS = tuple(round(0.05 * i, 2) for i in range(41))
_DEFAULT_BETAS = tuple(range(51)) + tuple(range(60, 101, 10))


@dataclass(frozen=True)
class ParameterGrid:
    """Ordered candidate parameter points for one family, checked once.

    The points are checked by :func:`check_points` when the grid is built,
    as a descriptor's are, and ``columns`` keeps what it returns: each
    parameter's values in point order.  :func:`decide_matrix` decides from
    those columns, one row of decisions per point in this order; fitting
    ties resolve to the earliest point.  An empty grid raises ``ValueError``.
    """

    family: Family
    points: tuple[dict, ...]
    columns: dict[str, list] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("parameter grid is empty")
        object.__setattr__(self, "columns", check_points(self.family, self.points))
        object.__setattr__(self, "family", Family(self.family))

    @classmethod
    def default(cls, family: Family, *, m: int = 3, cv_etas: Sequence | None = None):
        """The family's default grid for ``m``-candidate data.

        ``m`` caps the ``PRAG`` grid, k in {1, 2, 3}, at k <= m.  ``TMG``
        and ``NN`` raise ``ValueError`` unless ``m == 3``, so a family the
        data cannot take fails before any family is evaluated.
        """
        family = Family(family)
        if family is Family.TMG and m != 3:
            raise ValueError("TMG types are defined for exactly three candidates")
        if family is Family.NN and m != 3:
            raise ValueError("the classifier is defined for exactly three candidates")
        if family is Family.PRAG:
            return cls(family, tuple({"k": k} for k in (1, 2, 3) if k <= m))
        if family in (Family.LD, Family.LDLB):
            return cls(family, tuple({"r": round(0.01 * i, 2)} for i in range(101)))
        if family is Family.CV:
            etas = tuple(cv_etas) if cv_etas is not None else _DEFAULT_CV_ETAS
            return cls(family, tuple({"eta": e} for e in etas))
        if family is Family.AU:
            points = ({"alpha": a, "beta": b} for a in _DEFAULT_ALPHAS for b in _DEFAULT_BETAS)
            return cls(family, tuple(points))
        if family is Family.TMG:
            return cls(family, tuple({"voter_type": t} for t in TMG_TYPES))
        return cls(family, ({},))  # TRUTH, BR and NN take no parameters


@dataclass
class DecisionContext:
    """Runtime inputs beyond (u, s).

    ``pivot_cache`` shares CV pivot tables across calls (a table depends
    only on the poll's scores and eta, so any calls may share one cache).
    """

    pivot_cache: dict | None = None


def _checked_rows(U, S, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``U``, ``S`` and ``n`` as float and int64 arrays, ``U`` and ``S`` both
    (R, m) with m >= 2, ``U`` finite and non-negative as in every record, and
    ``n`` (R,); ``ValueError`` otherwise."""
    U, S = np.asarray(U, dtype=float), np.asarray(S, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    if U.ndim != 2 or U.shape[1] < 2 or S.shape != U.shape or n.shape != U.shape[:1]:
        raise ValueError(f"utility/poll dimension mismatch: U {U.shape}, S {S.shape}, n {n.shape}")
    if not ((U >= 0) & (U < np.inf)).all():
        raise ValueError("utilities must be finite and non-negative")
    return U, S, n


def _as_rows(u: UtilityFunction, s: Poll) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (u, s) as the ``U``, ``S`` and ``n`` arrays of :func:`decide_matrix`."""
    return _checked_rows([u.values], [s.scores], [s.n])


def _possible_winners(S: np.ndarray, n: np.ndarray, radii: Sequence[float]) -> np.ndarray:
    """``possible[i, j, c]``: ``S[j, c] >= max(S[j]) - 2*r_i*n[j]``, shape (len(radii), R, m)."""
    threshold = S.max(axis=1)[None, :] - 2.0 * np.asarray(radii, dtype=float)[:, None] * n[None, :]
    return S[None, :, :] >= threshold[:, :, None]


def undominated_set(u: UtilityFunction, s: Poll, r: float) -> frozenset:
    """Candidates not locally dominated at uncertainty radius ``r``.

    The possible-winner set is ``W = {c : s(c) >= max(s) - 2*r*n}``.  With
    two or more possible winners every W member except the least preferred
    is undominated (least-preferred ties break toward the higher index, so
    exactly one is removed); with a single possible winner no vote can
    matter and every candidate is undominated.
    """
    check_points(Family.LD, [{"r": r}])
    _, S, n = _as_rows(u, s)
    possible = np.flatnonzero(_possible_winners(S, n, (r,))[0, 0]).tolist()
    if len(possible) == 1:
        return frozenset(range(s.m))
    dropped = min(possible, key=lambda c: (u[c], -c))
    return frozenset(c for c in possible if c != dropped)


def _attainability(S: np.ndarray, n: np.ndarray, betas: Sequence[float]) -> np.ndarray:
    """Logistic attainability per (beta, record, candidate), shape (B, R, m)."""
    m = S.shape[1]
    # A zero-participant poll carries no standing information; fall back to
    # the neutral share 1/m so the logistic sits at its midpoint.
    shares = np.where(n[:, None] == 0, 1.0 / m, S / np.maximum(n, 1)[:, None])
    margin = shares - 1.0 / m
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(betas, dtype=float)[:, None, None] * margin))


# Score elements per block of AU points, which keeps each block's
# temporaries in cache and bounds memory whatever the record count.
_AU_BLOCK = 1 << 15


def _au_scores(
    U: np.ndarray,
    S: np.ndarray,
    n: np.ndarray,
    alphas: Sequence[float],
    betas: Sequence[float],
) -> Iterator[tuple[slice, np.ndarray]]:
    """Scores ``(eps+u)^alpha * (eps+a)^(2-alpha)`` in blocks of points.

    Point i is ``(alphas[i], betas[i])``; each yielded ``(points, scores)``
    has scores of shape (len(points), R, m).  The first power and the
    attainability are computed once per distinct alpha and beta.  The
    attainability operand of the second power is a contiguous copy and its
    exponent varies along the point axis only: numpy's float64 ``power``
    can round differently when the operands are laid out otherwise, and the
    scores must not depend on how many records or points are scored
    together.
    """
    al = np.asarray(alphas, dtype=float)
    be = np.asarray(betas, dtype=float)
    alpha_values, alpha_index = np.unique(al, return_inverse=True)
    beta_values, beta_index = np.unique(be, return_inverse=True)
    eu = np.power(AU_EPSILON + U, alpha_values[:, None, None])
    ea = AU_EPSILON + _attainability(S, n, beta_values)
    step = max(1, _AU_BLOCK // max(U.size, 1))
    for start in range(0, len(al), step):
        block = slice(start, start + step)
        exponent = (2.0 - al[block])[:, None, None]
        yield block, eu[alpha_index[block]] * np.power(ea[beta_index[block]], exponent)


def au_score(
    u: UtilityFunction, s: Poll, c: Candidate, alpha: float, beta: float
) -> float:
    """Attainability-utility score ``(eps+u)^alpha * (eps+a)^(2-alpha)``."""
    s._check_candidate(c)
    check_points(Family.AU, [{"alpha": alpha, "beta": beta}])
    _, scores = next(_au_scores(*_as_rows(u, s), (alpha,), (beta,)))
    return float(scores[0, 0, c])


def au_decisions_grid(
    u: UtilityFunction,
    s: Poll,
    alphas: Sequence[float],
    betas: Sequence[float],
) -> np.ndarray:
    """AU decisions for the points ``(alphas[i], betas[i])``, shape (P,)."""
    points = tuple({"alpha": a, "beta": b} for a, b in zip(alphas, betas, strict=True))
    return decide_matrix(ParameterGrid(Family.AU, points), *_as_rows(u, s))[:, 0]


def _best_response_values(U: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Winner-set utility after a vote for each candidate, shape (R, m)."""
    R, m = U.shape
    # after[j, c]: poll j plus a vote for c, less its top score so that a
    # score of 2**63 - 1 plus the vote cannot wrap.
    after = (S - S.max(axis=1, keepdims=True))[:, None, :] + np.eye(m, dtype=np.int64)
    won = after == after.max(axis=2, keepdims=True)
    # Summed in candidate order from zero: a tied winner set's mean utility
    # can depend on the summation order in the last bit.
    total = np.zeros((R, m))
    for d in range(m):
        total = total + np.where(won[:, :, d], U[:, d, None], 0.0)
    return total / won.sum(axis=2)


def decide_matrix(
    grid: ParameterGrid,
    U: np.ndarray,
    S: np.ndarray,
    n: np.ndarray,
    context: DecisionContext | None = None,
) -> np.ndarray:
    """Decisions of the grid's family at every (grid point, record), int64 shape (P, R).

    Record j has utilities ``U[j]`` and poll scores ``S[j]`` (both (R, m))
    from a poll of reported size ``n[j]``.  The grid's ``columns`` were
    checked when it was built; only what needs the records is checked here:
    the shapes, finite non-negative utilities, PRAG's k <= m, TMG's m = 3
    and CV's scores and resolved ``eta="n"``.  Every family decides every point and record in array
    operations; CV through :func:`pivot.cv_votes`, which builds each
    distinct (scores, eta) table once, shared through ``context.pivot_cache``
    when given.  AU scores only the records where a less preferred
    candidate polls above Q, the most preferred.  In every other record
    each candidate is weakly dominated by Q, each step of a score is
    monotone and ties go to Q, so every point votes Q.  Mismatched shapes
    raise ``ValueError``, and so does NN: ``evaluate`` trains and predicts
    its networks.
    """
    family, columns, P = grid.family, grid.columns, len(grid.points)
    if family is Family.NN:
        raise ValueError("NN has no grid; a trained network predicts through nn.predict_record")
    U, S, n = _checked_rows(U, S, n)
    R = len(U)
    if family is Family.CV:
        from . import pivot  # only CV grids need the pivot tables

        cache = context.pivot_cache if context is not None else None
        return pivot.cv_votes(U, S, n, columns["eta"], cache)
    # Each array family picks a preference rank per (point, record): 0 is
    # the most preferred candidate.  Columns are put in preference order
    # first, so an argmax breaks ties toward the more preferred candidate.
    order = np.argsort(-U, axis=1, kind="stable")
    by_preference = (np.arange(R)[:, None], order)
    if family in (Family.LD, Family.LDLB):
        possible = _possible_winners(S[by_preference], n, columns["r"])
        rank = np.argmax(possible, axis=-1)
        if family is Family.LD:
            rank = np.where(possible.sum(axis=-1) >= 2, rank, 0)
    elif family is Family.AU:
        # Q, unscored, wherever Q polls top.  Elsewhere the first candidate,
        # in preference order, that no later one outscores: argmax's pick,
        # as non-negative utilities give no NaN score.
        votes = np.empty((P, R), dtype=np.int64)
        votes[:] = order[:, 0]
        vary = np.flatnonzero(S[np.arange(R), order[:, 0]] < S.max(axis=1))
        ranked = order[vary]
        rows = vary[:, None], ranked
        for block, scores in _au_scores(U[rows], S[rows], n[vary], *columns.values()):
            best, vote = scores[..., 0], ranked[:, 0]
            for c in range(1, U.shape[1]):
                better = scores[..., c] > best
                best, vote = np.maximum(best, scores[..., c]), np.where(better, ranked[:, c], vote)
            votes[block, vary] = vote
        return votes
    elif family is Family.BR:
        values = _best_response_values(U, S)[by_preference]
        rank = np.broadcast_to(np.argmax(values, axis=-1), (P, R))
    elif family is Family.TRUTH:
        rank = np.zeros((P, R), dtype=np.int64)
    elif family is Family.PRAG:
        rank = _pragmatist_ranks(columns["k"], poll_positions(S, order))
    else:  # Family.TMG
        rank = _tmg_ranks(columns["voter_type"], poll_positions(S, order))
    return order[np.arange(R), rank].astype(np.int64, copy=False)


def _pragmatist_ranks(ks: Sequence[int], position: np.ndarray) -> np.ndarray:
    """PRAG preference ranks, shape (P, R): the first rank polled in the top k."""
    for k in ks:
        if k > position.shape[1]:
            raise ValueError(f"k must lie in [1, m], got {k}")
    return np.argmax(position[None] < np.array(ks)[:, None, None], axis=-1)


def _tmg_ranks(voter_types: Sequence[str], position: np.ndarray) -> np.ndarray:
    """TMG preference ranks, shape (P, R).

    ``TRT`` always votes Q; ``CMP`` votes Q' when Q polls last, else Q;
    ``LB`` votes Q' when Q' polls first, else behaves like ``CMP``.  Poll
    ranks are strict after index tie-breaking.
    """
    R, m = position.shape
    if m != 3:
        raise ValueError("TMG types are defined for exactly three candidates")
    compromise = (position[:, 0] == m - 1).astype(np.int64)
    ranks = {
        "TRT": np.zeros(R, dtype=np.int64),
        "CMP": compromise,
        "LB": np.where(position[:, 1] == 0, 1, compromise),
    }
    return np.array([ranks[t] for t in voter_types], dtype=np.int64).reshape(len(voter_types), R)


def decide(
    descriptor: ModelDescriptor,
    u: UtilityFunction,
    s: Poll,
    context: DecisionContext | None = None,
) -> Candidate:
    """The descriptor's decision: the one-point, one-record case of :func:`decide_matrix`."""
    grid = ParameterGrid(descriptor.family, (descriptor.params(),))
    return int(decide_matrix(grid, *_as_rows(u, s), context)[0, 0])
