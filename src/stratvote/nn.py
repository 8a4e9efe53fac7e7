"""Single-hidden-layer softmax classifier over relabeled vote records.

Classes are preference ranks (0 votes Q, 1 votes Q', 2 votes Q''), so one
network serves any candidate labeling.  Features, in order:

- poll shares of Q, Q', Q'' (divided by poll size)
- pairwise share gaps (Q-Q', Q-Q'', Q'-Q'')
- original candidate index of Q, Q', Q'', scaled to [0, 1]
- gap between the poll leader and Q, divided by poll size
- scenario one-hot (A..F; all zero when the poll is tied)
- availability-normalized action ratios (TRT, CMP, LB), absent -> 0
- presence flags for those three ratios
- voter-type one-hot (TRT, LB, OTHER)

The first 16 come from record columns
(:func:`record_features`), the last 9 from a profile's summed ratio counts
(:func:`features`).  :func:`predict_record` and :func:`fit_network` are the
one-record and one-fold cases, over a voter's rows of a
:class:`data.RecordTable`.  Networks live only inside
``evaluate``, which trains and scores them and writes none to disk, so a
:class:`Network` has no serialised form.

All features lie in [-1, 1].  Hidden layer: 3 logistic units; output:
softmax over the 3 ranks; training: full-batch gradient descent on
cross-entropy with L2 weight decay.

Training has one path, :func:`train_stack`, which trains F networks of
equal-sized training sets at once: weights of shape (F, h, d), (F, h),
(F, c, h) and (F, c), every forward, backward and update step batched over
the fold axis.  Every network ends with the same weights, bit for bit, as
one trained alone, because each step does one network's arithmetic in one
network's order:

- an elementwise step gives the same bits in any layout;
- a sum or max over the classes or the rows runs over the leading axis of a
  C-contiguous copy, class-major (c, F, n) for the softmax and (n, F, k) for
  the bias gradients, which numpy reduces element after element, as it
  reduces one network's 3 classes (fewer than its 8-element pairwise
  threshold) and its rows (a leading axis);
- the cross-entropy mean and the L2 penalty reduce each fold's own
  contiguous row, pairwise as one network's;
- each matrix product is one per fold, and its operands keep the layouts
  one network's arrays have: a contiguous copy of w1 transposed, say, makes
  BLAS sum in another order.

:func:`train` and
:func:`loss_and_grads` are its one-network case.  :func:`fit_folds` trains
feature and target arrays of any sizes: those of one size train as one
stack, split only past ``MAX_STACK_ROWS`` training rows per stack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .behavior import SCENARIOS, VOTER_TYPES, VoterProfile, build_profile, ratio_stats
from .data import RecordTable

FEATURE_DIM = 25
NUM_CLASSES = 3
HIDDEN_SIZE = 3

# Training rows per train_stack call in fit_folds; a larger group of
# equal-sized folds is split, which bounds the memory of one stack's training.
MAX_STACK_ROWS = 16_384

_PARAM_NAMES = ("w1", "b1", "w2", "b2")


def record_features(S: np.ndarray, n: np.ndarray, order: np.ndarray, scenario: np.ndarray):
    """The (R, 16) record-only features, from ``data.RecordTable`` columns.

    ``S`` holds the (R, 3) poll scores, ``n`` the poll sizes, ``order`` each
    record's preference order and ``scenario`` indexes ``SCENARIO_LABELS``.
    """
    if S.shape[1] != 3:
        raise ValueError("the classifier is defined for exactly three candidates")
    rows = np.arange(len(S))[:, None]
    total = S.sum(axis=1)
    norm = np.where(n > 0, n, np.where(total > 0, total, 1))[:, None]
    by_rank = S[rows, order] / norm
    gaps = by_rank[:, [0, 0, 1]] - by_rank[:, [1, 2, 2]]
    leader_gap = (S.max(axis=1)[:, None] - S[rows, order[:, :1]]) / norm
    scenario_onehot = scenario[:, None] == np.arange(len(SCENARIOS))
    return np.hstack([by_rank, gaps, order / 2.0, leader_gap, scenario_onehot])


def features(base: np.ndarray, available, selected) -> np.ndarray:
    """Feature rows: :func:`record_features` ``base`` beside a profile's block.

    ``available`` and ``selected`` are summed :func:`behavior.ratio_counts`,
    shape (3,) for one profile of every row or (R, 3) for one per row.
    """
    ratios, types = ratio_stats(available, selected)
    onehot = types[..., None] == np.arange(len(VOTER_TYPES))
    profile = np.concatenate([ratios, np.asarray(available) > 0, onehot], axis=-1)
    return np.hstack([base, np.broadcast_to(profile, (len(base), profile.shape[-1]))])


@dataclass
class Network:
    """Weights of the 3-unit hidden layer classifier."""

    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (classes, hidden)
    b2: np.ndarray  # (classes,)

    def __post_init__(self) -> None:
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
            setattr(self, name, arr)
        if (self.w1.ndim, self.b1.ndim, self.w2.ndim, self.b2.ndim) != (2, 1, 2, 1):
            raise ValueError("w1 and w2 must be matrices, b1 and b2 vectors")
        if self.w1.shape[0] != self.b1.shape[0] or self.w2.shape != (
            self.b2.shape[0],
            self.w1.shape[0],
        ):
            raise ValueError("inconsistent layer shapes")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 500
    learning_rate: float = 0.1
    seed: int = 0
    l2: float = 1e-4

    def __post_init__(self) -> None:
        epochs = self.epochs
        if isinstance(epochs, bool) or not isinstance(epochs, numbers.Integral) or epochs < 0:
            raise ValueError(f"epochs must be a non-negative integer, got {epochs!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and non-negative, got {self.l2}")


def init_network(input_dim: int, seed: int) -> Network:
    rng = np.random.default_rng(seed)
    return Network(
        w1=rng.uniform(-0.5, 0.5, size=(HIDDEN_SIZE, input_dim)),
        b1=rng.uniform(-0.5, 0.5, size=HIDDEN_SIZE),
        w2=rng.uniform(-0.5, 0.5, size=(NUM_CLASSES, HIDDEN_SIZE)),
        b2=rng.uniform(-0.5, 0.5, size=NUM_CLASSES),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of ``z``; overwrites ``z``."""
    positive = z >= 0
    e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    d = e + 1.0
    sigmoid = np.where(positive, 1.0, e)  # 1/d for z >= 0, e/d below
    sigmoid /= d
    return sigmoid


def _forward(
    params: dict[str, np.ndarray], X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (F, n, h) and class-major log-probabilities (c, F, n).

    ``params`` holds w1 (F, h, d), b1 (F, h), w2 (F, c, h), b2 (F, c) and
    ``X`` is (F, n, d); network f sees only X[f].  The softmax runs on a
    C-contiguous class-major copy of the logits, so its max and sum over the
    classes are reductions over the leading axis.
    """
    pre = X @ params["w1"].transpose(0, 2, 1)
    pre += params["b1"][:, None, :]
    hidden = _sigmoid(pre)
    logits = hidden @ params["w2"].transpose(0, 2, 1)
    log_probs = np.ascontiguousarray(logits.transpose(2, 0, 1))
    log_probs += params["b2"].T[:, :, None]
    log_probs -= log_probs.max(axis=0)
    total = np.exp(log_probs).sum(axis=0)
    log_probs -= np.log(total, out=total)
    return hidden, log_probs


def _params(net: Network) -> dict[str, np.ndarray]:
    """One network as a stack of one."""
    return {name: getattr(net, name)[None] for name in _PARAM_NAMES}


def predict_proba(net: Network, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != net.input_dim:
        raise ValueError(f"expected {net.input_dim} features, got {X.shape[1]}")
    _, log_probs = _forward(_params(net), X[None])
    return np.exp(log_probs[:, 0].T)


def predict(net: Network, features: np.ndarray) -> int:
    """Most probable class (ties to the lowest index)."""
    probs = predict_proba(net, features)
    return int(np.argmax(probs[0]))


def _target_index(y: np.ndarray) -> np.ndarray:
    """Flat indices of the (F, n) class targets ``y`` in class-major (c, F, n) arrays."""
    return y * y.size + np.arange(y.size).reshape(y.shape)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` of an (n, F, k) view, summed row after row.

    The C-contiguous copy turns the sum over n into one reduction over the
    leading axis, which adds the rows in order, as a sum over n of one
    fold's (n, k) array does.
    """
    return np.ascontiguousarray(a).sum(axis=0)


def _stack_loss_and_grads(
    params: dict[str, np.ndarray], X: np.ndarray, target: np.ndarray, l2: float
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-fold loss, shape (F,), and gradients of a stack of F networks.

    ``target`` holds the :func:`_target_index` of the (F, n) class indices.
    """
    n = X.shape[1]
    hidden, log_probs = _forward(params, X)
    flat = log_probs.reshape(-1)
    ce = -flat[target].mean(axis=1)
    w1, w2 = params["w1"], params["w2"]
    penalty = (w1 ** 2).sum(axis=(1, 2)) + (w2 ** 2).sum(axis=(1, 2))
    loss = ce + 0.5 * l2 * penalty

    probs = np.exp(log_probs, out=log_probs)
    np.subtract.at(flat, target, 1.0)
    probs /= n
    # The matmul operands keep the layouts of one network's (n, c) arrays:
    # a different layout can change BLAS's summation and so the bits.
    d_logits = np.ascontiguousarray(probs.transpose(1, 2, 0))
    dw2 = d_logits.transpose(0, 2, 1) @ hidden
    dw2 += l2 * w2
    db2 = _row_sums(probs.transpose(2, 1, 0))
    d_pre = d_logits @ w2
    d_pre *= hidden
    d_pre *= np.subtract(1.0, hidden, out=hidden)
    dw1 = d_pre.transpose(0, 2, 1) @ X
    dw1 += l2 * w1
    db1 = _row_sums(d_pre.transpose(1, 0, 2))
    return loss, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def loss_and_grads(
    net: Network, X: np.ndarray, y: np.ndarray, l2: float = 1e-4
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy plus L2 penalty, and its exact gradients.

    The L2 term is 0.5 * l2 * (|w1|^2 + |w2|^2); biases are not decayed.
    This is the one-network case of the stacked computation that
    :func:`train_stack` runs.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    loss, grads = _stack_loss_and_grads(_params(net), X[None], _target_index(y[None]), l2)
    return float(loss[0]), {name: g[0] for name, g in grads.items()}


def train_stack(X: np.ndarray, y: np.ndarray, hypers: Sequence[Hyperparams]) -> list[Network]:
    """Train F networks at once, network f on (X[f], y[f]) with hypers[f].

    ``X`` is (F, n, d) and ``y`` is (F, n).  Each network starts from
    ``init_network`` with its own seed; the folds must agree on epochs,
    learning rate and L2.  Every network ends with the same weights, bit
    for bit, as if it were trained alone.  The loss of every fold is
    checked on every epoch, and the weights once after the last; the first
    non-finite one aborts the whole stack, naming the epoch and that fold's
    seed.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 3 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("need a non-empty stack of non-empty 2-d feature matrices")
    if y.shape != X.shape[:2] or y.min() < 0 or y.max() >= NUM_CLASSES:
        raise ValueError("targets must be class indices aligned with X")
    if len(hypers) != X.shape[0]:
        raise ValueError(f"need one Hyperparams per fold, got {len(hypers)} for {X.shape[0]}")
    shared = {(h.epochs, h.learning_rate, h.l2) for h in hypers}
    if len(shared) != 1:
        raise ValueError("folds must share epochs, learning_rate and l2; only seeds may differ")
    ((epochs, rate, l2),) = shared

    def fold_text(fold: int) -> str:
        return f"in the fold with seed {hypers[fold].seed}; lr={rate}, l2={l2}"

    target = _target_index(y)
    nets = [init_network(X.shape[2], seed=h.seed) for h in hypers]
    params = {name: np.stack([getattr(net, name) for net in nets]) for name in _PARAM_NAMES}
    for epoch in range(epochs):
        loss, grads = _stack_loss_and_grads(params, X, target, l2)
        finite = np.isfinite(loss)
        if not finite.all():
            fold = int(np.argmin(finite))
            raise ArithmeticError(
                f"non-finite loss {loss[fold]} at epoch {epoch} {fold_text(fold)}"
            )
        for name in _PARAM_NAMES:
            grads[name] *= rate
            params[name] -= grads[name]
    weights = np.hstack([w.reshape(len(nets), -1) for w in params.values()])
    finite = np.isfinite(weights).all(axis=1)
    if not finite.all():
        fold = int(np.argmin(finite))
        raise ArithmeticError(f"non-finite weights after epoch {epochs - 1} {fold_text(fold)}")
    for f, net in enumerate(nets):
        for name in _PARAM_NAMES:
            setattr(net, name, params[name][f].copy())
    return nets


def train(X: np.ndarray, y: np.ndarray, hyper: Hyperparams = Hyperparams()) -> Network:
    """Full-batch gradient descent; deterministic for a fixed seed.

    The one-network case of :func:`train_stack`.
    """
    (net,) = train_stack(np.asarray(X)[None], np.asarray(y)[None], [hyper])
    return net


def fit_network(
    rows: RecordTable, hyper: Hyperparams = Hyperparams()
) -> tuple[Network, VoterProfile]:
    """Train on one voter's table rows; the profile comes from the same rows."""
    if not len(rows):
        raise ValueError("cannot fit a network on zero records")
    profile = build_profile(rows)
    base = record_features(rows.S, rows.n, rows.order, rows.scenario)
    X = features(base, profile.available, profile.selected)
    return train(X, rows.rank_of(rows.action), hyper), profile


def fit_folds(
    X: Sequence[np.ndarray], y: Sequence[np.ndarray], hypers: Sequence[Hyperparams]
) -> list[Network]:
    """:func:`train` on each fold, with few :func:`train_stack` calls.

    Fold f trains on features ``X[f]`` (n_f, d) and rank targets ``y[f]``
    with ``hypers[f]``.  Folds may differ in size: those of one size, in
    input order, train as one stack, split into stacks of at most
    ``MAX_STACK_ROWS`` training rows (at least one fold each).  Stacking
    leaves every network's weights unchanged, bit for bit.  Results are in
    input order.
    """
    if not len(X) or not all(len(x) for x in X):
        raise ValueError("cannot fit a network on zero records")
    if len(hypers) != len(X):
        raise ValueError(f"need one Hyperparams per fold, got {len(hypers)} for {len(X)}")
    by_size: dict[int, list[int]] = {}
    for f, x in enumerate(X):
        by_size.setdefault(len(x), []).append(f)
    fitted: dict[int, Network] = {}
    for size, members in by_size.items():
        step = max(1, MAX_STACK_ROWS // size)
        for stack in (members[i : i + step] for i in range(0, len(members), step)):
            nets = train_stack(
                np.stack([X[f] for f in stack]),
                np.stack([y[f] for f in stack]),
                [hypers[f] for f in stack],
            )
            fitted.update(zip(stack, nets))
    return [fitted[f] for f in range(len(X))]


def predict_record(net: Network, profile: VoterProfile, row: RecordTable) -> int:
    """Predicted candidate (not rank) for a table of one row, from its voter's profile.

    Under leave-one-out the profile comes from the voter's other rounds.
    """
    (order,) = row.order
    base = record_features(row.S, row.n, row.order, row.scenario)
    return int(order[predict(net, features(base, profile.available, profile.selected))])
