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

All features lie in [-1, 1].  Hidden layer: 3 logistic units; output:
softmax over the 3 ranks; training: full-batch gradient descent on
cross-entropy with L2 weight decay.

Training has one path, :func:`train_stack`, which trains F networks of
equal-sized training sets at once: weights of shape (F, h, d), (F, h),
(F, c, h) and (F, c), every forward, backward and update step batched over
the fold axis.  Each step is elementwise, a reduction within one fold, or
one matrix product per fold, so every network ends with the same weights,
bit for bit, as one trained alone.  :func:`train` and
:func:`loss_and_grads` are its one-network case.  :func:`fit_folds` trains
any number of training sets, of any sizes: the sets of one size train as
one stack, split only past ``MAX_STACK_ROWS`` training rows per stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .behavior import SCENARIOS, VOTER_TYPES, VoterProfile, build_profile, scenario_or_none
from .core import Poll, UtilityFunction, preference_order

FEATURE_DIM = 25
NUM_CLASSES = 3
HIDDEN_SIZE = 3

# Training rows per train_stack call in fit_folds; a larger group of
# equal-sized folds is split, which bounds the memory of one stack.
MAX_STACK_ROWS = 16_384

_RATIO_KEYS = ("TRT", "CMP", "LB")
_PARAM_NAMES = ("w1", "b1", "w2", "b2")


def features_from_parts(
    u: UtilityFunction, s: Poll, profile: VoterProfile
) -> np.ndarray:
    if u.m != 3 or s.m != 3:
        raise ValueError("the classifier is defined for exactly three candidates")
    prefs = preference_order(u.values)
    if len(set(u.values)) != 3:
        raise ValueError("features need strictly ordered utilities")
    norm = s.n if s.n > 0 else (sum(s.scores) or 1)
    by_rank = [s.scores[c] / norm for c in prefs]
    shares = by_rank
    gaps = [
        by_rank[0] - by_rank[1],
        by_rank[0] - by_rank[2],
        by_rank[1] - by_rank[2],
    ]
    pref_encoding = [c / 2.0 for c in prefs]
    leader_gap = [(max(s.scores) - s.scores[prefs[0]]) / norm]
    scenario = scenario_or_none(u, s)
    scenario_onehot = [1.0 if scenario == label else 0.0 for label in SCENARIOS]
    ratios = [profile.a_ratios.get(k, 0.0) for k in _RATIO_KEYS]
    present = [1.0 if k in profile.a_ratios else 0.0 for k in _RATIO_KEYS]
    type_onehot = [1.0 if profile.voter_type == t else 0.0 for t in VOTER_TYPES]
    vec = np.array(
        shares + gaps + pref_encoding + leader_gap + scenario_onehot + ratios + present + type_onehot,
        dtype=float,
    )
    assert vec.shape == (FEATURE_DIM,)
    return vec


def extract_features(record, profile: VoterProfile) -> np.ndarray:
    """Feature vector for one record; the profile must come from other rounds."""
    return features_from_parts(record.utilities, record.poll, profile)


def action_rank(record) -> int:
    prefs = preference_order(record.utilities.values)
    return prefs.index(record.action)


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
        if self.w1.shape[0] != self.b1.shape[0] or self.w2.shape != (
            self.b2.shape[0],
            self.w1.shape[0],
        ):
            raise ValueError("inconsistent layer shapes")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    def to_dict(self) -> dict:
        return {
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2.tolist(),
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "Network":
        return cls(
            w1=np.array(spec["w1"], dtype=float),
            b1=np.array(spec["b1"], dtype=float),
            w2=np.array(spec["w2"], dtype=float),
            b2=np.array(spec["b2"], dtype=float),
        )


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 500
    learning_rate: float = 0.1
    seed: int = 0
    l2: float = 1e-4

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.learning_rate <= 0 or self.l2 < 0:
            raise ValueError("invalid hyperparameters")


def init_network(
    input_dim: int,
    seed: int,
    hidden: int = HIDDEN_SIZE,
    classes: int = NUM_CLASSES,
) -> Network:
    rng = np.random.default_rng(seed)
    return Network(
        w1=rng.uniform(-0.5, 0.5, size=(hidden, input_dim)),
        b1=rng.uniform(-0.5, 0.5, size=hidden),
        w2=rng.uniform(-0.5, 0.5, size=(classes, hidden)),
        b2=rng.uniform(-0.5, 0.5, size=classes),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _forward(
    params: dict[str, np.ndarray], X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and log-probabilities of a stack of F networks.

    ``params`` holds w1 (F, h, d), b1 (F, h), w2 (F, c, h), b2 (F, c) and
    ``X`` is (F, n, d); network f sees only X[f].
    """
    hidden = _sigmoid(X @ params["w1"].transpose(0, 2, 1) + params["b1"][:, None, :])
    logits = hidden @ params["w2"].transpose(0, 2, 1) + params["b2"][:, None, :]
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    return hidden, log_probs


def _params(net: Network) -> dict[str, np.ndarray]:
    """One network as a stack of one."""
    return {name: getattr(net, name)[None] for name in _PARAM_NAMES}


def predict_proba(net: Network, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != net.input_dim:
        raise ValueError(f"expected {net.input_dim} features, got {X.shape[1]}")
    _, log_probs = _forward(_params(net), X[None])
    return np.exp(log_probs[0])


def predict(net: Network, features: np.ndarray) -> int:
    """Most probable class (ties to the lowest index)."""
    probs = predict_proba(net, features)
    return int(np.argmax(probs[0]))


def _stack_loss_and_grads(
    params: dict[str, np.ndarray], X: np.ndarray, target: np.ndarray, l2: float
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-fold loss, shape (F,), and gradients of a stack of F networks.

    ``target`` is the boolean one-hot mask (F, n, c) of the class indices.
    """
    F, n = X.shape[:2]
    hidden, log_probs = _forward(params, X)
    ce = -log_probs[target].reshape(F, n).mean(axis=1)
    w1, w2 = params["w1"], params["w2"]
    penalty = (w1 ** 2).sum(axis=(1, 2)) + (w2 ** 2).sum(axis=(1, 2))
    loss = ce + 0.5 * l2 * penalty

    # p - 1 at the target and p - 0 == p elsewhere, as one subtraction.
    d_logits = (np.exp(log_probs) - target) / n
    dw2 = d_logits.transpose(0, 2, 1) @ hidden + l2 * w2
    db2 = d_logits.sum(axis=1)
    d_hidden = d_logits @ w2
    d_pre = d_hidden * hidden * (1.0 - hidden)
    dw1 = d_pre.transpose(0, 2, 1) @ X + l2 * w1
    db1 = d_pre.sum(axis=1)
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
    target = np.arange(net.b2.shape[0]) == y[None, :, None]
    loss, grads = _stack_loss_and_grads(_params(net), X[None], target, l2)
    return float(loss[0]), {name: g[0] for name, g in grads.items()}


def train_stack(
    X: np.ndarray,
    y: np.ndarray,
    hypers: Sequence[Hyperparams],
    hidden: int = HIDDEN_SIZE,
    classes: int = NUM_CLASSES,
) -> list[Network]:
    """Train F networks at once, network f on (X[f], y[f]) with hypers[f].

    ``X`` is (F, n, d) and ``y`` is (F, n).  Each network starts from
    ``init_network`` with its own seed; the folds must agree on epochs,
    learning rate and L2.  Every network ends with the same weights, bit
    for bit, as if it were trained alone.  The loss of every fold is
    checked on every epoch; the first non-finite one aborts the whole
    stack, naming the epoch and that fold's seed.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 3 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("need a non-empty stack of non-empty 2-d feature matrices")
    if y.shape != X.shape[:2] or y.min() < 0 or y.max() >= classes:
        raise ValueError("targets must be class indices aligned with X")
    if len(hypers) != X.shape[0]:
        raise ValueError(f"need one Hyperparams per fold, got {len(hypers)} for {X.shape[0]}")
    shared = {(h.epochs, h.learning_rate, h.l2) for h in hypers}
    if len(shared) != 1:
        raise ValueError("folds must share epochs, learning_rate and l2; only seeds may differ")
    ((epochs, rate, l2),) = shared

    target = np.arange(classes) == y[..., None]
    nets = [init_network(X.shape[2], seed=h.seed, hidden=hidden, classes=classes) for h in hypers]
    params = {name: np.stack([getattr(net, name) for net in nets]) for name in _PARAM_NAMES}
    for epoch in range(epochs):
        loss, grads = _stack_loss_and_grads(params, X, target, l2)
        finite = np.isfinite(loss)
        if not finite.all():
            fold = int(np.argmin(finite))
            raise ArithmeticError(
                f"non-finite loss {loss[fold]} at epoch {epoch} in the fold with "
                f"seed {hypers[fold].seed}; lr={rate}, l2={l2}"
            )
        for name in _PARAM_NAMES:
            params[name] -= rate * grads[name]
    for f, net in enumerate(nets):
        for name in _PARAM_NAMES:
            setattr(net, name, params[name][f].copy())
    return nets


def train(
    X: np.ndarray,
    y: np.ndarray,
    hyper: Hyperparams = Hyperparams(),
    hidden: int = HIDDEN_SIZE,
    classes: int = NUM_CLASSES,
) -> Network:
    """Full-batch gradient descent; deterministic for a fixed seed.

    The one-network case of :func:`train_stack`.
    """
    (net,) = train_stack(np.asarray(X)[None], np.asarray(y)[None], [hyper], hidden, classes)
    return net


def _training_set(records: Sequence) -> tuple[np.ndarray, np.ndarray, VoterProfile]:
    """Features, rank targets and profile of one voter's training records."""
    profile = build_profile(records[0].voter_id, records)
    X = np.stack([extract_features(rec, profile) for rec in records])
    y = np.array([action_rank(rec) for rec in records], dtype=int)
    return X, y, profile


def fit_network(
    records: Sequence, hyper: Hyperparams = Hyperparams()
) -> tuple[Network, VoterProfile]:
    """Train on one voter's records; the profile comes from the same records."""
    if not records:
        raise ValueError("cannot fit a network on zero records")
    X, y, profile = _training_set(records)
    return train(X, y, hyper), profile


def fit_folds(
    folds: Sequence[Sequence], hypers: Sequence[Hyperparams]
) -> list[tuple[Network, VoterProfile]]:
    """:func:`fit_network` on each fold, with few :func:`train_stack` calls.

    Fold f trains with ``hypers[f]``, and its profile comes from its own
    records.  Folds may differ in size: those of one size, in input order,
    train as one stack, split into stacks of at most ``MAX_STACK_ROWS``
    training rows (at least one fold each), whose features are built only
    when that stack trains.  Stacking leaves every network's weights
    unchanged, bit for bit.  Results are in input order.
    """
    if not folds or not all(folds):
        raise ValueError("cannot fit a network on zero records")
    if len(hypers) != len(folds):
        raise ValueError(f"need one Hyperparams per fold, got {len(hypers)} for {len(folds)}")
    by_size: dict[int, list[int]] = {}
    for f, fold in enumerate(folds):
        by_size.setdefault(len(fold), []).append(f)
    fitted: dict[int, tuple[Network, VoterProfile]] = {}
    for size, members in by_size.items():
        step = max(1, MAX_STACK_ROWS // size)
        for stack in (members[i : i + step] for i in range(0, len(members), step)):
            # Features are built one stack at a time, so the cap bounds them too.
            X, y, profiles = zip(*(_training_set(folds[f]) for f in stack))
            nets = train_stack(np.stack(X), np.stack(y), [hypers[f] for f in stack])
            fitted.update(zip(stack, zip(nets, profiles)))
    return [fitted[f] for f in range(len(folds))]


def predict_record(net: Network, profile: VoterProfile, record) -> int:
    """Predicted candidate (not rank) for a held-out record."""
    rank = predict(net, extract_features(record, profile))
    prefs = preference_order(record.utilities.values)
    return prefs[rank]
