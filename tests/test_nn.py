import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feature_oracle import action_rank, action_ratios, features_from_parts, voter_type
from record_oracle import Record, by_voter, preference_order, table_of
from stratvote import nn
from stratvote.behavior import (
    VOTER_TYPES, build_profile, ratio_counts, ratio_stats, scenario_ids,
)
from stratvote.core import Poll, UtilityFunction
from stratvote.data import Dataset
from stratvote.evaluation import ParameterGrid, evaluate_families
from stratvote.models import Family
from stratvote.seeding import derive_seed
from stratvote.nn import (
    FEATURE_DIM,
    Hyperparams,
    Network,
    fit_folds,
    fit_network,
    init_network,
    loss_and_grads,
    predict,
    predict_proba,
    predict_record,
    train,
    train_stack,
)

U = UtilityFunction((10.0, 5.0, 0.0))


def rec(scores, action, round=0, u=U, voter="v1"):
    return Record(voter, round, Poll.from_scores(tuple(scores)), u, action)


def truthful_rows():
    return [rec((80, 50, 30), 0, round=i) for i in range(5)]


def columns(records, m=3):
    """The program's record features, action ranks and scenario ids of records.

    Built from arrays, not a table, so a poll size may be 0; the records'
    utilities must not tie, as a table's do not.
    """
    U_ = np.array([r.utilities.values for r in records], dtype=float).reshape(-1, m)
    S = np.array([r.poll.scores for r in records], dtype=np.int64).reshape(-1, m)
    n = np.array([r.poll.n for r in records], dtype=np.int64)
    action = np.array([r.action for r in records], dtype=np.int64)
    order, scenario = np.argsort(-U_, axis=1, kind="stable"), scenario_ids(U_, S)
    ranks = np.argsort(order, axis=1)[np.arange(len(action)), action]
    return nn.record_features(S, n, order, scenario), ranks, scenario


def profile_counts(records):
    """The summed ratio counts of records: the profile evaluate gives their fold."""
    _, ranks, scenario = columns(records)
    available, selected = ratio_counts(scenario, ranks)
    return available.sum(axis=0), selected.sum(axis=0)


def features(u, s, profile_records):
    """The program's feature row of one record under the profile of ``profile_records``."""
    base, _, _ = columns([Record("v1", 0, s, u, 0)], m=u.m)
    return nn.features(base, *profile_counts(profile_records))[0]


def training_set(records, profile_records):
    """The program's features and rank targets of records under one profile."""
    base, ranks, _ = columns(records)
    return nn.features(base, *profile_counts(profile_records)), ranks


def toy_problem(seed=12):
    rng = np.random.default_rng(seed)
    X = np.hstack(
        [
            np.where(np.arange(100)[:, None] < 50, 1.0, -1.0),
            rng.uniform(-0.2, 0.2, size=(100, 3)),
        ]
    )
    y = (np.arange(100) >= 50).astype(int)
    return X, y


# --- oracle: one network trained on its own, as before folds were stacked ---


def _oracle_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _oracle_forward(net, X):
    hidden = _oracle_sigmoid(X @ net.w1.T + net.b1)
    logits = hidden @ net.w2.T + net.b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return hidden, log_probs


def oracle_loss_and_grads(net, X, y, l2=1e-4):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n = X.shape[0]
    hidden, log_probs = _oracle_forward(net, X)
    ce = -log_probs[np.arange(n), y].mean()
    loss = ce + 0.5 * l2 * (float((net.w1 ** 2).sum()) + float((net.w2 ** 2).sum()))

    probs = np.exp(log_probs)
    probs[np.arange(n), y] -= 1.0
    d_logits = probs / n
    dw2 = d_logits.T @ hidden + l2 * net.w2
    db2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ net.w2
    d_pre = d_hidden * hidden * (1.0 - hidden)
    dw1 = d_pre.T @ X + l2 * net.w1
    db1 = d_pre.sum(axis=0)
    return float(loss), {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def oracle_train(X, y, hyper):
    net = init_network(X.shape[1], seed=hyper.seed)
    for epoch in range(hyper.epochs):
        loss, grads = oracle_loss_and_grads(net, X, y, hyper.l2)
        if not np.isfinite(loss):
            raise ArithmeticError(f"non-finite loss {loss} at epoch {epoch}")
        net.w1 -= hyper.learning_rate * grads["w1"]
        net.b1 -= hyper.learning_rate * grads["b1"]
        net.w2 -= hyper.learning_rate * grads["w2"]
        net.b2 -= hyper.learning_rate * grads["b2"]
    return net


def assert_same_weights(a, b):
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def numeric_grads(net, X, y, l2, eps=1e-6):
    grads = {}
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(net, name)
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            hi, _ = loss_and_grads(net, X, y, l2)
            arr[idx] = orig - eps
            lo, _ = loss_and_grads(net, X, y, l2)
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        grads[name] = g
    return grads


class TestFeatures:
    def test_dimension(self):
        vec = features(U, Poll.from_scores((80, 50, 30)), truthful_rows())
        assert vec.shape == (FEATURE_DIM,)

    def test_leader_gap(self):
        vec = features(U, Poll.from_scores((50, 80, 30)), truthful_rows())
        assert vec[9] == pytest.approx((80 - 50) / 160)

    def test_scenario_one_hot(self):
        vec = features(U, Poll.from_scores((50, 80, 30)), truthful_rows())
        assert list(vec[10:16]) == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_tied_poll_has_no_scenario(self):
        vec = features(U, Poll.from_scores((50, 50, 30)), truthful_rows())
        assert list(vec[10:16]) == [0.0] * 6

    def test_truthful_voter_type_one_hot(self):
        vec = features(U, Poll.from_scores((80, 50, 30)), truthful_rows())
        assert list(vec[22:25]) == [1.0, 0.0, 0.0]

    def test_absent_ratios_get_presence_flags(self):
        vec = features(U, Poll.from_scores((80, 50, 30)), [])
        assert list(vec[16:19]) == [0.0, 0.0, 0.0]
        assert list(vec[19:22]) == [0.0, 0.0, 0.0]
        assert list(vec[22:25]) == [0.0, 0.0, 1.0]

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="exactly three candidates"):
            features(
                UtilityFunction((4.0, 3.0, 2.0, 1.0)),
                Poll.from_scores((1, 2, 3, 4)),
                truthful_rows(),
            )

    def test_rejects_tied_utilities(self):
        # Features rank candidates by a strict preference order: no record
        # table holds a tied row, so predict_record never features one.
        r = rec((80, 50, 30), 0, u=UtilityFunction((5.0, 5.0, 0.0)))
        with pytest.raises(ValueError, match="preferences must be strict"):
            table_of([r])

    @given(
        st.permutations([10.0, 5.0, 0.0]),
        st.permutations([30, 50, 80]),
    )
    def test_features_stay_bounded(self, uvals, svals):
        vec = features(
            UtilityFunction(tuple(uvals)),
            Poll.from_scores(tuple(svals)),
            truthful_rows(),
        )
        assert np.all(vec >= -1.0) and np.all(vec <= 1.0)

    def test_extract_uses_record_fields(self):
        # predict_record features a record from its utilities and poll.
        r = rec((50, 80, 30), 1, u=UtilityFunction((0.0, 10.0, 5.0)))
        net = init_network(FEATURE_DIM, seed=5)
        rank = predict(net, features(r.utilities, r.poll, truthful_rows()))
        profile = build_profile(table_of(truthful_rows()))
        assert predict_record(net, profile, table_of([r])) == (1, 2, 0)[rank]

    def test_action_rank(self):
        u = UtilityFunction((0.0, 10.0, 5.0))
        table = table_of([rec((50, 80, 30), 1, u=u), rec((50, 80, 30), 0, round=1, u=u)])
        assert table.rank_of(table.action).tolist() == [0, 2]


# --- the columnar features against the scalar oracle -------------------------

# Scores with ties (no scenario) and every strict order (every scenario).
POLL_SCORES = st.tuples(*[st.sampled_from([0, 20, 50, 80])] * 3)


@st.composite
def oracle_records(draw, min_size=1, max_size=8, n_min=0, voter="v1"):
    """Records of one voter whose poll size need not equal the score total."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    rows = []
    for i in range(size):
        u = UtilityFunction(tuple(draw(st.permutations([10.0, 5.0, 0.0]))))
        scores = draw(POLL_SCORES)
        n = draw(st.integers(min_value=n_min, max_value=400))
        rows.append(Record(voter, i, Poll(scores, n), u, draw(st.integers(0, 2))))
    return rows


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestColumnarFeaturesEqualTheOracle:
    @given(oracle_records(), oracle_records(min_size=0))
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_scalar_features_bit_for_bit(self, records, profile_records):
        X, ranks = training_set(records, profile_records)
        assert_same_bits(X, oracle_rows(records, profile_records))
        assert ranks.tolist() == [action_rank(r) for r in records]

    def test_every_scenario_tie_and_poll_size(self):
        u = UtilityFunction((5.0, 10.0, 0.0))
        polls = [Poll(scores, n) for scores in (
            (80, 50, 30), (80, 30, 50), (50, 80, 30), (50, 30, 80), (30, 80, 50), (30, 50, 80),
            (50, 50, 30), (0, 0, 0),
        ) for n in (0, 7, sum(scores))]
        rows = [Record("v1", i, p, u, i % 3) for i, p in enumerate(polls)]
        X, _ = training_set(rows, rows)
        assert_same_bits(X, np.stack([features_from_parts(u, p, rows) for p in polls]))
        scenario_onehot = X[:, 10:16]
        assert (scenario_onehot.sum(axis=0) > 0).all()
        assert (scenario_onehot[[18, 19, 20, 21, 22, 23]] == 0).all()


@st.composite
def oracle_datasets(draw):
    """1-4 voters of 1-5 records each, poll sizes of at least 1."""
    voters = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for v in range(voters):
        rows += draw(oracle_records(max_size=5, n_min=1, voter=f"v{v}"))
    return Dataset(table_of(rows))


def capture_nn(monkeypatch):
    """Record every fold evaluate trains and every row it predicts, training nothing.

    Each network stays at its seed's initial weights, so its ``w1`` names it.
    """
    seen = {"folds": [], "queries": {}}

    def fit_folds(X, y, hypers):
        seen["folds"] += zip(X, y, hypers)
        return [init_network(FEATURE_DIM, seed=h.seed) for h in hypers]

    def predict_row(net, row):
        seen["queries"].setdefault(net.w1.tobytes(), []).append(np.array(row))
        return predict(net, row)

    monkeypatch.setattr(nn, "fit_folds", fit_folds)
    monkeypatch.setattr(nn, "predict", predict_row)
    return seen


@given(oracle_datasets())
@settings(max_examples=40, deadline=None)
def test_each_fold_and_query_equals_the_oracle_on_its_profile(dataset):
    # A LOO fold trains on the voter's other records under their profile
    # (the voter's sums minus the held-out row), and the held-out row is
    # queried under that same profile.  A single-record voter's fold is
    # empty: no training, the empty profile, its seeded initial network.
    for mode in ("loo", "upper"):
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = capture_nn(monkeypatch)
            list(evaluate_families([ParameterGrid.default(Family.NN)], dataset, mode, seed=3))
        folds = iter(seen["folds"])
        for vid, recs in by_voter(dataset.records).items():
            if mode == "upper":
                cases = [("all", recs, recs)]
            else:
                cases = [(r.round, recs[:i] + recs[i + 1 :], [r]) for i, r in enumerate(recs)]
            for key, fold, predicted in cases:
                seed = derive_seed(3, "nn", vid, key)
                if fold:
                    X, y, hyper = next(folds)
                    assert hyper.seed == seed
                    assert_same_bits(X, oracle_rows(fold, fold))
                    assert y.tolist() == [action_rank(r) for r in fold]
                queries = seen["queries"][init_network(FEATURE_DIM, seed=seed).w1.tobytes()]
                assert_same_bits(np.stack(queries), oracle_rows(predicted, fold))
        assert next(folds, None) is None


def oracle_rows(records, profile_records):
    return np.stack([features_from_parts(r.utilities, r.poll, profile_records) for r in records])


class TestNetwork:
    def test_rejects_non_finite(self):
        net = init_network(4, seed=0)
        w1 = net.w1.copy()
        w1[0, 0] = float("nan")
        with pytest.raises(ValueError, match="non-finite values in w1"):
            Network(w1=w1, b1=net.b1, w2=net.w2, b2=net.b2)

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ValueError):
            Network(
                w1=np.zeros((3, 4)),
                b1=np.zeros(3),
                w2=np.zeros((3, 2)),
                b2=np.zeros(3),
            )

    def test_init_is_seeded_uniform(self):
        net = init_network(FEATURE_DIM, seed=1)
        again = init_network(FEATURE_DIM, seed=1)
        assert np.array_equal(net.w1, again.w1)
        assert np.all(np.abs(net.w1) <= 0.5)
        other = init_network(FEATURE_DIM, seed=2)
        assert not np.array_equal(net.w1, other.w1)


class TestPredict:
    def test_argmax_of_softmax(self):
        net = Network(
            w1=np.zeros((3, 4)),
            b1=np.zeros(3),
            w2=np.zeros((3, 3)),
            b2=np.log(np.array([0.1, 0.7, 0.2])),
        )
        probs = predict_proba(net, np.zeros(4))
        assert probs[0] == pytest.approx([0.1, 0.7, 0.2])
        assert predict(net, np.zeros(4)) == 1

    def test_symmetric_tie_goes_to_lowest_index(self):
        net = Network(
            w1=np.full((3, 4), 0.3),
            b1=np.zeros(3),
            w2=np.full((3, 3), 0.3),
            b2=np.zeros(3),
        )
        assert predict(net, np.ones(4)) == 0

    def test_feature_length_mismatch(self):
        net = init_network(5, seed=0)
        with pytest.raises(ValueError):
            predict(net, np.zeros(7))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_softmax_is_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        net = init_network(6, seed=seed)
        probs = predict_proba(net, rng.uniform(-1, 1, size=(4, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0) and np.all(probs < 1)


class TestTrain:
    def test_separable_toy_set(self):
        X, y = toy_problem()
        net = train(X, y, Hyperparams())
        acc = (predict_proba(net, X).argmax(axis=1) == y).mean()
        assert acc >= 0.99

    def test_zero_epochs_returns_the_initialization(self):
        X, y = toy_problem()
        net = train(X, y, Hyperparams(epochs=0, seed=4))
        init = init_network(X.shape[1], seed=4)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(net, name), getattr(init, name))

    def test_same_seed_same_weights(self):
        X, y = toy_problem()
        a = train(X, y, Hyperparams(epochs=50))
        b = train(X, y, Hyperparams(epochs=50))
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_loss_non_increasing_at_default_rate(self):
        X, y = toy_problem()
        hyper = Hyperparams()
        net = init_network(X.shape[1], seed=hyper.seed)
        losses = []
        for _ in range(150):
            loss, grads = loss_and_grads(net, X, y, hyper.l2)
            losses.append(loss)
            for name in ("w1", "b1", "w2", "b2"):
                setattr(net, name, getattr(net, name) - hyper.learning_rate * grads[name])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_rate_aborts(self):
        X, y = toy_problem()
        with pytest.raises(ArithmeticError, match="non-finite loss"):
            train(X, y, Hyperparams(epochs=200, learning_rate=1e12))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_weights_after_the_last_update_abort(self):
        # The loss is checked before each update; a last update that
        # overflows is caught by the check on the final weights.
        X, y = toy_problem()
        hyper = Hyperparams(epochs=1, learning_rate=1000.0, l2=1e306, seed=7)
        with pytest.raises(ArithmeticError, match="non-finite weights after epoch 0 ") as err:
            train(X, y, hyper)
        assert "in the fold with seed 7;" in str(err.value)

    def test_rejects_misaligned_targets(self):
        X, _ = toy_problem()
        with pytest.raises(ValueError):
            train(X, np.zeros(7, dtype=int))


class TestHyperparams:
    @pytest.mark.parametrize("field", ["learning_rate", "l2"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_a_non_finite_rate_or_decay(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Hyperparams(**{field: value})

    @pytest.mark.parametrize("epochs", [2.5, 3.0, True, "3", -1])
    def test_rejects_epochs_that_are_not_non_negative_integers(self, epochs):
        with pytest.raises(ValueError, match="^epochs must be a non-negative integer"):
            Hyperparams(epochs=epochs)

    def test_accepts_numpy_integer_epochs(self):
        assert Hyperparams(epochs=np.int64(3)).epochs == 3


class TestGradients:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_backprop_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = init_network(6, seed=seed)
        X = rng.uniform(-1, 1, size=(5, 6))
        y = rng.integers(0, 3, size=5)
        _, grads = loss_and_grads(net, X, y, l2=1e-4)
        numeric = numeric_grads(net, X, y, l2=1e-4)
        for name in ("w1", "b1", "w2", "b2"):
            err = np.abs(grads[name] - numeric[name])
            scale = np.maximum(1.0, np.abs(grads[name]))
            assert np.all(err / scale < 1e-5)


SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def fold_stacks(draw):
    """(X, y, hypers) for 1-24 folds of 1-40 records each.

    Past 8 rows the cross-entropy mean sums pairwise, and past 8 folds every
    stacked reduction runs over more folds than a stack of one.
    """
    F = draw(st.integers(min_value=1, max_value=24))
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.sampled_from([1, 4, FEATURE_DIM]))
    epochs = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(SEEDS))
    X = rng.uniform(-1, 1, size=(F, n, d))
    y = rng.integers(0, 3, size=(F, n))
    seeds = draw(st.lists(SEEDS, min_size=F, max_size=F))
    return X, y, [Hyperparams(epochs=epochs, seed=seed) for seed in seeds]


class TestStackedTraining:
    @given(fold_stacks())
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_separate_training_bit_for_bit(self, stack):
        X, y, hypers = stack
        nets = train_stack(X, y, hypers)
        assert len(nets) == len(hypers)
        for f, net in enumerate(nets):
            assert_same_weights(net, oracle_train(X[f], y[f], hypers[f]))

    @given(fold_stacks())
    @settings(max_examples=30, deadline=None)
    def test_one_network_case_equals_oracle(self, stack):
        X, y, hypers = stack
        assert_same_weights(train(X[0], y[0], hypers[0]), oracle_train(X[0], y[0], hypers[0]))
        net = init_network(X.shape[2], seed=hypers[0].seed)
        loss, grads = loss_and_grads(net, X[0], y[0], 1e-4)
        want_loss, want = oracle_loss_and_grads(net, X[0], y[0], 1e-4)
        assert loss == want_loss
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(grads[name], want[name]), name
        assert np.array_equal(predict_proba(net, X[0]), np.exp(_oracle_forward(net, X[0])[1]))

    def test_production_shape_equals_oracle(self):
        # The nn_folds shape: 12 voters x 12 rounds, one 11-record LOO fold
        # per record.  Reduction order and BLAS kernels depend on shape and
        # strides, so this shape is pinned beside the small random stacks.
        rng = np.random.default_rng(17)
        voters = [generated_voter(rng, 12) for _ in range(12)]
        folds = [rows[:i] + rows[i + 1 :] for rows in voters for i in range(12)]
        X, y = (np.stack(a) for a in fold_arrays(folds))
        assert X.shape == (144, 11, FEATURE_DIM)
        hypers = [Hyperparams(epochs=20, seed=500 + f) for f in range(len(folds))]
        for f, net in enumerate(train_stack(X, y, hypers)):
            assert_same_weights(net, oracle_train(X[f], y[f], hypers[f]))
            loss, grads = loss_and_grads(net, X[f], y[f])
            want_loss, want = oracle_loss_and_grads(net, X[f], y[f])
            assert loss == want_loss
            for name in ("w1", "b1", "w2", "b2"):
                assert np.array_equal(grads[name], want[name]), name

    def test_each_fold_uses_its_own_seed(self):
        X, y = toy_problem()
        hypers = [Hyperparams(epochs=20, seed=s) for s in (3, 4)]
        a, b = train_stack(np.stack([X, X]), np.stack([y, y]), hypers)
        assert_same_weights(a, train(X, y, hypers[0]))
        assert_same_weights(b, train(X, y, hypers[1]))
        assert not np.array_equal(a.w1, b.w1)

    def test_folds_must_share_everything_but_the_seed(self):
        X, y = toy_problem()
        for other in (
            Hyperparams(epochs=3, seed=1),
            Hyperparams(learning_rate=0.2, seed=1),
            Hyperparams(l2=0.0, seed=1),
        ):
            with pytest.raises(ValueError, match="only seeds may differ"):
                train_stack(np.stack([X, X]), np.stack([y, y]), [Hyperparams(), other])

    def test_one_hyperparams_per_fold(self):
        X, y = toy_problem()
        with pytest.raises(ValueError, match="one Hyperparams per fold"):
            train_stack(np.stack([X, X]), np.stack([y, y]), [Hyperparams()])

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_one_diverging_fold_aborts_naming_its_epoch_and_seed(self):
        X, y = toy_problem()
        overflowed = X.copy()
        overflowed[7, 2] = np.float64(1e308) * 10
        hypers = [Hyperparams(epochs=50, seed=s) for s in (101, 202, 303)]
        for f in (0, 2):
            train(X, y, hypers[f])
        with pytest.raises(ArithmeticError, match="at epoch 1 ") as alone:
            train(overflowed, y, hypers[1])
        assert "seed 202" in str(alone.value)
        with pytest.raises(ArithmeticError) as stacked:
            train_stack(np.stack([X, overflowed, X]), np.stack([y, y, y]), hypers)
        assert str(stacked.value) == str(alone.value)
        assert str(stacked.value).startswith("non-finite loss nan at epoch 1 ")


class TestVoterPipeline:
    def test_truthful_voter_predicted_truthful(self):
        rows = []
        rng = np.random.default_rng(8)
        for i in range(8):
            perm = tuple(rng.permutation(3))
            u = UtilityFunction(tuple(float((10.0, 5.0, 0.0)[perm.index(c)]) for c in range(3)))
            scores = tuple(int(v) for v in rng.permutation([30, 50, 80]))
            q = preference_order(u.values)[0]
            rows.append(rec(scores, q, round=i, u=u))
        net, profile = fit_network(table_of(rows), Hyperparams(epochs=300))
        for r in rows:
            want = preference_order(r.utilities.values)[0]
            assert predict_record(net, profile, table_of([r])) == want

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_network(table_of([]))

    def test_fit_folds_equals_fit_network_per_fold(self):
        rows = [rec(s, a, round=i) for i, (s, a) in enumerate(
            [((80, 50, 30), 0), ((50, 80, 30), 1), ((30, 50, 80), 0), ((80, 30, 50), 2)]
        )]
        folds = [rows[:i] + rows[i + 1 :] for i in range(len(rows))]
        hypers = [Hyperparams(epochs=60, seed=10 + i) for i in range(len(rows))]
        for net, fold, hyper in zip(fit_folds(*fold_arrays(folds), hypers), folds, hypers):
            want_net, want_profile = fit_network(table_of(fold), hyper)
            assert_same_weights(net, want_net)
            assert want_profile == build_profile(table_of(fold))

    def test_fit_folds_rejects_an_empty_fold(self):
        X, y = fold_arrays([[rec((80, 50, 30), 0)]])
        with pytest.raises(ValueError, match="zero records"):
            fit_folds(X + [X[0][:0]], y + [y[0][:0]], [Hyperparams(), Hyperparams()])
        with pytest.raises(ValueError, match="zero records"):
            fit_folds([], [], [])


def fold_arrays(folds):
    """Each fold's features and targets, its profile from its own records."""
    X, y = zip(*(training_set(fold, fold) for fold in folds))
    return list(X), list(y)


def generated_voter(rng, rounds):
    rows = []
    for i in range(rounds):
        u = UtilityFunction(tuple(float(v) for v in rng.permutation([10.0, 5.0, 0.0])))
        # Scores from a small range, so some polls tie and have no scenario.
        scores = tuple(int(v) for v in rng.integers(0, 6, size=3) * 20 + 1)
        rows.append(rec(scores, int(rng.integers(3)), i, u))
    return rows


@st.composite
def mixed_folds(draw):
    """1-8 folds of 1-12 records, each a subset of one generated 12-round voter."""
    rng = np.random.default_rng(draw(SEEDS))
    rows = generated_voter(rng, 12)
    sizes = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8))
    folds = [[rows[j] for j in sorted(rng.choice(12, size=k, replace=False))] for k in sizes]
    epochs = draw(st.integers(min_value=0, max_value=30))
    return folds, [Hyperparams(epochs=epochs, seed=draw(SEEDS)) for _ in folds]


def count_stacks(monkeypatch):
    """Record the fold count of every train_stack call fit_folds makes."""
    calls = []

    def counted(X, y, hypers):
        calls.append(len(hypers))
        return train_stack(X, y, hypers)

    monkeypatch.setattr(nn, "train_stack", counted)
    return calls


class TestMixedSizeFolds:
    @given(mixed_folds())
    @settings(max_examples=40, deadline=None)
    def test_each_fold_equals_fit_network_in_input_order(self, case):
        folds, hypers = case
        fitted = fit_folds(*fold_arrays(folds), hypers)
        assert len(fitted) == len(folds)
        for net, fold, hyper in zip(fitted, folds, hypers):
            want_net, _ = fit_network(table_of(fold), hyper)
            assert_same_weights(net, want_net)

    def test_one_stack_per_fold_size(self, monkeypatch):
        rows = [rec((80, 50, 30), i % 3, round=i) for i in range(6)]
        calls = count_stacks(monkeypatch)
        folds = [rows[:3], rows[:5], rows[1:4], rows[2:], rows, rows[3:]]
        fit_folds(*fold_arrays(folds), [Hyperparams(epochs=5, seed=i) for i in range(len(folds))])
        assert calls == [3, 1, 1, 1]

    @pytest.mark.parametrize("cap, stacks", [(1, [1] * 7), (9, [3, 3, 1]), (20, [6, 1])])
    def test_row_cap_splits_a_size_group_without_changing_weights(self, monkeypatch, cap, stacks):
        rows = [rec(s, a, round=i) for i, (s, a) in enumerate(
            [((80, 50, 30), 0), ((50, 80, 30), 1), ((30, 50, 80), 0), ((80, 30, 50), 2)]
        )]
        three = [rows[:3], rows[1:], rows[:2] + rows[3:], rows[:1] + rows[2:], rows[:3], rows[1:]]
        folds = three + [rows]
        hypers = [Hyperparams(epochs=40, seed=100 + i) for i in range(len(folds))]
        whole = fit_folds(*fold_arrays(folds), hypers)
        monkeypatch.setattr(nn, "MAX_STACK_ROWS", cap)
        calls = count_stacks(monkeypatch)
        split = fit_folds(*fold_arrays(folds), hypers)
        assert calls == stacks
        for net, want_net in zip(split, whole):
            assert_same_weights(net, want_net)

    def test_one_hyperparams_per_fold(self):
        with pytest.raises(ValueError, match="one Hyperparams per fold"):
            fit_folds(*fold_arrays([[rec((80, 50, 30), 0)], [rec((80, 50, 30), 1)]]), [Hyperparams()])


@given(SEEDS, st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_profile_type_is_voter_type(seed, rounds):
    # The profile's counts give the oracle's ratios, absent where the action
    # was never available, and the type its thresholds define.
    rows = generated_voter(np.random.default_rng(seed), rounds)
    profile = build_profile(table_of(rows))
    ratios, kind = ratio_stats(profile.available, profile.selected)
    present = [k for k, a in zip(("TRT", "CMP", "LB"), profile.available) if a > 0]
    want = action_ratios(rows)
    assert dict(zip(present, ratios[np.array(profile.available) > 0].tolist())) == want
    assert VOTER_TYPES[kind] == voter_type(want)
