"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` for one verdict line per
criterion; each test also prints an ``ACCEPTANCE n: PASS/FAIL`` line
(visible with ``-s`` and in failure output).
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from stratvote.cli import main as cli_main
from stratvote.core import Poll, UtilityFunction
from stratvote.data import (
    GeneratorConfig,
    ParamSampler,
    PopulationGroup,
    generate_synthetic,
    save_dataset,
)
from stratvote.evaluation import (
    ConfusionMatrix,
    ParameterGrid,
    loo_evaluate,
    metrics_from_confusion,
)
from stratvote.models import (
    DecisionContext,
    Family,
    ModelDescriptor,
    au_score,
    decide,
)
from stratvote.nn import FEATURE_DIM, init_network, loss_and_grads
from stratvote.pivot import decide_cv, pivot_table_exact, pivot_table_mc
from stratvote.seeding import derive_seed

U1 = UtilityFunction((40.0, 30.0, 20.0, 10.0, 0.0))
S1 = Poll.from_scores((25, 70, 20, 100, 80))

RECOVERY_FAMILIES = (Family.PRAG, Family.LD, Family.LDLB, Family.TMG, Family.AU, Family.CV)
RECOVERY_SAMPLERS = {
    Family.PRAG: {"k": ParamSampler.choices((1, 2, 3))},
    Family.LD: {"r": ParamSampler.choices((0.02, 0.08, 0.30))},
    Family.LDLB: {"r": ParamSampler.choices((0.02, 0.08, 0.30))},
    Family.TMG: {"voter_type": ParamSampler.choices(("TRT", "CMP", "LB"))},
    Family.AU: {
        "alpha": ParamSampler.choices((0.2, 1.0, 1.8)),
        "beta": ParamSampler.choices((3, 12, 40)),
    },
    Family.CV: {"eta": ParamSampler.choices((2, 8, 32))},
}
RECOVERY_CV_ETAS = (1, 2, 4, 8, 16, 32, 64, "n")


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def recovery_config(family: Family, noise: float) -> GeneratorConfig:
    """Fifty voters, twelve distinct contexts shown twice each."""
    return GeneratorConfig(
        num_voters=50,
        rounds_per_voter=24,
        groups=(
            PopulationGroup(family=family, weight=1.0, params=RECOVERY_SAMPLERS[family]),
        ),
        poll_sizes=((8, 0.5), (100, 0.5)),
        poll_size_mode="per_round",
        scenario_mode="cycle",
        noise=noise,
        master_seed=101,
        poll_concentrations=(1.0, 12.0),
        repeats=2,
    )


def recovery_grid(family: Family) -> ParameterGrid:
    if family is Family.CV:
        return ParameterGrid.default(family, cv_etas=RECOVERY_CV_ETAS)
    return ParameterGrid.default(family)


def canonical_polls(max_n: int = 6) -> list[tuple[int, int, int]]:
    """Score multisets (descending) covering every m=3 poll up to relabeling."""
    out = []
    for n in range(1, max_n + 1):
        for a in range(n, -1, -1):
            for b in range(min(a, n - a), -1, -1):
                c = n - a - b
                if c <= b:
                    out.append((a, b, c))
    return out


def all_compositions(max_n: int = 6) -> list[tuple[int, int, int]]:
    out = []
    for n in range(1, max_n + 1):
        for a in range(n + 1):
            for b in range(n - a + 1):
                out.append((a, b, n - a - b))
    return out


def pivot_fraction_table(scores: tuple[int, ...], eta: int) -> list[list[Fraction]]:
    """Every P(x, y) by direct multinomial enumeration in exact rationals."""
    m = len(scores)
    total = sum(scores)
    p = [Fraction(c, total) for c in scores]

    def winners(vec):
        top = max(vec)
        return frozenset(i for i, v in enumerate(vec) if v == top)

    table = [[Fraction(0)] * m for _ in range(m)]
    for comp in itertools.product(range(eta + 1), repeat=m - 1):
        rest = eta - sum(comp)
        if rest < 0:
            continue
        comp = (*comp, rest)
        prob = Fraction(math.factorial(eta))
        for k, pc in zip(comp, p):
            if k and pc == 0:
                prob = Fraction(0)
                break
            prob *= pc**k / math.factorial(k)
        if prob == 0:
            continue
        base = winners(comp)
        for y in range(m):
            plus = list(comp)
            plus[y] += 1
            after = winners(plus)
            for x in range(m):
                if x == y:
                    continue
                if (base == {x} and after == {x, y}) or (base == {x, y} and after == {y}):
                    table[x][y] += prob
    return table


def test_criterion_1_decision_table_rows():
    rows = [
        (ModelDescriptor(Family.PRAG, k=2), 3),
        (ModelDescriptor(Family.PRAG, k=4), 0),
        (ModelDescriptor(Family.CV, eta=8), 1),
        (ModelDescriptor(Family.CV, eta=10000), 3),
        (ModelDescriptor(Family.LD, r=0.01), 0),
        (ModelDescriptor(Family.LD, r=0.08), 1),
        (ModelDescriptor(Family.LDLB, r=0.01), 3),
        (ModelDescriptor(Family.LDLB, r=0.08), 1),
    ]
    start = time.monotonic()
    ctx = DecisionContext(master_seed=0, voter_id="example", round=0, pivot_cache={})
    got = [(desc, decide(desc, U1, S1, ctx)) for desc, _ in rows]
    elapsed = time.monotonic() - start
    mismatches = [
        f"{desc.label()}: got q{g + 1}, want q{want + 1}"
        for (desc, g), (_, want) in zip(got, rows)
        if g != want
    ]
    ok = not mismatches and elapsed < 10.0
    verdict(1, ok, f"8/8 rows exact in {elapsed:.2f}s" if ok else f"{mismatches} ({elapsed:.2f}s)")


def test_criterion_2_weighted_heuristic_table():
    # Printed per-candidate scores; None marks entries that are unreadable
    # at table precision (u=0 column, and values printed as ~0).
    table = {
        (1.8, 30.0): ((382.9, 433.3, 100.1, 64.0, None), 1),
        (1.8, 10.0): ((578.7, 413.2, 162.6, 61.4, None), 0),
        (0.2, 30.0): ((None, 1.18, None, 1.54, None), 3),
        (0.2, 10.0): ((0.16, 0.77, 0.11, 1.06, None), 3),
    }
    problems = []
    checked = 0
    for (alpha, beta), (printed, want) in table.items():
        got = decide(ModelDescriptor(Family.AU, alpha=alpha, beta=beta), U1, S1)
        if got != want:
            problems.append(f"decision ({alpha},{beta}): got q{got + 1}, want q{want + 1}")
        for c, value in enumerate(printed):
            if value is None:
                continue
            h = au_score(U1, S1, c, alpha, beta)
            checked += 1
            if abs(h - value) / value > 0.02:
                problems.append(f"H(q{c + 1};{alpha},{beta})={h:.4g} vs printed {value}")
    ok = not problems and checked == 14
    verdict(2, ok, f"4/4 decisions exact, {checked}/14 score entries within 2%" if ok else "; ".join(problems))


def test_criterion_3_worked_metrics():
    counts = ConfusionMatrix(np.array([[5409, 441, 132], [32, 2538, 90], [117, 188, 373]]))
    got = metrics_from_confusion(counts)
    problems = []
    if abs(got.precision[1] - 0.801) > 1e-3:
        problems.append(f"prec(Q')={got.precision[1]:.6f}")
    if abs(got.recall[1] - 0.954) > 1e-3:
        problems.append(f"recall(Q')={got.recall[1]:.6f}")
    # 0.87 is printed at two decimals; the exact value is 0.87112.
    if round(got.f[1], 2) != 0.87:
        problems.append(f"F(Q')={got.f[1]:.6f}")
    if abs(got.f[0] - 0.937) > 1e-3:
        problems.append(f"F(Q)={got.f[0]:.6f}")
    if abs(got.f[2] - 0.586) > 1e-3:
        problems.append(f"F(Q'')={got.f[2]:.6f}")
    if abs(got.weighted_f - 0.892) > 1e-3:
        problems.append(f"F_A={got.weighted_f:.6f}")
    verdict(3, not problems, "six worked metrics reproduced" if not problems else "; ".join(problems))


def test_criterion_4_pivot_oracle_equivalence():
    samples = 10**6
    exceed = 0
    checked = 0
    # Monte-Carlo vs exact on every score distribution up to relabeling.
    for scores in canonical_polls():
        poll = Poll.from_scores(scores)
        for eta in range(1, 13):
            exact = pivot_table_exact(poll, eta).entries
            seed = derive_seed(2, "mc-sweep", eta, *scores)
            mc = pivot_table_mc(poll, eta, samples, seed).entries
            for x in range(3):
                for y in range(3):
                    if x == y:
                        continue
                    checked += 1
                    tol = 3 * math.sqrt(exact[x, y] * (1 - exact[x, y]) / samples) + 1e-9
                    if abs(mc[x, y] - exact[x, y]) > tol:
                        exceed += 1

    # Every non-canonical poll is a relabeling; the exact path must commute
    # with relabeling, which extends the sweep to all polls.
    perm_bad = 0
    for scores in all_compositions():
        poll = Poll.from_scores(scores)
        order = tuple(sorted(range(3), key=lambda c: -scores[c]))
        canonical = Poll.from_scores(tuple(scores[c] for c in order))
        for eta in range(1, 13):
            full = pivot_table_exact(poll, eta).entries
            base = pivot_table_exact(canonical, eta).entries
            for xr, x in enumerate(order):
                for yr, y in enumerate(order):
                    if x != y and abs(full[x, y] - base[xr, yr]) > 1e-12:
                        perm_bad += 1

    # decide_cv with a believed electorate of the poll size against a
    # from-scratch rational enumerator of the expected two-way gains.
    cv_bad = 0
    cv_checked = 0
    for scores in all_compositions():
        poll = Poll.from_scores(scores)
        table = pivot_fraction_table(scores, poll.n)
        for uvals in itertools.permutations((10, 5, 0)):
            cv_checked += 1
            gains = [
                sum(table[x][c] * (uvals[c] - uvals[x]) for x in range(3) if x != c)
                for c in range(3)
            ]
            order = sorted(range(3), key=lambda c: (-scores[c], -uvals[c], c))
            want = order[0]
            for c in order[1:]:
                if gains[c] > gains[want]:
                    want = c
            u = UtilityFunction(tuple(float(v) for v in uvals))
            if decide_cv(u, poll, poll.n) != want:
                cv_bad += 1

    ok = exceed == 0 and perm_bad == 0 and cv_bad == 0 and cv_checked == 498
    verdict(
        4,
        ok,
        f"MC within 3 sigma on {checked}/{checked} entries; exact relabeling clean; "
        f"decide_cv matches the rational oracle on {cv_checked}/498 instances"
        if ok
        else f"{exceed} MC exceedances, {perm_bad} relabeling gaps, {cv_bad} CV mismatches",
    )


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        net = init_network(FEATURE_DIM, seed=int(rng.integers(2**31)))
        batch = int(rng.integers(1, 9))
        X = rng.uniform(-1, 1, size=(batch, FEATURE_DIM))
        y = rng.integers(0, 3, size=batch)
        l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
        _, grads = loss_and_grads(net, X, y, l2)
        eps = 1e-6
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(net, name)
            flat = arr.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi, _ = loss_and_grads(net, X, y, l2)
                flat[idx] = orig - eps
                lo, _ = loss_and_grads(net, X, y, l2)
                flat[idx] = orig
                numeric = (hi - lo) / (2 * eps)
                analytic = grads[name].reshape(-1)[idx]
                rel = abs(analytic - numeric) / max(1.0, abs(analytic))
                worst = max(worst, rel)
    ok = worst < 1e-5
    verdict(5, ok, f"100 instances, max relative error {worst:.2e}")


def test_criterion_6_model_recovery():
    start = time.monotonic()
    problems = []
    clean_scores = {}
    for family in RECOVERY_FAMILIES:
        ds = generate_synthetic(recovery_config(family, noise=0.0))
        rep = loo_evaluate(family, recovery_grid(family), ds, jobs=4)
        clean_scores[family.value] = rep.metrics.weighted_f
        if rep.metrics.weighted_f < 0.99:
            problems.append(f"noise-free {family.value}: F_A={rep.metrics.weighted_f:.4f}")

    for family in RECOVERY_FAMILIES:
        ds = generate_synthetic(recovery_config(family, noise=0.1))
        scores = {}
        for fit in RECOVERY_FAMILIES:
            rep = loo_evaluate(fit, recovery_grid(fit), ds, jobs=4)
            scores[fit.value] = rep.metrics.weighted_f
        top = scores[family.value]
        for other, value in scores.items():
            if other != family.value and value >= top:
                problems.append(
                    f"noisy {family.value}: {other} fits as well ({value:.4f} >= {top:.4f})"
                )
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s")
    ok = not problems
    lows = ", ".join(f"{k}={v:.4f}" for k, v in clean_scores.items())
    verdict(6, ok, f"noise-free {lows}; all 30 noisy cross-family gaps strict; {elapsed:.0f}s"
            if ok else "; ".join(problems))


def test_criterion_7_worker_determinism(tmp_path):
    ds = generate_synthetic(recovery_config(Family.AU, noise=0.1))
    data_dir = tmp_path / "data"
    save_dataset(ds, data_dir)
    base = [
        "evaluate",
        "--data", str(data_dir / "dataset.csv"),
        "--families", "AU,LD,LDLB,PRAG,TMG,CV",
        "--cv-etas", "1,2,4,8",
        "--mode", "loo",
    ]
    out1, out8 = tmp_path / "jobs1", tmp_path / "jobs8"
    assert cli_main(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert cli_main(base + ["--jobs", "8", "--out", str(out8)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names8 = sorted(p.name for p in out8.iterdir())
    same_names = names1 == names8
    diffs = [
        name
        for name in names1
        if (out1 / name).read_bytes() != (out8 / name).read_bytes()
    ] if same_names else ["file sets differ"]
    ok = same_names and not diffs
    verdict(7, ok, f"{len(names1)} report files byte-identical across --jobs 1/8"
            if ok else f"differing files: {diffs}")


def test_criterion_8_scenario_table_shape(tmp_path):
    # The human-subject data is not bundled; this exercises the exact table
    # layout those numbers would flow into, on a synthetic stand-in.
    config = GeneratorConfig(
        num_voters=4,
        rounds_per_voter=6,
        groups=(PopulationGroup(family=Family.TRUTH, weight=1.0),),
        poll_sizes=((100, 1.0),),
        scenario_mode="cycle",
        master_seed=7,
    )
    data_dir = tmp_path / "data"
    save_dataset(generate_synthetic(config), data_dir)
    out = tmp_path / "rep"
    families = "AU,LD,LDLB,CV,PRAG,TMG,NN"
    code = cli_main(
        [
            "evaluate",
            "--data", str(data_dir / "dataset.csv"),
            "--families", families,
            "--cv-etas", "1,4,n",
            "--mode", "loo",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "loo_scenario_f.csv").read_text(encoding="utf-8").splitlines()
    reader = [line.split(",") for line in lines]
    problems = []
    if reader[0] != ["scenario", "order", "frequency_pct"] + families.split(","):
        problems.append(f"header {reader[0]}")
    body = [row[0] for row in reader[1:]]
    if body != ["A", "B", "C", "D", "E", "F", "total"]:
        problems.append(f"rows {body}")
    orders = {row[0]: row[1] for row in reader[1:-1]}
    if orders.get("A") != "Q > Q' > Q''" or orders.get("F") != "Q'' > Q' > Q":
        problems.append(f"order column {orders}")
    freq = [float(row[2]) for row in reader[1:-1]]
    if abs(sum(freq) - 100.0) > 0.5:
        problems.append(f"frequencies sum to {sum(freq)}")
    widths = {len(row) for row in reader}
    if widths != {3 + 7}:
        problems.append(f"ragged rows {widths}")
    ok = not problems
    verdict(8, ok, "scenario/order/frequency + one column per family, rows A-F and total"
            if ok else "; ".join(problems))
