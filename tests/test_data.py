import csv
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stratvote import data
from stratvote.behavior import SCENARIOS, scenario_ids
from stratvote.data import (
    DataError,
    Dataset,
    GeneratorConfig,
    ParamSampler,
    PopulationGroup,
    RecordTable,
    format_action,
    generate_synthetic,
    load_dataset,
    parse_action,
    save_dataset,
)
from stratvote.models import Family, ModelDescriptor, decide
from feature_oracle import classify_scenario
from record_oracle import by_voter, file_problems, preference_order, records_of

HEADER = "voter_id,round,n,s_1,s_2,s_3,u_1,u_2,u_3,action\n"


def write(tmp_path, body, header=HEADER):
    path = tmp_path / "dataset.csv"
    path.write_text(header + body, encoding="utf-8")
    return path


def assert_same_table(a, b):
    assert a.voter_ids == b.voter_ids
    for name in RecordTable._row_fields():
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def write_rows(tmp_path, rows):
    """A CSV of ``rows`` (lists of fields) under the three-candidate header."""
    path = tmp_path / "dataset.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([HEADER.strip().split(","), *rows])
    return path


def named_problems(path) -> dict[int, str]:
    """The problem the loader names for each bad row of ``path``, by row number."""
    try:
        load_dataset(path)
    except DataError as err:
        body = str(err).removeprefix(f"{path}: ")
        return {int(k): v for k, v in re.findall(r"row (\d+): (.*?)(?=; row \d+: |$)", body)}
    return {}


def columns(keys, m=3):
    """Columns of valid rows with the given (voter id, round) keys; action j % m."""
    R = len(keys)
    S = [[10 * (c + 1) for c in range(m)]] * R
    U = [[float(m - c) for c in range(m)]] * R
    return [[v for v, _ in keys], [r for _, r in keys], [100] * R, S, U, [j % m for j in range(R)]]


def truth_config(**kwargs):
    defaults = dict(
        num_voters=4,
        rounds_per_voter=6,
        groups=(PopulationGroup(family=Family.TRUTH, weight=1.0),),
        poll_sizes=((100, 1.0),),
        master_seed=5,
    )
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


class TestActionCodec:
    def test_round_trip(self):
        for c in range(5):
            assert parse_action(format_action(c), 5) == c

    def test_one_based_labels(self):
        assert format_action(0) == "q1"
        assert parse_action("q2", 3) == 1
        assert parse_action("2", 3) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_action("q9", 3)
        with pytest.raises(ValueError):
            parse_action("q0", 3)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_action("qx", 3)


class TestLoad:
    def test_canonical_row(self, tmp_path):
        path = write(tmp_path, "v17,3,295,25,70,20,40,30,20,q2\n")
        table = load_dataset(path).records
        assert len(table) == 1
        assert table.voter_ids == ("v17",) and table.voter.tolist() == [0]
        assert table.round.tolist() == [3] and table.n.tolist() == [295]
        assert table.S.tolist() == [[25, 70, 20]] and table.U.tolist() == [[40.0, 30.0, 20.0]]
        assert table.action.tolist() == [1]
        for name in ("voter", "round", "n", "S", "action"):
            assert getattr(table, name).dtype == np.int64, name
        assert table.U.dtype == np.float64

    def test_directory_path_and_manifest_pickup(self, tmp_path):
        write(tmp_path, "v1,0,100,50,30,20,10,5,0,q1\n")
        (tmp_path / "manifest.json").write_text('{"m": 3, "source": "unit"}\n')
        ds = load_dataset(tmp_path)
        assert ds.manifest["source"] == "unit"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no records"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="no records"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such dataset"):
            load_dataset(tmp_path / "nope.csv")

    def test_bad_action_reported_with_row_number(self, tmp_path):
        path = write(
            tmp_path,
            "v1,0,100,50,30,20,10,5,0,q1\nv1,1,100,50,30,20,10,5,0,q9\n",
        )
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path)

    def test_duplicate_voter_round_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "v1,0,100,50,30,20,10,5,0,q1\nv1,0,100,50,30,20,10,5,0,q2\n",
        )
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(path)

    def test_non_integer_score_rejected(self, tmp_path):
        path = write(tmp_path, "v1,0,100,50.5,30,20,10,5,0,q1\n")
        with pytest.raises(DataError, match="non-integer score"):
            load_dataset(path)

    def test_unknown_header_rejected(self, tmp_path):
        path = write(tmp_path, "v1,0,100,50,30,20,10,5,0,q1\n", header="a,b,c\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    def test_all_problems_reported_together(self, tmp_path):
        path = write(
            tmp_path,
            "v1,0,100,50,30,20,10,5,0,q9\nv1,x,100,50,30,20,10,5,0,q1\n",
        )
        with pytest.raises(DataError, match="row 1.*row 2"):
            load_dataset(path)

    def test_each_row_names_its_first_problem_in_row_order(self, tmp_path):
        # A row's fields are checked in field order; negative scores, then
        # utilities, then a negative round, are checked after every field
        # parses; a duplicate is one of an earlier valid row only.
        big = -(10**30)
        path = write(
            tmp_path,
            "v1,0,100,-5,30,20,10,5,0,q1\n"
            "v1,0,100,50,30,20,10,5,0,q1\n"
            f"v1,{big},100,50,30,-1,10,5,0,q1\n"
            "v1,-1,0,50,30,20,10,5,0,q1\n"
            "v1,-2,100,50,30,20,nan,5,0,q4\n"
            "v1,-3,100,50,30,20,inf,5,0,q1\n"
            f"v1,{big},100,50,30,20,10,5,0,q1\n"
            "v1,0,100,50,30,20,10,5,0,q2\n"
            "v1,1,100,50,30,20,10,5,0,q2\n",
        )
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: " + "; ".join([
            "row 1: poll scores must be non-negative integers, got (-5, 30, 20)",
            "row 3: poll scores must be non-negative integers, got (50, 30, -1)",
            "row 4: poll size n must be positive, got 0",
            "row 5: action 'q4' out of range for m=3",
            "row 6: utilities must be finite and non-negative, got (inf, 5.0, 0.0)",
            f"row 7: round must be non-negative, got {big}",
            "row 8: duplicate (voter, round) ('v1', 0), first seen at row 2",
        ])

    def test_huge_negative_score_is_named_not_overflowed(self, tmp_path):
        # -10**30 does not fit int64: the row's own check names it, before
        # any column is built.
        big = -(10**30)
        path = write(tmp_path, f"v1,0,100,50,30,20,10,5,0,q1\nv1,1,100,50,{big},20,10,5,0,q1\n")
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == (
            f"{path}: row 2: poll scores must be non-negative integers, got (50, {big}, 20)"
        )

    def test_lists_twenty_problems_then_counts_the_rest(self, tmp_path):
        path = write(tmp_path, "".join(f"v{i},0,0,1,2,3,10,5,0,q1\n" for i in range(23)))
        with pytest.raises(DataError) as err:
            load_dataset(path)
        text = str(err.value)
        assert text.count("poll size n must be positive") == 20
        assert "row 20: " in text and "row 21: " not in text
        assert text.endswith(" (+3 more)")

    def test_rows_come_in_voter_and_round_order(self, tmp_path):
        path = write(
            tmp_path,
            "v2,0,100,50,30,20,10,5,0,q1\nv1,7,100,50,30,20,10,5,0,q2\n"
            "v1,3,100,50,30,20,10,5,0,q3\n",
        )
        table = load_dataset(path).records
        assert table.voter_ids == ("v1", "v2")
        assert table.voter.tolist() == [0, 0, 1]
        assert table.round.tolist() == [3, 7, 0]
        assert table.action.tolist() == [2, 1, 0]


class TestSaveLoadRoundTrip:
    def test_field_for_field(self, tmp_path):
        ds = generate_synthetic(truth_config())
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path / "dataset.csv")
        assert_same_table(back.records, ds.records)
        assert back.manifest["config"] == ds.manifest["config"]

    def test_refuses_empty(self):
        # No table is empty, so no empty dataset can be saved.
        with pytest.raises(ValueError, match="at least one row"):
            RecordTable.from_columns([], [], [], np.empty((0, 3)), np.empty((0, 3)), [])

    def test_saves_rows_in_table_order(self, tmp_path):
        # A loaded file is saved voter by voter and round by round, not in file order.
        rows = [
            "v2,0,100,50,30,20,10,5,0,q1",
            "v1,1,100,50,30,20,10,5,0,q2",
            "v1,0,100,50,30,20,10,5,0,q3",
        ]
        path = write(tmp_path, "".join(row + "\n" for row in rows))
        csv_path, _ = save_dataset(load_dataset(path), tmp_path / "out")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines == [HEADER.strip(), rows[2], rows[1], rows[0]]


class TestDataset:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError) as err:
            RecordTable.from_columns(*columns([("v1", 0), ("v2", 0), ("v1", 0)]))
        assert str(err.value) == (
            "duplicate (voter, round) ('v1', 0), first seen at row 0: row 2 ('v1', round 0)"
        )

    def test_names_the_first_bad_row_and_its_first_problem(self):
        # Row 1 breaks two rules and row 2 one; a repeat of a bad row's key is no repeat.
        cols = columns([("v1", 0), ("v1", 1), ("v1", 2), ("v1", 1)])
        cols[1][1], cols[2][1], cols[2][2] = -1, 0, 0
        with pytest.raises(ValueError) as err:
            RecordTable.from_columns(*cols)
        assert str(err.value) == "poll size n must be positive, got 0: row 1 ('v1', round -1)"
        assert data._check_rows(*cols, range(4)) == {
            1: "poll size n must be positive, got 0",
            2: "poll size n must be positive, got 0",
        }

    def test_rows_sort_by_voter_and_round(self):
        table = RecordTable.from_columns(*columns([("v2", 1), ("v1", 1), ("v1", 0)]))
        assert table.voter_ids == ("v1", "v2")
        assert table.voter.tolist() == [0, 0, 1]
        assert table.round.tolist() == [0, 1, 1]
        assert table.action.tolist() == [2, 1, 0]
        assert table.voter_rows() == [slice(0, 2), slice(2, 3)]

    def test_voter_ids_sort_as_python_strings(self):
        # A trailing NUL keeps an id apart from its prefix.
        ids = ["b", "a\x00", "a", "\u00e9"]
        table = RecordTable.from_columns(*columns([(v, 0) for v in ids]))
        assert table.voter_ids == tuple(sorted(ids))

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (2, [100, 0], "poll size n must be positive"),
            (1, [0, -1], "round must be non-negative"),
            (3, [[1, 2, 3], [1, -2, 3]], "poll scores must be non-negative"),
            (4, [[3.0, 2.0, 1.0], [3.0, float("nan"), 1.0]], "utilities must be finite"),
            (4, [[3.0, 2.0, 1.0], [3.0, -1.0, 1.0]], "utilities must be finite"),
            (5, [0, 3], r"action 'q4' out of range for m=3: row 1 \('v1', round 1\)"),
            (3, [[1, 2], [1, 2]], "disagree"),
            (3, [[1], [2]], "disagree"),
            (2, [100], "disagree"),
            (5, [-1, 0], r"action 'q0' out of range for m=3: row 0 \('v1', round 0\)"),
            (0, ["v1", ""], "voter_id must be a non-empty string with no surrounding whitespace"),
            (0, ["v1", " v1"], r"whitespace, got ' v1': row 1 \(' v1', round 1\)"),
            (0, ["v1", "v1\t"], r"whitespace, got 'v1\\t'"),
            (0, [5, "v1"], r"non-empty string with no surrounding whitespace, got 5: row 0"),
            (1, [0, -(10**30)], f"round must be non-negative, got {-(10**30)}: row 1"),
            (2, [100, 2**64], f"poll size n {2**64} is above 2\\*\\*63 - 1: row 1"),
            (3, [[1, 2, 3], [1, -(2**64), 3]], rf"got \(1, {-(2**64)}, 3\): row 1"),
            # A fraction is refused, not cut off by the int64 cast.
            (1, [0, 1.5], "^round must be a whole number, got 1.5$"),
            (2, [100, 7.9], "^poll size n must be a whole number, got 7.9$"),
            (3, np.array([[1.0, 2, 3], [1.9, 2, 3]]), "^score must be a whole number, got 1.9$"),
            (5, [0, 0.7], "^action must be a whole number, got 0.7$"),
            (1, [0, float("nan")], "^round must be a whole number, got nan$"),
            (2, [100, float("inf")], "^poll size n must be a whole number, got inf$"),
            (1, [10**30, 1.5], "^round must be a whole number, got 1.5$"),
            # An unsigned array past int64 is judged by value, not wrapped around.
            (1, np.array([0, 2**63], dtype=np.uint64), rf"round {2**63} is above 2\*\*63 - 1"),
            (2, np.array([100, 1e30]), r"poll size n 1e\+30 is above 2\*\*63 - 1: row 1"),
        ],
    )
    def test_invalid_columns_are_rejected(self, column, value, message):
        cols = columns([("v1", 0), ("v1", 1)])
        cols[column] = value
        with pytest.raises(ValueError, match=message):
            RecordTable.from_columns(*cols)

    def test_whole_floats_in_integer_columns_read_as_integers(self):
        with pytest.raises(ValueError, match="^round must be a whole number, got 1.5$"):
            RecordTable.from_columns(["v"], [1.5], [7.9], [[1.9, 2, 3]], [[3.0, 2.0, 1.0]], [0.7])
        cols = columns([("v1", 0), ("v1", 1)])
        cols[1], cols[2], cols[5] = [0.0, 1.0], np.array([100.0, 100.0]), [0.0, 1.0]
        want = RecordTable.from_columns(*columns([("v1", 0), ("v1", 1)]))
        assert_same_table(RecordTable.from_columns(*cols), want)

    def test_columns_are_read_only_and_evaluation_columns_wait_to_be_read(self, tmp_path):
        ds = generate_synthetic(truth_config())
        save_dataset(ds, tmp_path)
        table = ds.records
        derived = ("order", "rank", "scenario", "bucket", "unjustified", "inconsistent")
        assert not set(derived) & set(vars(table))
        for name in [*table._row_fields(), *derived]:
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 0
        assert set(derived) <= set(vars(table))
        assert {f.name for f in fields(RecordTable)} == {"voter_ids", *table._row_fields()}


BIG, HUGE = 2**63, 10**30  # one past int64, and far past it on either side

# One CSV row per rule of data._ROW_RULES that breaks only that rule, and the
# problem the rule names.  A rule with no case here fails the contract test.
RULE_CASES = {
    "voter_id": (
        "  ,0,100,50,30,20,10,5,0,q1",
        "voter_id must be a non-empty string with no surrounding whitespace, got ''",
    ),
    "round_max": (f"v1,{BIG},100,50,30,20,10,5,0,q1", f"round {BIG} is above 2**63 - 1"),
    "n_min": ("v1,0,0,50,30,20,10,5,0,q1", "poll size n must be positive, got 0"),
    "n_max": (f"v1,0,{BIG},50,30,20,10,5,0,q1", f"poll size n {BIG} is above 2**63 - 1"),
    "score_max": (f"v1,0,100,50,{HUGE},{BIG},10,5,0,q1", f"score {HUGE} is above 2**63 - 1"),
    "strict_utilities": (
        "v1,0,100,50,30,20,0.0,5,-0.0,q1",
        "tied utilities (0.0, 5.0, -0.0); preferences must be strict",
    ),
    "score_min": (
        f"v1,0,100,50,{-HUGE},20,10,5,0,q1",
        f"poll scores must be non-negative integers, got (50, {-HUGE}, 20)",
    ),
    "utility_range": (
        "v1,0,100,50,30,20,10,nan,0,q1",
        "utilities must be finite and non-negative, got (10.0, nan, 0.0)",
    ),
    "round_min": (f"v1,{-HUGE},100,50,30,20,10,5,0,q1", f"round must be non-negative, got {-HUGE}"),
    "action_range": ("v1,0,100,50,30,20,10,5,0,q4", "action 'q4' out of range for m=3"),
}
RULE_NAMES = [rule.name for rule in data._ROW_RULES]


def case_columns(line):
    """The one-row columns of a rule case, parsed here rather than by the loader."""
    voter_id, round_, n, *fields_ = line.split(",")
    scores, utilities = [int(v) for v in fields_[:3]], [float(v) for v in fields_[3:6]]
    action = int(fields_[6].removeprefix("q")) - 1
    return [voter_id.strip()], [int(round_)], [int(n)], [scores], [utilities], [action]


class TestRowContract:
    def test_every_rule_has_one_case(self):
        assert sorted(RULE_CASES) == sorted(RULE_NAMES)
        assert len(set(RULE_NAMES)) == len(RULE_NAMES)

    @pytest.mark.parametrize("name", RULE_NAMES)
    def test_loader_and_from_columns_name_the_broken_rule(self, tmp_path, name):
        line, problem = RULE_CASES[name]
        cols = case_columns(line)
        rows = data._Rows(
            cols[0], np.zeros(1, dtype=np.int64),
            *(np.array(c, dtype=object) for c in cols[1:4]),
            np.array(cols[4]), np.array(cols[5], dtype=object),
        )
        assert [rule.name for rule in data._ROW_RULES if rule.broken(rows).any()] == [name]
        path = write(tmp_path, line + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: row 1: {problem}"
        with pytest.raises(ValueError) as err:
            RecordTable.from_columns(*cols)
        assert str(err.value) == f"{problem}: row 0 ({cols[0][0]!r}, round {cols[1][0]})"


# Field edits that each break one rule of a valid row, or make a field
# unparseable, keyed by the fields they edit (the tie edits u_1 and u_2).
FAULTS = {
    "voter_id": [[""], ["  "]],
    "round": [[str(BIG)], ["-1"], [str(-HUGE)], ["x"], ["1.5"]],
    "n": [["0"], ["-3"], [str(-HUGE)], [str(BIG)], ["n"]],
    "s_1": [[str(BIG)], [str(HUGE)], ["-1"], [str(-HUGE)], ["2.0"]],
    "u_1,u_2": [["5", "5"], ["0.0", "-0.0"], ["0", "-0"]],
    "u_3": [["nan"], ["inf"], ["-inf"], ["-1"], ["1e400"], ["abc"]],
    "action": [["q0"], ["q4"], ["qx"], ["0"], [""]],
}
FIELD_INDEX = {name: i for i, name in enumerate(HEADER.strip().split(","))}


@st.composite
def faulty_rows(draw):
    """A CSV row with up to two field faults, and sometimes a wrong field
    count, and its number of faults.  Keys repeat often and ids may be
    padded, so that repeats follow bad rows."""
    row = [
        draw(st.sampled_from(["v1", "v2", " v1", "v2\t"])),
        str(draw(st.integers(0, 2))),
        str(draw(st.sampled_from([1, 7, BIG - 1]))),
        *(str(draw(st.sampled_from([0, 3, BIG - 1]))) for _ in range(3)),
        *(repr(u) for u in draw(st.permutations([0.0, 0.5, 10.0, 1e300]))[:3]),
        draw(st.sampled_from(["q1", "q2", "3"])),
    ]
    slots = draw(st.lists(st.sampled_from(sorted(FAULTS)), max_size=2, unique=True))
    for slot in slots:
        for name, value in zip(slot.split(","), draw(st.sampled_from(FAULTS[slot]))):
            row[FIELD_INDEX[name]] = value
    if draw(st.integers(0, 9)) == 0:  # a wrong field count
        row = row[:-1] if slots else row + ["extra"]
        slots = slots + ["count"]
    return row, len(slots)


class TestLoaderMatchesTheRowOracle:
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.lists(faulty_rows(), min_size=1, max_size=12))
    def test_accepts_what_the_oracle_accepts_and_names_single_problems_alike(
        self, tmp_path, drawn
    ):
        rows = [row for row, _ in drawn]
        path = write_rows(tmp_path, rows)
        want, got = file_problems(rows, 3), named_problems(path)
        assert sorted(got) == sorted(want)
        for row_num, (_, faults) in enumerate(drawn, start=1):
            if faults <= 1:
                assert got.get(row_num) == want.get(row_num), rows[row_num - 1]
        if not want:
            loaded = {(r.voter_id, r.round) for r in records_of(load_dataset(path).records)}
            assert loaded == {(row[0].strip(), int(row[1])) for row in rows}

    def test_the_oracle_and_the_loader_order_a_rows_problems_differently(self, tmp_path):
        # Parse problems come before rules now: the oracle names the big
        # round, which it reads first; the loader the n that does not parse.
        row = ["v1", str(BIG), "x", "50", "30", "20", "10", "5", "0", "q1"]
        assert file_problems([row], 3) == {1: f"round {BIG} is above 2**63 - 1"}
        assert named_problems(write_rows(tmp_path, [row])) == {1: "non-integer n 'x'"}


# Rows of tables that from_columns may accept or refuse: ids may be empty,
# padded or any short text; counts run to the int64 limit; utilities include
# -0.0 and the largest floats.
voter_ids = st.one_of(st.sampled_from(["", " v1", "v1 ", "v1", "v2"]), st.text(max_size=4))
counts = st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1))
table_rows = st.tuples(
    voter_ids,
    counts,
    st.integers(1, 2**63 - 1),
    st.lists(counts, min_size=3, max_size=3),
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0, 1e308)),
        min_size=3,
        max_size=3,
        unique=True,
    ),
    st.integers(0, 2),
)


class TestTableProperties:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.lists(table_rows, min_size=1, max_size=4))
    def test_every_table_from_columns_accepts_loads_back_equal(self, tmp_path, rows):
        try:
            table = RecordTable.from_columns(*(list(c) for c in zip(*rows)))
        except ValueError:
            return
        save_dataset(Dataset(table), tmp_path)
        assert_same_table(load_dataset(tmp_path / "dataset.csv").records, table)

    @settings(deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda m: st.lists(
                st.tuples(
                    st.permutations([0.0, 1.0, 2.5, 7.0][:m]),
                    st.lists(st.integers(0, 3), min_size=m, max_size=m),
                ),
                min_size=1,
                max_size=8,
            )
        )
    )
    def test_scenario_column_equals_scenario_ids(self, drawn):
        U, S = [u for u, _ in drawn], [s for _, s in drawn]
        R = len(drawn)
        table = RecordTable.from_columns(["v"] * R, range(R), [9] * R, S, U, [0] * R)
        assert table.scenario.tolist() == scenario_ids(table.U, table.S).tolist()


class TestSamplers:
    def test_value(self):
        rng = np.random.default_rng(0)
        assert ParamSampler.value(2).sample(rng) == 2

    def test_choices_stay_in_support(self):
        rng = np.random.default_rng(0)
        s = ParamSampler.choices((0.02, 0.08, 0.30))
        assert all(s.sample(rng) in (0.02, 0.08, 0.30) for _ in range(50))

    def test_uniform_stays_in_range(self):
        rng = np.random.default_rng(0)
        s = ParamSampler.uniform(0.5, 1.5)
        assert all(0.5 <= s.sample(rng) <= 1.5 for _ in range(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamSampler.choices(())
        with pytest.raises(ValueError):
            ParamSampler.uniform(2.0, 1.0)


class TestGeneratorConfig:
    def test_round_trips_through_dict(self):
        config = truth_config(
            poll_sizes=((8, 0.5), (100, 0.5)),
            poll_size_mode="per_round",
            poll_concentrations=(1.0, 12.0),
            repeats=2,
            scenario_mode="cycle",
            noise=0.1,
        )
        assert GeneratorConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            truth_config(num_voters=0)
        with pytest.raises(ValueError):
            truth_config(noise=1.5)
        with pytest.raises(ValueError):
            truth_config(poll_sizes=((1, 1.0),))
        with pytest.raises(ValueError):
            truth_config(scenario_weights={"Z": 1.0})
        with pytest.raises(ValueError):
            truth_config(poll_concentrations=(0.0,))
        with pytest.raises(ValueError):
            truth_config(repeats=0)
        with pytest.raises(ValueError):
            truth_config(groups=())

    def test_nn_cannot_generate(self):
        with pytest.raises(ValueError):
            PopulationGroup(family=Family.NN, weight=1.0)


class TestGenerate:
    def test_same_seed_same_bytes(self, tmp_path):
        config = truth_config(noise=0.2)
        save_dataset(generate_synthetic(config), tmp_path / "a")
        save_dataset(generate_synthetic(config), tmp_path / "b")
        assert (tmp_path / "a/dataset.csv").read_bytes() == (tmp_path / "b/dataset.csv").read_bytes()
        assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()

    def test_different_seeds_differ(self):
        a = generate_synthetic(truth_config(master_seed=1))
        b = generate_synthetic(truth_config(master_seed=2))
        assert records_of(a.records) != records_of(b.records)

    def test_noise_free_truth_votes_top_choice(self):
        ds = generate_synthetic(truth_config())
        for rec in records_of(ds.records):
            assert rec.action == preference_order(rec.utilities.values)[0]

    def test_generated_polls_are_strictly_ordered(self):
        ds = generate_synthetic(truth_config(num_voters=10))
        for rec in records_of(ds.records):
            assert len(set(rec.poll.scores)) == 3
            assert classify_scenario(rec.utilities, rec.poll) in SCENARIOS

    def test_actions_reproducible_from_recorded_descriptor(self):
        config = truth_config(
            groups=(
                PopulationGroup(
                    family=Family.AU,
                    weight=1.0,
                    params={
                        "alpha": ParamSampler.choices((0.2, 1.0, 1.8)),
                        "beta": ParamSampler.choices((3.0, 12.0, 40.0)),
                    },
                ),
                PopulationGroup(
                    family=Family.CV,
                    weight=1.0,
                    params={"eta": ParamSampler.choices((2, 8))},
                ),
            ),
            num_voters=6,
        )
        ds = generate_synthetic(config)
        assignments = ds.manifest["model_assignments"]
        for vid, recs in by_voter(ds.records).items():
            desc = ModelDescriptor(
                family=Family(assignments[vid]["family"]),
                **assignments[vid]["params"],
            )
            for rec in recs:
                assert decide(desc, rec.utilities, rec.poll) == rec.action

    def test_noisy_rounds_are_bookkept(self):
        ds = generate_synthetic(truth_config(num_voters=20, noise=0.3, master_seed=3))
        noisy = ds.manifest["noisy_rounds"]
        assert noisy
        clean = {(v, r) for v, rounds in noisy.items() for r in rounds}
        for rec in records_of(ds.records):
            truthful = preference_order(rec.utilities.values)[0]
            if (rec.voter_id, rec.round) not in clean:
                assert rec.action == truthful

    def test_scenario_sample_frequencies(self):
        config = truth_config(num_voters=100, rounds_per_voter=60, master_seed=11)
        ds = generate_synthetic(config)
        counts = {s: 0 for s in SCENARIOS}
        for rec in records_of(ds.records):
            counts[classify_scenario(rec.utilities, rec.poll)] += 1
        total = len(ds.records)
        assert total == 6000
        for s in SCENARIOS:
            assert abs(counts[s] / total - 1 / 6) < 0.02

    def test_scenario_cycle_covers_all_six_per_voter(self):
        config = truth_config(rounds_per_voter=6, scenario_mode="cycle")
        ds = generate_synthetic(config)
        for recs in by_voter(ds.records).values():
            seen = {classify_scenario(r.utilities, r.poll) for r in recs}
            assert seen == set(SCENARIOS)

    def test_scenario_cycle_deals_rounded_multiplicities(self):
        # round(2.5) is 2, a weight below 0.5 still deals once, and a weight
        # of 1e12 deals without a list of that many labels.
        weights = {"A": 2.5, "C": 0.2, "D": 1e12, "F": 0.0}
        config = truth_config(rounds_per_voter=6, scenario_mode="cycle", scenario_weights=weights)
        for recs in by_voter(generate_synthetic(config).records).values():
            seen = [classify_scenario(r.utilities, r.poll) for r in recs]
            assert seen == ["A", "A", "C", "D", "D", "D"]

    def test_repeats_show_each_context_twice(self):
        config = truth_config(rounds_per_voter=6, repeats=2, scenario_mode="cycle")
        ds = generate_synthetic(config)
        for recs in by_voter(ds.records).values():
            assert len(recs) == 6
            for a, b in zip(recs[0::2], recs[1::2]):
                assert a.poll == b.poll
                assert a.utilities == b.utilities

    def test_per_round_poll_sizes_vary(self):
        config = truth_config(
            poll_sizes=((8, 0.5), (100, 0.5)),
            poll_size_mode="per_round",
            num_voters=10,
            rounds_per_voter=12,
        )
        ds = generate_synthetic(config)
        sizes = set(ds.records.n.tolist())
        assert sizes == {8, 100}
