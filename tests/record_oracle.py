"""Records one at a time: the tests' oracle view of a record table.

The package holds a dataset's records only as the columns of a
``stratvote.data.RecordTable``.  The per-record oracles (``feature_oracle``,
``scalar_deciders`` and the report recounts) state their definitions one
record at a time, so they read a :class:`Record` of a ``core.Poll`` and a
``core.UtilityFunction``.  :func:`table_of` builds the table of such
records through ``RecordTable.from_columns``, and :func:`records_of` reads
a table's rows back as records, in table order.  :func:`report_payload` is
the JSON object a report file holds, its ``predictions`` one dict per row.
:func:`parse_row` and :func:`file_problems` state the loader's row contract
one CSV row at a time, each rule checked where its field is read: the
package's loader must accept exactly the files they accept, and name the
same problem for a row with one problem.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from stratvote.behavior import SCENARIO_LABELS
from stratvote.core import Poll, UtilityFunction
from stratvote.data import POLL_BUCKETS, RecordTable


def preference_order(values: Sequence[float]) -> tuple[int, ...]:
    """Candidates sorted most-preferred first; equal values break by lower index."""
    return tuple(sorted(range(len(values)), key=lambda c: (-values[c], c)))


class Record(NamedTuple):
    """One vote: who saw which poll with which utilities, and what they did."""

    voter_id: str
    round: int
    poll: Poll
    utilities: UtilityFunction
    action: int


def table_of(records: Sequence[Record]) -> RecordTable:
    """The record table of ``records``, sorted into (voter, round) order.

    No records give a three-candidate table of no rows, which
    ``from_columns`` does not build: the rows of a voter that has none.
    """
    if not records:
        one = Record("v", 0, Poll((0, 0, 0), 1), UtilityFunction((2.0, 1.0, 0.0)), 0)
        return table_of([one]).select(slice(0, 0))
    return RecordTable.from_columns(
        [r.voter_id for r in records],
        [r.round for r in records],
        [r.poll.n for r in records],
        [r.poll.scores for r in records],
        [r.utilities.values for r in records],
        [r.action for r in records],
    )


def records_of(table: RecordTable) -> list[Record]:
    """The table's rows as records, in table order."""
    return [
        Record(table.voter_ids[voter], round_, Poll(tuple(s), n), UtilityFunction(tuple(u)), a)
        for voter, round_, n, s, u, a in zip(
            table.voter.tolist(),
            table.round.tolist(),
            table.n.tolist(),
            table.S.tolist(),
            table.U.tolist(),
            table.action.tolist(),
        )
    ]


def by_voter(table: RecordTable) -> dict[str, list[Record]]:
    """The table's records grouped per voter, voters sorted and rounds in order."""
    grouped: dict[str, list[Record]] = {}
    for record in records_of(table):
        grouped.setdefault(record.voter_id, []).append(record)
    return grouped


def report_payload(report) -> dict:
    """An ``EvaluationReport``'s summary with its ``predictions``: one dict per row, in order."""
    table = report.table
    rows = [
        {
            "voter_id": table.voter_ids[voter],
            "round": round_,
            "scenario": SCENARIO_LABELS[scenario],
            "bucket": POLL_BUCKETS[bucket],
            "actual": actual,
            "predicted": guess,
            "actual_rank": a_rank,
            "predicted_rank": p_rank,
        }
        for voter, round_, scenario, bucket, actual, guess, a_rank, p_rank in zip(
            table.voter.tolist(),
            table.round.tolist(),
            table.scenario.tolist(),
            table.bucket.tolist(),
            table.action.tolist(),
            report.predicted.tolist(),
            table.rank_of(table.action).tolist(),
            table.rank_of(report.predicted).tolist(),
        )
    ]
    return {**report.to_dict(), "predictions": rows}


# The largest round, poll size or score a CSV row may carry.
MAX_COUNT = 2**63 - 1


def parse_row(row: list[str], m: int) -> tuple:
    """One CSV row's voter id, round, n, scores, utilities and action.

    ``ValueError`` names the row's first problem.  Fields are parsed with
    Python's ``int`` and ``float`` in field order, each checked as it
    parses; once all of them parse, the row is checked for negative
    scores, then bad utilities, then a negative round.
    """
    expected = 3 + 2 * m + 1
    if len(row) != expected:
        raise ValueError(f"expected {expected} fields, got {len(row)}")
    voter_id = row[0].strip()
    if not voter_id:
        raise ValueError(
            "voter_id must be a non-empty string with no surrounding whitespace, got ''"
        )
    try:
        round_ = int(row[1])
    except ValueError:
        raise ValueError(f"non-integer round {row[1]!r}") from None
    if round_ > MAX_COUNT:
        raise ValueError(f"round {round_} is above 2**63 - 1")
    try:
        n = int(row[2])
    except ValueError:
        raise ValueError(f"non-integer n {row[2]!r}") from None
    if n < 1:
        raise ValueError(f"poll size n must be positive, got {n}")
    if n > MAX_COUNT:
        raise ValueError(f"poll size n {n} is above 2**63 - 1")
    scores = []
    for text in row[3 : 3 + m]:
        try:
            scores.append(int(text))
        except ValueError:
            raise ValueError(f"non-integer score {text!r}") from None
        if scores[-1] > MAX_COUNT:
            raise ValueError(f"score {scores[-1]} is above 2**63 - 1")
    utilities = []
    for text in row[3 + m : 3 + 2 * m]:
        try:
            utilities.append(float(text))
        except ValueError:
            raise ValueError(f"non-numeric utility {text!r}") from None
    if len(set(utilities)) != m:
        raise ValueError(f"tied utilities {tuple(utilities)}; preferences must be strict")
    raw = row[3 + 2 * m].strip().lower().removeprefix("q")
    try:
        action = int(raw) - 1
    except ValueError:
        raise ValueError(f"unparseable action {row[3 + 2 * m]!r}") from None
    if not 0 <= action < m:
        raise ValueError(f"action {row[3 + 2 * m]!r} out of range for m={m}")
    if min(scores) < 0:
        raise ValueError(f"poll scores must be non-negative integers, got {tuple(scores)!r}")
    if not all(0 <= u < float("inf") for u in utilities):
        raise ValueError(f"utilities must be finite and non-negative, got {tuple(utilities)!r}")
    if round_ < 0:
        raise ValueError(f"round must be non-negative, got {round_!r}")
    return voter_id, round_, n, scores, utilities, action


def file_problems(rows: Sequence[list[str]], m: int) -> dict[int, str]:
    """The first problem of each bad row of a CSV body, by row number from 1:
    its :func:`parse_row` problem, else the repeat of the (voter, round) key
    of an earlier row that :func:`parse_row` accepts."""
    problems: dict[int, str] = {}
    seen: dict[tuple, int] = {}
    for row_num, row in enumerate(rows, start=1):
        try:
            record = parse_row(row, m)
        except ValueError as exc:
            problems[row_num] = str(exc)
            continue
        first = seen.setdefault(record[:2], row_num)
        if first != row_num:
            problems[row_num] = f"duplicate (voter, round) {record[:2]}, first seen at row {first}"
    return problems
