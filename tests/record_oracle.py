"""Records one at a time: the tests' oracle view of a record table.

The package holds a dataset's records only as the columns of a
``stratvote.data.RecordTable``.  The per-record oracles (``feature_oracle``,
``scalar_deciders`` and the report recounts) state their definitions one
record at a time, so they read a :class:`Record` of a ``core.Poll`` and a
``core.UtilityFunction``.  :func:`table_of` builds the table of such
records through ``RecordTable.from_columns``, and :func:`records_of` reads
a table's rows back as records, in table order.  :func:`report_payload` is
the JSON object a report file holds, its ``predictions`` one dict per row.
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
