"""Workload definitions: a generator config plus the evaluate flags.

Every workload is m = 3, draws a poll size per round from {8, 100, 1000,
10000}, a Dirichlet concentration per round from (1, 12), and shows each
drawn round twice (``repeats = 2``).  The benchmark's ``--seed`` becomes the
``simulate`` master seed, so a seed fixes the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

SHARED = {
    "poll_sizes": [[8, 1], [100, 1], [1000, 1], [10000, 1]],
    "poll_size_mode": "per_round",
    "poll_concentrations": [1, 12],
    "scenario_mode": "cycle",
    "repeats": 2,
}

AU_PARAMS = {
    "alpha": {"type": "choices", "values": [0.2, 1.0, 1.8]},
    "beta": {"type": "choices", "values": [3, 12, 40]},
}


@dataclass(frozen=True)
class Workload:
    why: str
    num_voters: int
    rounds_per_voter: int
    groups: tuple
    noise: float
    families: str
    cv_etas: str | None = None
    # Output check: the LOO weighted F of every family must reach this.
    min_weighted_f: float | None = None

    def config(self) -> dict:
        return {
            **SHARED,
            "num_voters": self.num_voters,
            "rounds_per_voter": self.rounds_per_voter,
            "groups": list(self.groups),
            "noise": self.noise,
        }

    def evaluate_flags(self) -> list[str]:
        flags = ["--families", self.families, "--mode", "loo"]
        if self.cv_etas:
            flags += ["--cv-etas", self.cv_etas]
        return flags


WORKLOADS = {
    "cv_sweep": Workload(
        why="CV eta sweep: evaluate is almost all pivot tables, exact and Monte-Carlo",
        num_voters=6,
        rounds_per_voter=2,
        groups=(
            {
                "family": "CV",
                "params": {"eta": {"type": "choices", "values": [4, 64, 1024]}},
            },
        ),
        noise=0.0,
        families="CV",
        # A fixed eta=10000 rather than "n": every record builds one
        # Monte-Carlo table, so the pivot work does not follow the seed's
        # poll-size draws.
        cv_etas="1,4,16,64,256,1024,10000",
        min_weighted_f=0.99,
    ),
    "many_voters": Workload(
        why="seven cheap families over 1152 records: model dispatch, behavior, aggregation, reports, workers",
        num_voters=48,
        rounds_per_voter=24,
        groups=(
            {"family": "LD", "params": {"r": {"type": "choices", "values": [0.05, 0.1, 0.2]}}},
            {"family": "AU", "params": AU_PARAMS},
            {"family": "PRAG", "params": {"k": {"type": "choices", "values": [1, 2, 3]}}},
            {
                "family": "TMG",
                "params": {"voter_type": {"type": "choices", "values": ["TRT", "CMP", "LB"]}},
            },
        ),
        noise=0.1,
        families="TRUTH,BR,PRAG,LD,LDLB,TMG,AU",
    ),
    "nn_folds": Workload(
        why="NN baseline: one network trained per LOO fold, so training is nearly all of evaluate",
        num_voters=12,
        rounds_per_voter=12,
        groups=({"family": "AU", "params": AU_PARAMS},),
        noise=0.1,
        families="NN",
    ),
}
