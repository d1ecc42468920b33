"""The benchmark's workloads: which runs a pass makes, and which layers they must exercise.

Each workload is a fixed dataset instance and a fixed set of runs.  The
workload seed only decides the order in which the single client issues
those runs.  The run set does not change with the seed because run cost
on ds1 is heavy-tailed: over blocks of 50 run seeds per k, gtkmeans with
ns off moves by 37-57% (quartile spread over median) in runs per second.
For the same reason the ds1 grid starts at run seed 1: run seed 0 at k=8
plays one 1,330,560-joint game that alone takes 13-21 s, half a pass, and
a run that long cannot be repeated within a run's time budget, so it left
ds1-full's runs per second spread by 21% over five seeds.

This module imports nothing from gameclust, so the parent process that
launches the passes never loads the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

Run = Tuple[int, int, int]  # (index in the natural order, k, run seed)


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a dataset instance and the runs made on it."""

    name: str
    algorithm: str
    n_points: int
    instance_seed: int
    ks: Tuple[int, ...]
    ns: Optional[int]
    run_seeds: range
    required_spans: Tuple[str, ...]
    why: str
    # Seconds of the --seconds budget one pass counts for: about a pass's
    # normalized length, except that n3000-pk, whose runs are steady and which
    # also pays for the k-means reference, counts its passes dear.
    pass_s: float

    def passes(self, seconds: float) -> int:
        """Passes that fill about ``seconds``; fixed for a given budget, whatever the machine's speed."""
        return max(1, round(seconds / self.pass_s))

    def natural_runs(self) -> List[Run]:
        """Every run of one pass, k-major: (index, k, run seed)."""
        pairs = [(k, s) for k in self.ks for s in self.run_seeds]
        return [(i, k, s) for i, (k, s) in enumerate(pairs)]

    def runs(self, seed: int) -> List[Run]:
        """The runs of one pass in the order the client issues them under ``seed``."""
        order = self.natural_runs()
        random.Random(seed).shuffle(order)
        return order

    def warmup_run(self) -> Run:
        """The set-up run: the first run of the natural order, whatever the seed."""
        return self.natural_runs()[0]


_GAME_PHASE = (
    "kmeans.lloyd_iteration",
    "core.objectives",
    "core.from_assignment",
    "game_engine.classify_roles",
    "game_engine.build_payoff_tensor",
    "game_engine.find_pure_nash",
    "game_engine.apply_and_evaluate",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ds1-full",
            algorithm="gtkmeans",
            n_points=150,
            instance_seed=0,
            ks=(4, 8),
            ns=None,
            run_seeds=range(1, 51),
            required_spans=_GAME_PHASE,
            why="the payoff-tensor build is two thirds of run time (three quarters at k=8) "
            "over 6,095 games of up to 73,920 joints; per-game overhead shows in run_ms_p50",
            pass_s=12.0,
        ),
        Workload(
            name="ds1-ns3",
            algorithm="gtkmeans",
            n_points=150,
            instance_seed=0,
            ks=(4, 8),
            ns=3,
            run_seeds=range(1, 51),
            required_spans=_GAME_PHASE,
            why="the same grid with ns=3: 5,904 tiny games, so objectives, from_assignment "
            "and apply outweigh the tensor; 44 of 100 runs end on the iteration budget",
            pass_s=6.0,
        ),
        Workload(
            name="n3000-pk",
            algorithm="pkgame",
            n_points=3000,
            instance_seed=0,
            ks=(8,),
            ns=10,
            run_seeds=range(100),
            required_spans=_GAME_PHASE + ("kmeans.lloyd_full",),
            why="pkgame on 3,000 points: full Lloyd and from_assignment dominate; "
            "the tensor scans ~375-point resources for free points; never cycles",
            pass_s=10.0,
        ),
    )
}
