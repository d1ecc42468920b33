"""Acceptance suite: one test per criterion, one printed line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.

Criteria 5-8 share one benchmark grid: gtkmeans with ns in
{off, 2, 3, 4} over k in {4..8}, 50 paired seeds per variant, on a
pinned 150-point blob instance, plus a plain-k-means baseline per
(k, seed).  The instance seed is pinned so the no-selection games grow
large enough for timing and complexity comparisons to be meaningful
(see DS1_SEED below); all thresholds are asserted at their stated
values.
"""

import json
import time

import numpy as np
import pytest

from gameclust import (
    Clustering,
    Dataset,
    Ds1Config,
    KMeansConfig,
    PayoffTensor,
    classify_roles,
    conflicted_games,
    find_pure_nash,
    generate_ds1,
    geometric_mean_index,
    ideal_load,
    improvement_indices,
    init_centers,
    jain_index,
    lloyd_full,
    load_metric,
    paired_compare,
    route_requests,
    select_strategies,
)
from gameclust.cli import main as cli_main
from gameclust.game_engine import FALLBACK_MIN_SOCIAL_COST, PURE_NASH

from oracles import pure_nash_set, tensor_as_dict

DS1_SEED = 0  # pinned benchmark instance (calibration note in the repo history)
RUN_SEEDS = tuple(range(50))
K_VALUES = (4, 5, 6, 7, 8)
NS_ARMS = (None, 2, 3, 4)


def report(number, ok, detail):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def grid():
    """The shared benchmark grid for criteria 5-8, one ``paired_compare`` call (see it for the run order)."""
    dataset = generate_ds1(Ds1Config(seed=DS1_SEED))
    t0 = time.perf_counter()
    rows = {(s.k, s.ns): s for s in paired_compare(dataset, K_VALUES, RUN_SEEDS, NS_ARMS, ("gtkmeans",))}
    grid_runtime = time.perf_counter() - t0
    plain_l = {}
    for k in K_VALUES:
        for seed in RUN_SEEDS:
            centers = init_centers(dataset, KMeansConfig(k=k, seed=seed))
            km, _ = lloyd_full(dataset, centers, 100)
            plain_l[(k, seed)] = load_metric(km.loads, ideal_load(dataset.n, k))
    return {"dataset": dataset, "rows": rows, "plain_l": plain_l, "runtime": grid_runtime}


def test_criterion_1_worked_example_strategy_selection():
    t0 = time.perf_counter()
    small = select_strategies(3, 2)
    large = select_strategies(6, 2)
    elapsed = time.perf_counter() - t0
    ok = small == (0, 2) and large == (0, 2, 4, 5) and elapsed < 1e-3
    report(1, ok, f"ns=2 maps {{0,1,2}}->{small} and {{0..5}}->{large} in {elapsed*1e6:.0f} us")


def test_criterion_2_role_assignment_fidelity():
    points, assignment = [], []
    for cid, (load, base) in enumerate([(4, 0.0), (1, 50.0), (8, 100.0)]):
        for i in range(load):
            points.append([base + 0.1 * i])
            assignment.append(cid)
    clustering = Clustering.from_assignment(Dataset(points=points), assignment, 3)
    roles = classify_roles(clustering, 7)
    conflicted = len(conflicted_games(roles, route_requests(roles, clustering))) == 1
    ok = (
        roles.players == ((0, 3), (1, 6))
        and roles.resources == ((2, 1),)
        and conflicted is True
    )
    report(2, ok, f"loads [4,1,8] vs ideal 7 -> players {roles.players}, "
                  f"resources {roles.resources}, conflict {conflicted}")


def test_criterion_3_nash_oracle_equivalence():
    rng = np.random.default_rng(20240917)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n_p = int(rng.integers(2, 4))
        sizes = tuple(int(rng.integers(1, 6)) for _ in range(n_p))
        costs = np.round(rng.random(sizes + (n_p,)), 2)
        tensor = PayoffTensor(costs)
        result = find_pure_nash(tensor)
        equilibria = pure_nash_set(tensor_as_dict(costs))
        if equilibria:
            if result.kind != PURE_NASH or result.joint not in equilibria:
                mismatches += 1
        elif result.kind != FALLBACK_MIN_SOCIAL_COST:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    report(3, ok, f"200 random tensors, {mismatches} mismatches vs brute force, {elapsed:.2f} s")


def test_criterion_4_pruning_law_exhaustive():
    failures = 0
    for request in range(1, 201):
        for ns in range(1, 11):
            selected = select_strategies(request, ns)
            expected = (request - 1) // ns + 1 + (1 if (request - 1) % ns != 0 else 0)
            if len(selected) != expected:
                failures += 1
    report(4, failures == 0,
           f"|selected| formula exact on request 1..200 x ns 1..10 ({failures} failures)")


def test_criterion_5_complexity_reduction(grid):
    base = grid["rows"][(8, None)]
    pruned = grid["rows"][(8, 3)]
    strat_ratio = pruned.mean_strategies_per_player / base.mean_strategies_per_player
    entry_ratio = pruned.mean_payoff_entries / base.mean_payoff_entries
    ok = strat_ratio <= 0.6 and entry_ratio <= 0.6 and grid["runtime"] < 600.0
    report(5, ok, f"k=8, 50 paired seeds: strategies ratio {strat_ratio:.3f}, "
                  f"payoff-entry ratio {entry_ratio:.4f} (grid built in {grid['runtime']:.0f} s)")


def test_criterion_6_wall_time_direction(grid):
    base = grid["rows"][(8, None)]
    pruned = grid["rows"][(8, 3)]
    ratio = base.mean_wall_time_s / pruned.mean_wall_time_s
    report(6, ratio >= 2.0,
           f"k=8 serial timing: ns off {base.mean_wall_time_s*1e3:.1f} ms vs ns=3 "
           f"{pruned.mean_wall_time_s*1e3:.1f} ms -> {ratio:.1f}x faster (need >= 2x)")


def test_criterion_7_quality_preservation(grid):
    indices = {
        cell: improvement_indices(s.mean_sse_improvement_pct, s.mean_l_improvement_pct)
        for cell, s in grid["rows"].items()
    }
    worst_jain = worst_gmi = 0.0
    worst_cell = None
    for k in K_VALUES:
        base_jain, base_gmi = indices[(k, None)]
        for ns in (2, 3, 4):
            jain, gmi = indices[(k, ns)]
            d_jain, d_gmi = abs(jain - base_jain), abs(gmi - base_gmi)
            if d_jain > worst_jain:
                worst_jain, worst_cell = d_jain, (k, ns)
            worst_gmi = max(worst_gmi, d_gmi)
    ok = worst_jain <= 0.02 and worst_gmi <= 3.0
    report(7, ok, f"worst |dJain| {worst_jain:.4f} at {worst_cell} (limit 0.02), "
                  f"worst |dGMI| {worst_gmi:.2f} (limit 3.0)")


def test_criterion_8_objective_improvement(grid):
    base_rows = [grid["rows"][(k, None)] for k in K_VALUES]
    wins = total = 0
    for summary in base_rows:
        for run in summary.reports:
            total += 1
            if run.final.load_metric < grid["plain_l"][(summary.k, run.config.seed)]:
                wins += 1
    rate = wins / total
    bad_accepts = 0
    for (k, ns), summary in grid["rows"].items():
        for run in summary.reports:
            for record in run.trace:
                # a kept reallocation always carries its score, and it lies below the pre-game state's 2
                if record.accepted and (record.reallocation_score is None or not record.reallocation_score < 2.0):
                    bad_accepts += 1
    ok = rate >= 0.90 and bad_accepts == 0
    report(8, ok, f"final L strictly below plain k-means on {wins}/{total} = {rate:.1%} "
                  f"paired seeds (need >= 90%); {bad_accepts} accepted reallocations "
                  f"unscored or scored >= 2")


def test_criterion_9_fairness_metric_units():
    checks = [
        (jain_index([1, 1]), 1.0),
        (jain_index([1, 0]), 0.5),
        (geometric_mean_index([100, 100]), 100.0),
    ]
    worst = max(abs(got - want) for got, want in checks)
    report(9, worst <= 1e-12, f"jain(1,1), jain(1,0), gmi(100,100) exact to 1e-12 "
                              f"(worst error {worst:.2e})")


def test_criterion_10_cli_determinism(tmp_path):
    args = ["bench", "--ds1", "--k", "4", "--algo", "gtkmeans,pkgame", "--ns", "0,2",
            "--seed", "5..6"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    status_a = cli_main(args + ["--out", str(out_a)])
    status_b = cli_main(args + ["--out", str(out_b)])

    def strip_wall(obj):
        if isinstance(obj, dict):
            return {k: (0.0 if "wall_time" in k else strip_wall(v)) for k, v in obj.items()}
        if isinstance(obj, list):
            return [strip_wall(v) for v in obj]
        return obj

    canon_a = json.dumps(strip_wall(json.loads(out_a.read_text())), sort_keys=True)
    canon_b = json.dumps(strip_wall(json.loads(out_b.read_text())), sort_keys=True)
    ok = status_a == 0 and status_b == 0 and canon_a == canon_b
    report(10, ok, f"two identical bench invocations byte-identical outside wall-time "
                   f"fields ({len(canon_a)} bytes compared)")
