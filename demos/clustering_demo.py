"""Cluster a synthetic blob dataset with both engines and compare objectives.

Plain k-means only cares about compactness, so its cluster sizes drift
wherever the data pulls them.  The game-based engines trade a little
compactness for much better balance.  Strategy selection (ns) shrinks
the games without giving that balance back.
"""

from gameclust import (
    Ds1Config,
    KMeansConfig,
    RunConfig,
    generate_ds1,
    ideal_load,
    init_centers,
    lloyd_full,
    objectives,
    run_algorithm,
)

K, SEED = 8, 1

dataset = generate_ds1(Ds1Config(seed=0))
print(f"dataset: {dataset.n} points, {dataset.dim}-d, k={K}, ideal load {float(ideal_load(dataset.n, K)):.2f}")

plain, _ = lloyd_full(dataset, init_centers(dataset, KMeansConfig(k=K, seed=SEED)), 100)
print("\nplain k-means     loads:", plain.loads.tolist())
base = objectives(dataset, plain)
print("                  SSE:", round(base.sse, 1), " L:", round(base.load_metric, 1))

for label, report in [
    ("gtkmeans", run_algorithm(dataset, RunConfig(k=K, seed=SEED))),
    ("gtkmeans ns=3", run_algorithm(dataset, RunConfig(k=K, seed=SEED, ns=3))),
    ("pkgame", run_algorithm(dataset, RunConfig(k=K, seed=SEED, algorithm="pkgame"))),
    ("pkgame ns=3", run_algorithm(dataset, RunConfig(k=K, seed=SEED, ns=3, algorithm="pkgame"))),
]:
    print(f"\n{label:14s} loads:", report.final_clustering.loads.tolist())
    print(f"{'':14s} SSE: {report.final.sse:8.1f}  L: {report.final.load_metric:7.1f}"
          f"  games: {report.games_played}"
          f"  payoff entries: {sum(report.payoff_entry_counts)}"
          f"  time: {report.wall_time_s*1e3:6.1f} ms")
    imp = report.improvement
    print(f"{'':14s} improvement over the shared initial step:"
          f" SSE {imp.sse_improvement_pct:+.1f}%  L {imp.l_improvement_pct:+.1f}%")
