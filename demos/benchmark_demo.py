"""A small paired benchmark: how strategy selection changes game size and quality.

Every variant starts from the same seeded centers, so differences are
attributable to the variant, not to initialization luck.  The same grid
is available from the command line:

    gameclust bench --ds1 --k 6,8 --algo gtkmeans --ns 0,2,3 --seed 0..9 --out results.json
"""

from itertools import groupby

from gameclust import Ds1Config, generate_ds1, improvement_indices, paired_compare


def cell(value, spec):
    """``value`` formatted by ``spec``, or n/a right-aligned in its width when it is None."""
    return f"{'n/a':>{spec.split('.')[0]}s}" if value is None else format(value, spec)


dataset = generate_ds1(Ds1Config(seed=0))
seeds = list(range(10))

header = f"{'variant':16s} {'time (ms)':>10s} {'strat/player':>13s} {'entries':>9s} {'SSE imp %':>10s} {'L imp %':>9s} {'Jain':>7s} {'GMI':>7s}"

for k, summaries in groupby(paired_compare(dataset, [6, 8], seeds, [None, 2, 3], ("gtkmeans",)), lambda s: s.k):
    print(f"\nk = {k}, {len(seeds)} paired seeds")
    print(header)
    for summary in summaries:
        label = "gtkmeans" if summary.ns is None else f"gtkmeans ns={summary.ns}"
        sse_imp, l_imp = summary.mean_sse_improvement_pct, summary.mean_l_improvement_pct
        jain, gmi = improvement_indices(sse_imp, l_imp)
        print(
            f"{label:16s} {summary.mean_wall_time_s*1e3:10.1f} "
            f"{summary.mean_strategies_per_player:13.2f} {summary.mean_payoff_entries:9.0f} "
            f"{cell(sse_imp, '10.1f')} {cell(l_imp, '9.1f')} {cell(jain, '7.4f')} {cell(gmi, '7.2f')}"
        )
