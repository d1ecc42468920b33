"""Walk through one local game on a tiny 1-d instance, step by step.

Twenty points on a line: a loose group of four near 0, a lone point at
5, and fifteen points spread between 9 and 11.8.  Grouped that way the
loads are [4, 1, 15] against an ideal load of 20/3, so the two small
clusters are players (requesting 3 and 6 points) and the big one is a
resource with 8 spare points.  The requests exceed the spare points,
which triggers a game.
"""

import numpy as np

from gameclust import (
    Clustering,
    Dataset,
    apply_and_evaluate,
    build_payoff_tensor,
    classify_roles,
    conflicted_games,
    find_pure_nash,
    ideal_load,
    objectives,
    route_requests,
    select_strategies,
)

xs = [0.0, 0.4, 0.8, 1.2, 5.0] + [9.0 + 0.2 * i for i in range(15)]
dataset = Dataset(points=np.array(xs).reshape(-1, 1))
clustering = Clustering.from_assignment(dataset, [0] * 4 + [1] + [2] * 15, 3)
ideal = ideal_load(dataset.n, 3)

print("loads:", clustering.loads.tolist(), " ideal load:", ideal, f"({float(ideal):.3f})")
before = objectives(dataset, clustering)
print("SSE:", round(before.sse, 3), " L:", round(before.load_metric, 3))

roles = classify_roles(clustering, ideal)
print("\nplayers (cluster, requested units): ", roles.players)
print("resources (cluster, spare units):    ", roles.resources)

routing = route_requests(roles, clustering)
print("requests routed to nearest resource:", dict(routing))

games = conflicted_games(roles, routing)
game = games[0]
print(f"\nresource {game.resource_id} cannot cover the requests -> one local game")
for p in game.participants:
    print(f"  player {p.player_id}: request {p.request}, strategies {p.strategies}")

print("\nwith selection granularity 2 the sets shrink to:")
for p in game.participants:
    print(f"  player {p.player_id}: {select_strategies(p.request, 2)}")

tensor = build_payoff_tensor(dataset, clustering, game)
print(f"\npayoff tensor: {tensor.shape} joints x {tensor.n_participants} costs "
      f"({tensor.joint_count} entries)")
equilibrium = find_pure_nash(tensor)
print("equilibrium:", equilibrium.kind, "at joint", equilibrium.joint)
print("units forgone:", [p.strategies[i] for p, i in zip(game.participants, equilibrium.joint)])
transfers = game.transfers(equilibrium.joint)
print("units transferred (player, units):", transfers)

new_clustering, accepted, after = apply_and_evaluate(
    dataset, clustering, before, {game.resource_id: transfers}
)
print("\nreallocation accepted?" , accepted)
print("loads afterwards:", new_clustering.loads.tolist())
print("SSE:", round(after.sse, 3), " L:", round(after.load_metric, 3))
if not accepted:
    print("(the transfers would hurt compactness more than balance gains justify,")
    print(" so the engine rolled the reallocation back)")
