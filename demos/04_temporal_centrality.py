"""Temporal centrality: who matters, and when.

Temporal betweenness counts, for every ordered source/target pair, the
fraction of minimal routes that pass through a node as an interior relay.
Because journeys are time-asymmetric, a node can be critical in one
direction and irrelevant in the other -- something static betweenness
cannot express.
"""

from tvgkit import (
    Lifetime,
    build_tvg,
    temporal_betweenness_all,
    temporal_closeness,
)

# A relay chain 0 -> 1 -> 2 whose links open in increasing time order,
# plus a symmetric always-on pair 3-4 for contrast.
g = build_tvg(
    5,
    False,
    Lifetime(0, 10),
    [
        (0, 1, 1, 2),
        (1, 2, 5, 6),
        (3, 4, 0, 10),
    ],
)

print("foremost betweenness at t=0:")
for q, b in enumerate(temporal_betweenness_all(g, 0, "foremost")):
    print(f"  node {q}: {b:.2f}")
# Node 1 relays 0->2 but not 2->0: its betweenness is 1, not 2.

print("\nforemost closeness at t=0 (mean delay to reachable nodes):")
for u in range(g.n):
    c = temporal_closeness(g, u, 0, "foremost")
    print(f"  node {u}: {c:.2f}" if c == c else f"  node {u}: isolated")
