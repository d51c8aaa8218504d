"""Journeys and the three temporal distances.

A journey is a path that also respects time: each hop must be taken at an
instant when its edge is actually present, and hops can never go back in
time.  That single constraint splits the familiar notion of "distance"
into three different ones:

* shortest  -- fewest hops, regardless of when you arrive
* foremost  -- earliest possible arrival after the start time
* fastest   -- smallest end-to-end duration, if you may delay departure

This script builds a tiny commuter-style contact trace and shows how the
three distances disagree on it.
"""

from tvgkit import Lifetime, build_tvg, distance_map, witness_journey

# Four stations.  A slow two-hop connection runs early; a direct line
# opens much later.  Time is in abstract ticks.
g = build_tvg(
    4,
    False,
    Lifetime(0, 20),
    [
        (0, 1, 0, 3),    # shuttle 0-1, early morning only
        (1, 2, 5, 8),    # connection 1-2, mid-morning
        (0, 2, 15, 18),  # direct line 0-2, late
        (2, 3, 16, 19),  # last leg 2-3
    ],
)

u, t = 0, 0
print(f"from node {u} at t={t}")
print(f"  shortest (hops):     {distance_map(g, u, t, 'shortest')}")
print(f"  foremost (delay):    {distance_map(g, u, t, 'foremost')}")
print(f"  fastest (duration):  {distance_map(g, u, t, 'fastest')}")

# Node 2 illustrates the split.  Fewest hops: wait for the direct line
# (1 hop, but you arrive at 15).  Earliest arrival: take the morning
# two-hop (arrive at 5).  Smallest duration: leave at 15 and arrive at
# 15 -- duration 0, because crossings are instantaneous here.
for kind in ("shortest", "foremost", "fastest"):
    steps = witness_journey(g, u, 2, t, kind)
    pretty = " -> ".join(
        f"({g.edges[ei].u},{g.edges[ei].v})@{tc}" for ei, tc in steps
    )
    print(f"  {kind:8s} witness to node 2: {pretty}")
