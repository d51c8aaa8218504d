"""Why aggregating time away can lie to you.

A footprint collects every edge that was present at least once during a
window.  A path in the footprint does *not* imply a journey in the
underlying time-varying graph: the edges may have existed in the wrong
order.  This is the canonical pitfall of static snapshots of dynamic
networks.
"""

from tvgkit import Lifetime, build_tvg, distance_map, footprint

# Edge (1,2) lives early, edge (0,1) only later.  The footprint over the
# whole lifetime is the path 0-1-2, but nobody starting at node 0 can
# ever reach node 2: by the time 0 can talk to 1, the 1-2 link is gone.
g = build_tvg(
    3,
    False,
    Lifetime(0, 8),
    [
        (0, 1, 5, 6),
        (1, 2, 1, 2),
    ],
)

f = footprint(g, 0, 8)
print(f"footprint edges over [0,8): {sorted(f.edges)}")

reach = distance_map(g, 0, 0, "foremost")
print(f"nodes reachable from 0 by journey: {sorted(reach)}")
assert 2 not in reach, "no journey can reorder time"

# The reverse direction works fine: 2 -> 1 at t=1, then 1 -> 0 at t=5.
print(f"nodes reachable from 2 by journey: {sorted(distance_map(g, 2, 0, 'foremost'))}")
