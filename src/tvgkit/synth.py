"""Deterministic synthetic contact-trace generators.

Each generator returns canonical trace text (see :mod:`tvgkit.trace_io`)
and is byte-reproducible for a fixed seed.  The ``phase-transition`` kind
produces a sparse random contact schedule followed by a clustered one,
giving a visible step up in average clustering and a drop in the fitted
degree power-law exponent at the boundary.
"""

from __future__ import annotations

import random
from itertools import combinations

KINDS = ("phase-transition", "uniform-random", "star-burst")


def generate_trace(
    kind: str,
    seed: int = 0,
    *,
    nodes: int = 60,
    window: int = 10,
    phase_windows: int = 6,
    ticks: int = 100,
    p: float = 0.05,
    leaves: int = 12,
    period: int = 10,
    burst: int = 2,
) -> str:
    """The text of a synthetic trace of the given kind.

    Parameters are per kind: ``phase-transition`` uses nodes/window/
    phase_windows; ``uniform-random`` uses nodes/ticks/p; ``star-burst``
    uses leaves/ticks/period/burst.
    """
    if kind == "phase-transition":
        rows = _phase_transition(seed, nodes, window, phase_windows)
    elif kind == "uniform-random":
        rows = _uniform_random(seed, nodes, ticks, p)
    elif kind == "star-burst":
        rows = _star_burst(leaves, ticks, period, burst)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}; pick one of {KINDS}")
    return "u,v,start\n" + "".join(f"n{u},n{v},{t}\n" for u, v, t in rows)


def _phase_transition(seed: int, n: int, window: int, phase_windows: int):
    """Sparse random punctual contacts, then clique-structured ones.

    Phase two uses cliques of mixed sizes so that the degree distribution
    stays non-degenerate and its fitted exponent drops below phase one's.
    """
    if n < 20 or window < 2 or phase_windows < 1:
        raise ValueError("phase-transition needs nodes >= 20, window >= 2, phase_windows >= 1")
    rng = random.Random(seed)
    rows = []
    boundary = phase_windows * window
    # phase one: a thin random pairing per window, heavy in degree-1 nodes
    all_nodes = list(range(n))
    for w in range(phase_windows):
        t0 = w * window
        pairs = set()
        while len(pairs) < n // 2:
            u, v = rng.sample(all_nodes, 2)
            pairs.add((min(u, v), max(u, v)))
        for u, v in sorted(pairs):
            rows.append((u, v, t0 + rng.randrange(window)))
    # phase two: disjoint cliques of sizes cycling over 4..8
    cliques = []
    sizes = [4, 5, 6, 7, 8]
    i = 0
    while i < n:
        size = min(sizes[len(cliques) % len(sizes)], n - i)
        if size >= 2:
            cliques.append(list(range(i, i + size)))
        i += size
    for w in range(phase_windows):
        t0 = boundary + w * window
        for clique in cliques:
            for u, v in combinations(clique, 2):
                rows.append((u, v, t0 + rng.randrange(window)))
    return rows


def _uniform_random(seed: int, n: int, ticks: int, p: float):
    if n < 2 or ticks < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("uniform-random needs nodes >= 2, ticks >= 1, 0 <= p <= 1")
    rng = random.Random(seed)
    rows = []
    for t in range(ticks):
        for u, v in combinations(range(n), 2):
            if rng.random() < p:
                rows.append((u, v, t))
    return rows


def _star_burst(leaves: int, ticks: int, period: int, burst: int):
    if leaves < 1 or ticks < 1 or period < 1 or burst < 1:
        raise ValueError("star-burst needs positive leaves, ticks, period, burst")
    rows = []
    for t0 in range(0, ticks, period):
        for t in range(t0, min(t0 + burst, ticks)):
            for leaf in range(1, leaves + 1):
                rows.append((0, leaf, t))
    return rows
