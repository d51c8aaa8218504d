"""Atemporal indicators evaluated on a footprint.

Conventions worth knowing:

* ``density`` counts ordered node pairs in the denominator, and for
  undirected footprints counts each edge in both directions, so a complete
  undirected graph has density exactly 1.0.
* On directed footprints, clustering, modularity and conductance operate
  on the underlying undirected simple graph; density respects direction.
* Clustering applies one formula, ``2 * links / (k * (k - 1))``, to the
  footprint's per-node degrees and link counts (``Footprint.degrees`` and
  ``Footprint.links``): the windowed sweep keeps both up to date as edges
  enter and leave the window; a footprint built on its own counts the links
  once from its neighbour bitmasks, visiting each undirected edge once.
* Every mean is correctly rounded, so it does not depend on the order of
  its terms, and so not on node ids or the interpreter:
  ``average_clustering`` and ``powerlaw_exponent`` add their terms with
  ``math.fsum``, and ``average_modularity`` is one integer over another.
* Values undefined on a given footprint come back as NaN, never an error.
* Only the spectral sweep of ``graph_conductance`` (past
  ``EXACT_CONDUCTANCE_LIMIT`` nodes) imports numpy, on first use; the
  other indicators, and importing this module, do not.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import Footprint

#: exhaustive cut enumeration is capped at this node count (2^19 cuts)
EXACT_CONDUCTANCE_LIMIT = 20


class LimitExceededError(ValueError):
    """An internal size or work cap was hit; the CLI exits 3 on it."""


def degree_sequence(f: Footprint) -> list[int]:
    """Per-node degrees of the footprint universe in the undirected view, in ``nodes`` order."""
    d = f.degrees()
    return [d[x] for x in f.nodes]


def density(f: Footprint) -> float:
    """|E| over the number of ordered node pairs; NaN below two nodes."""
    n = f.num_nodes
    if n < 2:
        return math.nan
    m = f.num_edges if f.directed else 2 * f.num_edges
    return m / (n * (n - 1))


def clustering_coefficient(f: Footprint, x: int) -> float:
    """Fraction of ordered neighbour pairs of ``x`` that are adjacent; NaN for deg <= 1."""
    return _clustering(f.degree(x), f.links()[x])


def _clustering(k: int, links: int) -> float:
    if k <= 1:
        return math.nan
    return 2 * links / (k * (k - 1))


def average_clustering(f: Footprint) -> float:
    """Mean clustering over the node universe; deg <= 1 nodes contribute 0."""
    if f.num_nodes == 0:
        return math.nan
    deg, links = f.degrees(), f.links()
    terms = (_clustering(deg[x], links[x]) for x in f.nodes if deg[x] > 1)
    return math.fsum(terms) / f.num_nodes


def pair_modularity(f: Footprint, u: int, v: int) -> float:
    """Configuration-model null term deg(u)*deg(v) / 2|E|; NaN without edges."""
    du, dv = f.degree(u), f.degree(v)
    m = len(f.undirected_edges())
    if m == 0:
        return math.nan
    return du * dv / (2 * m)


def average_modularity(f: Footprint) -> float:
    """Mean pair modularity over unordered node pairs.

    The pairs' ``deg(u) * deg(v)`` add up to ``((sum d)^2 - sum d^2) / 2``,
    so the mean is one integer over another, a correctly rounded division.
    """
    d = degree_sequence(f)
    two_m = sum(d)  # twice the undirected edge count
    n = f.num_nodes
    if n < 2 or two_m == 0:
        return math.nan
    return (two_m * two_m - sum(k * k for k in d)) // 2 / (two_m * (n * (n - 1) // 2))


def powerlaw_exponent(degrees: Sequence[int], k_min: int = 1) -> float:
    """Discrete power-law exponent estimate over degrees >= ``k_min``.

    Closed-form approximate MLE: 1 + m / sum(ln(k_i / (k_min - 1/2))).
    Needs at least 10 qualifying degrees and a non-degenerate distribution,
    else NaN.  The approximation is known to be biased for small ``k_min``;
    pick ``k_min >= 5`` when accuracy matters.
    """
    if k_min < 1:
        raise ValueError(f"k_min must be at least 1, got {k_min}")
    ks = [k for k in degrees if k >= k_min]
    if len(ks) < 10:
        return math.nan
    if len(set(ks)) == 1:
        warnings.warn(
            f"degenerate degree distribution (all degrees = {ks[0]}); "
            "power-law exponent undefined",
            stacklevel=2,
        )
        return math.nan
    return 1.0 + len(ks) / math.fsum(math.log(k / (k_min - 0.5)) for k in ks)


def cut_conductance(f: Footprint, side: Iterable[int]) -> float:
    """Conductance of the cut (S, complement): crossing edges over the
    smaller side's degree volume.  NaN if a side has zero volume."""
    s = set(side)
    nodes = set(f.nodes)
    if not s or not nodes - s:
        raise ValueError("both cut sides must be non-empty")
    if not s <= nodes:
        raise ValueError("cut side contains nodes outside the footprint universe")
    flips = [i for i, x in enumerate(f.nodes) if x in s]
    return _least_conductance(f, deque(_cut_walk(f, flips), maxlen=1))


@dataclass(frozen=True)
class ConductanceResult:
    value: float
    exact: bool

    def __float__(self):
        return self.value


def graph_conductance(f: Footprint) -> ConductanceResult:
    """Minimum conductance over all cuts, and whether it is exact.

    Exhaustive (``exact`` true) up to ``EXACT_CONDUCTANCE_LIMIT`` nodes;
    beyond that, the spectral sweep-cut upper bound (``exact`` false).
    """
    n = f.num_nodes
    if n < 2:
        return ConductanceResult(math.nan, True)
    exact = n <= EXACT_CONDUCTANCE_LIMIT
    if exact:
        # reflected Gray code over positions 0 .. n-2: every non-empty side
        # without node n-1 once, which halves the enumeration
        flips = ((k & -k).bit_length() - 1 for k in range(1, 1 << (n - 1)))
    else:
        flips = _sweep_order(f)
    return ConductanceResult(_least_conductance(f, _cut_walk(f, flips)), exact)


def _cut_walk(f: Footprint, flips: Iterable[int]) -> Iterator[tuple[int, int]]:
    """From an empty side, move the node at each position of ``flips``
    across the cut and yield the side's (crossing edges, volume)."""
    adj = f.adjacency()
    deg = [b.bit_count() for b in adj]
    side = crossing = volume = 0
    for i in flips:
        bit = 1 << i
        sign = -1 if side & bit else 1
        side ^= bit
        crossing += sign * (deg[i] - 2 * (adj[i] & side).bit_count())
        volume += sign * deg[i]
        yield crossing, volume


def _least_conductance(f: Footprint, cuts: Iterable[tuple[int, int]]) -> float:
    """Least crossing / smaller volume over the cuts; NaN if a side of
    every cut has zero volume."""
    total = 2 * len(f.undirected_edges())
    return min(
        (c / min(v, total - v) for c, v in cuts if 0 < v < total), default=math.nan
    )


def _sweep_order(f: Footprint) -> list[int]:
    """Positions by the second eigenvector of the normalized Laplacian,
    without the last: the sides of the sweep cut."""
    import numpy as np

    nodes = f.nodes
    n = len(nodes)
    index = {x: i for i, x in enumerate(nodes)}
    a = np.zeros((n, n))
    for u, v in f.undirected_edges():
        a[index[u], index[v]] = 1.0
        a[index[v], index[u]] = 1.0
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    lap = np.eye(n) - dinv[:, None] * a * dinv[None, :]
    _, vecs = np.linalg.eigh(lap)
    order = np.argsort(vecs[:, 1] * dinv)  # D^{-1/2} back-transform
    # Python ints: a numpy int64 shift overflows past position 63
    return order[:-1].tolist()
