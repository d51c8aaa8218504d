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
* ``average_modularity`` adds the pair terms left to right in
  ``itertools.combinations`` order, and ``powerlaw_exponent`` its log terms
  in degree order, so their floats do not depend on the interpreter
  (``sum()`` of floats is compensated from Python 3.12 on).
* Values undefined on a given footprint come back as NaN, never an error,
  except where a size limit is deliberately enforced (``graph_conductance``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .core import Footprint

#: exhaustive cut enumeration is capped at this node count (2^19 cuts)
EXACT_CONDUCTANCE_LIMIT = 20

#: pair terms per block in ``average_modularity``: bounds its memory, not its value
_PAIR_BLOCK = 1 << 16


class LimitExceededError(ValueError):
    """An internal size cap was hit and no approximation was requested."""


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
    total = 0.0
    for x in f.nodes:
        k = deg[x]
        if k > 1:
            total += _clustering(k, links[x])
    return total / f.num_nodes


def pair_modularity(f: Footprint, u: int, v: int) -> float:
    """Configuration-model null term deg(u)*deg(v) / 2|E|; NaN without edges."""
    du, dv = f.degree(u), f.degree(v)
    m = len(f.undirected_edges())
    if m == 0:
        return math.nan
    return du * dv / (2 * m)


def average_modularity(f: Footprint) -> float:
    """Mean pair modularity over unordered node pairs."""
    d = np.array(degree_sequence(f))
    two_m = int(d.sum())  # twice the undirected edge count
    n = f.num_nodes
    if n < 2 or two_m == 0:
        return math.nan
    # the terms of pair_modularity in combinations order, summed left to
    # right a block of rows at a time; the running total enters each block's
    # first term, so the additions are the same and in the same order
    rows = max(1, _PAIR_BLOCK // n)
    total = 0.0
    for s in range(0, n - 1, rows):
        # entry (a, b) is the pair (s + a, s + 1 + b), a pair when b >= a
        block = d[s : s + rows, None] * d[None, s + 1 :] / two_m
        upper = np.arange(block.shape[1]) >= np.arange(block.shape[0])[:, None]
        terms = block[upper]
        terms[0] += total
        total = np.add.accumulate(terms, out=terms)[-1]
    return float(total) / (n * (n - 1) // 2)


def powerlaw_exponent(degrees: Sequence[int], k_min: int = 1) -> float:
    """Discrete power-law exponent estimate over degrees >= ``k_min``.

    Closed-form approximate MLE: 1 + m / sum(ln(k_i / (k_min - 1/2))).
    Needs at least 10 qualifying degrees and a non-degenerate distribution,
    else NaN.  The approximation is known to be biased for small ``k_min``;
    pick ``k_min >= 5`` when accuracy matters.
    """
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
    s = reduce(add, (math.log(k / (k_min - 0.5)) for k in ks), 0.0)
    return 1.0 + len(ks) / s


def cut_conductance(f: Footprint, side: Iterable[int]) -> float:
    """Conductance of the cut (S, complement): crossing edges over the
    smaller side's degree volume.  NaN if a side has zero volume."""
    s = set(side)
    nodes = set(f.nodes)
    if not s or not nodes - s:
        raise ValueError("both cut sides must be non-empty")
    if not s <= nodes:
        raise ValueError("cut side contains nodes outside the footprint universe")
    deg = f.degrees()
    crossing = sum(1 for u, v in f.undirected_edges() if (u in s) != (v in s))
    vol_s = sum(deg[x] for x in s)
    vol_c = sum(deg[x] for x in nodes - s)
    m = min(vol_s, vol_c)
    if m == 0:
        return math.nan
    return crossing / m


@dataclass(frozen=True)
class ConductanceResult:
    value: float
    exact: bool

    def __float__(self):
        return self.value


def graph_conductance(f: Footprint, approximate: bool = False) -> ConductanceResult:
    """Minimum conductance over all cuts.

    Exhaustive (exact) up to ``EXACT_CONDUCTANCE_LIMIT`` nodes; beyond
    that, returns the spectral sweep-cut upper bound provided
    ``approximate`` was requested, and raises ``LimitExceededError``
    otherwise.
    """
    n = f.num_nodes
    if n < 2:
        return ConductanceResult(math.nan, True)
    if n <= EXACT_CONDUCTANCE_LIMIT:
        return ConductanceResult(_exhaustive_conductance(f), True)
    if not approximate:
        raise LimitExceededError(
            f"{n} nodes exceed the exhaustive limit {EXACT_CONDUCTANCE_LIMIT}; "
            "pass approximate=True for the spectral sweep bound"
        )
    return ConductanceResult(_sweep_cut_bound(f), False)


def _exhaustive_conductance(f: Footprint) -> float:
    n = f.num_nodes
    adj = f.adjacency()
    deg = [b.bit_count() for b in adj]
    vol_total = sum(deg)
    best = math.nan
    full = (1 << n) - 1
    # node n-1 pinned to the complement halves the enumeration
    for mask in range(1, 1 << (n - 1)):
        comp = full ^ mask
        crossing = 0
        vol_s = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            crossing += (adj[i] & comp).bit_count()
            vol_s += deg[i]
            m &= m - 1
        denom = min(vol_s, vol_total - vol_s)
        if denom == 0:
            continue
        phi = crossing / denom
        if math.isnan(best) or phi < best:
            best = phi
    return best


def _sweep_cut_bound(f: Footprint) -> float:
    """Sweep over the second eigenvector of the normalized Laplacian."""
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
    best = math.nan
    side: set[int] = set()
    for i in order[:-1]:
        side.add(nodes[i])
        phi = cut_conductance(f, side)
        if not math.isnan(phi) and (math.isnan(best) or phi < best):
            best = phi
    return best
