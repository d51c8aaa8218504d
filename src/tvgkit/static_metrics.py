"""Atemporal indicators evaluated on a footprint.

Conventions worth knowing:

* ``density`` counts ordered node pairs in the denominator, and for
  undirected footprints counts each edge in both directions, so a complete
  undirected graph has density exactly 1.0.
* On directed footprints, clustering, modularity and conductance operate
  on the underlying undirected simple graph; density respects direction.
* Values undefined on a given footprint come back as NaN, never an error,
  except where a size limit is deliberately enforced (``graph_conductance``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .core import Footprint

#: exhaustive cut enumeration is capped at this node count (2^19 cuts)
EXACT_CONDUCTANCE_LIMIT = 20


class LimitExceededError(ValueError):
    """An internal size cap was hit and no approximation was requested."""


def degree_sequence(f: Footprint) -> list[int]:
    """Per-node degrees of the footprint universe (in+out summed when directed)."""
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
    nb = f.neighbors(x)
    k = len(nb)
    if k <= 1:
        return math.nan
    # each adjacent neighbour pair is seen from both of its ends
    links = sum(len(nb & f.neighbors(u)) for u in nb) // 2
    return 2 * links / (k * (k - 1))


def average_clustering(f: Footprint) -> float:
    """Mean clustering over the node universe; deg <= 1 nodes contribute 0."""
    if f.num_nodes == 0:
        return math.nan
    total = 0.0
    for x in f.nodes:
        c = clustering_coefficient(f, x)
        if not math.isnan(c):
            total += c
    return total / f.num_nodes


def pair_modularity(f: Footprint, u: int, v: int) -> float:
    """Configuration-model null term deg(u)*deg(v) / 2|E|; NaN without edges."""
    m = len(f.undirected_edges())
    if m == 0:
        return math.nan
    return f.degree(u) * f.degree(v) / (2 * m)


def average_modularity(f: Footprint) -> float:
    """Mean pair modularity over unordered node pairs."""
    m = len(f.undirected_edges())
    if f.num_nodes < 2 or m == 0:
        return math.nan
    # the terms of pair_modularity, summed in the same pair order
    two_m = 2 * m
    deg = degree_sequence(f)
    n = len(deg)
    return sum(du * dv / two_m for du, dv in combinations(deg, 2)) / (n * (n - 1) // 2)


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
    s = sum(math.log(k / (k_min - 0.5)) for k in ks)
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


def graph_conductance(
    f: Footprint, max_exact: int = EXACT_CONDUCTANCE_LIMIT, approximate: bool = False
) -> ConductanceResult:
    """Minimum conductance over all cuts.

    Exhaustive (exact) up to ``max_exact`` nodes; beyond that, returns the
    spectral sweep-cut upper bound provided ``approximate`` was requested,
    and raises otherwise.
    """
    n = f.num_nodes
    if n < 2:
        return ConductanceResult(math.nan, True)
    if n <= max_exact:
        return ConductanceResult(_exhaustive_conductance(f), True)
    if not approximate:
        raise LimitExceededError(
            f"{n} nodes exceed the exhaustive limit {max_exact}; "
            "pass approximate=True for the spectral sweep bound"
        )
    return ConductanceResult(_sweep_cut_bound(f), False)


def _exhaustive_conductance(f: Footprint) -> float:
    nodes = f.nodes
    n = len(nodes)
    index = {x: i for i, x in enumerate(nodes)}
    adj = [0] * n
    deg = [0] * n
    for u, v in f.undirected_edges():
        iu, iv = index[u], index[v]
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
        deg[iu] += 1
        deg[iv] += 1
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
            crossing += bin(adj[i] & comp).count("1")
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
