"""Workload definitions, input generation and output checks for perfbench.

Nothing here imports tvgkit at module level: the worker times
``import tvgkit`` itself, so this module must stay light.  Input
generation receives ``tvgkit.synth.generate_trace`` as an argument.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

KINDS = ("shortest", "foremost", "fastest")

#: relative tolerance for float cells; a reordered float sum stays inside it
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class EvolveOp:
    """One ``tvgkit evolve`` invocation; ``label`` names its timing."""

    label: str
    window: int
    stride: int | None
    indicators: tuple[str, ...]
    kind: str | None = None

    def argv(self, trace_path: str) -> list[str]:
        args = ["evolve", trace_path, "--window", str(self.window)]
        if self.stride is not None:
            args += ["--stride", str(self.stride)]
        args += ["--indicators", ",".join(self.indicators)]
        if self.kind is not None:
            args += ["--kind", self.kind]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    params: dict = field(hash=False)
    evolve_ops: tuple[EvolveOp, ...] = ()
    #: point queries per distance kind (0 for the evolve workloads)
    queries_per_kind: int = 0


STATIC_OP = EvolveOp(
    "static", 50, 5, ("density", "avg_clustering", "avg_modularity", "powerlaw")
)
TEMPORAL_INDICATORS = ("closeness", "diameter", "betweenness")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "static-sweep",
            "parsing, footprint construction and static indicators do all the work; journeys none",
            "uniform-random",
            dict(seed=1, nodes=200, ticks=1000, p=0.002),
            evolve_ops=(STATIC_OP,),
        ),
        Workload(
            "temporal-evolve",
            "many small window subgraphs with all-pairs route counting; parsing and footprints negligible",
            "phase-transition",
            dict(seed=7, nodes=20),
            evolve_ops=tuple(
                EvolveOp(k, 10, None, TEMPORAL_INDICATORS, kind=k) for k in KINDS
            ),
        ),
        Workload(
            "point-queries",
            "single-source searches plus witnesses on one graph built once; no windows or route counts",
            "uniform-random",
            dict(seed=1, nodes=40, ticks=100, p=0.01),
            queries_per_kind=200,
        ),
    )
}

#: toy-sized variants for the self-test: same code paths, seconds not minutes
TOY_WORKLOADS = {
    "static-sweep": Workload(
        "static-sweep", "toy", "uniform-random",
        dict(seed=1, nodes=30, ticks=60, p=0.02),
        evolve_ops=(EvolveOp("static", 20, 5, STATIC_OP.indicators),),
    ),
    "temporal-evolve": Workload(
        "temporal-evolve", "toy", "phase-transition",
        dict(seed=7, nodes=20, phase_windows=1),
        evolve_ops=tuple(
            EvolveOp(k, 10, None, ("closeness", "diameter"), kind=k) for k in KINDS
        ),
    ),
    "point-queries": Workload(
        "point-queries", "toy", "uniform-random",
        dict(seed=1, nodes=12, ticks=30, p=0.05),
        queries_per_kind=10,
    ),
}

#: evolve columns whose values are integers and must match exactly
INTEGER_INDICATORS = frozenset({"diameter"})


# --------------------------------------------------------------- inputs


def make_trace(w: Workload, seed: int, generate_trace) -> str:
    """Trace text of workload ``w`` at benchmark seed ``seed``.

    Seed 0 is the workload's trace exactly as generated; another seed gives
    an isomorphic copy: node names permuted, endpoints swapped and rows
    shuffled.  The evolve workloads' cost depends on the contact times
    (fastest betweenness varies by about 20% across generator seeds at 20
    nodes), so every seed does the same work there, and every evolve output
    can be checked against the seed-0 reference, since windowed aggregates
    do not depend on node names or row order.  For point-queries the seed
    also draws the queries (see make_queries).
    """
    text = generate_trace(w.generator, **w.params)
    return text if seed == 0 else relabel(text, seed)


def relabel(text: str, seed: int) -> str:
    header, *rows = text.splitlines()
    rows = [r.split(",") for r in rows]
    names = sorted({r[0] for r in rows} | {r[1] for r in rows})
    rng = random.Random(seed)
    renamed = names[:]
    rng.shuffle(renamed)
    rename = dict(zip(names, renamed))
    out = []
    for u, v, *rest in rows:
        u, v = rename[u], rename[v]
        if rng.random() < 0.5:
            u, v = v, u
        out.append(",".join([u, v, *rest]))
    rng.shuffle(out)
    return header + "\n" + "".join(r + "\n" for r in out)


def trace_summary(text: str) -> tuple[list[str], int, int, int]:
    """(sorted node names, lifetime start, lifetime end, rows) of a generated
    trace, whose rows are punctual contacts ``u,v,start``; computed without
    tvgkit, so that the queries do not depend on how it numbers nodes."""
    rows = [r.split(",") for r in text.splitlines()[1:]]
    names = sorted({f[0] for f in rows} | {f[1] for f in rows})
    times = [int(f[2]) for f in rows]
    return names, min(times), max(times) + 1, len(rows)


def make_queries(w: Workload, seed: int, text: str) -> list[list]:
    """``[kind, src, dst, t]`` per query, kinds in rotation.

    Query times are stratified: each kind gets the same evenly spaced
    times over the lifetime, in a seeded order, because the start time
    drives the cost of a search far more than the endpoints do.  The
    endpoints are two distinct nodes drawn from the seed.
    """
    names, lo, hi, _ = trace_summary(text)
    rng = random.Random(seed)
    q = w.queries_per_kind
    per_kind = []
    for _ in KINDS:
        ts = [lo + (j * (hi - lo)) // q for j in range(q)]
        rng.shuffle(ts)
        per_kind.append([rng.sample(names, 2) + [t] for t in ts])
    return [
        [kind] + per_kind[k][i] for i in range(q) for k, kind in enumerate(KINDS)
    ]


def windows_of(lo: int, hi: int, length: int, stride: int | None) -> list[tuple[int, int]]:
    """Window bounds as the evolve output should list them."""
    stride = length if stride is None else stride
    out, s = [], lo
    while s < hi:
        out.append((s, min(s + length, hi)))
        if out[-1][1] >= hi:
            break
        s += stride
    return out


# --------------------------------------------------------------- checks


def parse_series_csv(text: str) -> tuple[list[str], list[tuple[int, int]], list[list[float]]]:
    """(indicator names, windows, rows of cells) of ``evolve`` CSV output."""
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[:2] != ["window_start", "window_end"]:
        raise ValueError(f"unexpected header {lines[0]!r}")
    wins, rows = [], []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != len(header):
            raise ValueError(f"row has {len(f)} fields, header {len(header)}")
        wins.append((int(f[0]), int(f[1])))
        rows.append([math.nan if c == "" else float(c) for c in f[2:]])
    return header[2:], wins, rows


def cell_matches(got: float, want: float, integer: bool) -> bool:
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    if integer:
        return got == want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_evolve(
    text: str | None, op: EvolveOp, windows: list[tuple[int, int]], reference: str | None
) -> tuple[int, int]:
    """(cells attempted, cells wrong) for one evolve invocation's output.

    ``text`` is None when the invocation failed: all its cells fail.  With
    a reference every cell must match it; without one the output must at
    least list the expected windows and indicators with parseable cells.
    """
    cells = len(windows) * len(op.indicators)
    if text is None:
        return cells, cells
    try:
        names, wins, rows = parse_series_csv(text)
    except ValueError:
        return cells, cells
    if names != list(op.indicators) or wins != windows:
        return cells, cells
    if reference is None:
        return cells, 0
    ref_names, ref_wins, ref_rows = parse_series_csv(reference)
    if ref_names != names or ref_wins != wins:
        raise ValueError(f"reference for {op.label} does not fit its windows")
    bad = 0
    for got_row, want_row in zip(rows, ref_rows):
        for name, got, want in zip(names, got_row, want_row):
            bad += not cell_matches(got, want, name in INTEGER_INDICATORS)
    return cells, bad


def journey_measure(kind: str, steps: list, t: int) -> int:
    """Hops, arrival delay after ``t`` or duration of a non-empty journey."""
    if kind == "shortest":
        return len(steps)
    if kind == "foremost":
        return steps[-1][1] - t
    return steps[-1][1] - steps[0][1]


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the number of samples above it."""
    s = sorted(values)
    i = max(0, math.ceil(p / 100 * len(s)) - 1)
    return s[i], len(s) - 1 - i
