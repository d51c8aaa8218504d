"""Batch command-line interface over dated-edge trace files.

Subcommands: ``evolve`` (windowed indicator series), ``query`` (one
journey distance with a witness), ``generate`` (synthetic traces) and
``footprint`` (aggregated edge list over a window).

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import synth, trace_io, windows
from .core import footprint
from .journeys import KINDS, witness_journey
from .static_metrics import LimitExceededError
from .trace_io import TraceFormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_LIMIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tvgkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("input", help="trace file path, or - for stdin")
        p.add_argument("--directed", action="store_true", help="treat edges as directed")
        p.add_argument(
            "--strict",
            action="store_true",
            help="abort on the first malformed trace record instead of skipping it "
            "(skips are counted on stderr)",
        )

    p = sub.add_parser("evolve", help="windowed indicator time series")
    add_input_flags(p)
    p.add_argument("--window", type=int, required=True, help="window length in ticks")
    p.add_argument("--stride", type=int, default=None, help="window stride (default: length)")
    p.add_argument(
        "--indicators",
        default="density",
        help="comma-separated indicator names (default: density)",
    )
    p.add_argument("--kind", choices=KINDS, default="shortest", help="distance kind for temporal indicators")
    p.add_argument("--reducer", choices=windows.REDUCERS, default="mean", help="per-node reducer for temporal indicators (diameter ignores it)")
    p.add_argument("--node-policy", choices=windows.NODE_POLICIES, default="active")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("query", help="journey distance between two named nodes")
    add_input_flags(p)
    p.add_argument("--from", dest="src", required=True, help="source node name")
    p.add_argument("--to", dest="dst", required=True, help="target node name")
    p.add_argument("--at", type=int, required=True, help="query time")
    p.add_argument("--kind", choices=KINDS, default="foremost")

    p = sub.add_parser("generate", help="write a deterministic synthetic trace")
    p.add_argument("kind", choices=synth.KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.add_argument("--nodes", type=int, default=60)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--phase-windows", type=int, default=6)
    p.add_argument("--ticks", type=int, default=100)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--leaves", type=int, default=12)
    p.add_argument("--period", type=int, default=10)
    p.add_argument("--burst", type=int, default=2)

    p = sub.add_parser("footprint", help="aggregated edge list over a window")
    add_input_flags(p)
    p.add_argument("--start", type=int, default=None, help="window start (default: lifetime start)")
    p.add_argument("--end", type=int, default=None, help="window end (default: lifetime end)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default: stdout)")

    return parser


def _read_trace(args) -> trace_io.ParseResult:
    """Parse the input trace; in lenient mode, report skipped records on stderr."""
    try:
        if args.input == "-":
            result = trace_io.parse_trace(sys.stdin, args.directed, args.strict)
        else:
            with open(args.input, encoding="utf-8", newline="") as fh:
                result = trace_io.parse_trace(fh, args.directed, args.strict)
    except OSError as exc:
        raise DataError(f"cannot read {args.input}: {exc}") from exc
    except TraceFormatError as exc:
        raise DataError(str(exc)) from exc
    if result.skipped:
        line, message = result.skipped[0]
        print(
            f"tvgkit: warning: skipped {len(result.skipped)} malformed record(s); "
            f"first at line {line}: {message}",
            file=sys.stderr,
        )
    return result


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _series_csv(names, series_list) -> str:
    lines = ["window_start,window_end," + ",".join(names)]
    for i, (a, b) in enumerate(series_list[0].windows):
        cells = [str(a), str(b)]
        for s in series_list:
            v = s.values[i]
            cells.append("" if math.isnan(v) else repr(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _series_json(names, series_list) -> str:
    rows = []
    for i, (a, b) in enumerate(series_list[0].windows):
        row = {"window_start": a, "window_end": b}
        for name, s in zip(names, series_list):
            v = s.values[i]
            row[name] = None if math.isnan(v) else v
        rows.append(row)
    return json.dumps(rows, indent=2) + "\n"


def cmd_evolve(args) -> int:
    names = [n.strip() for n in args.indicators.split(",") if n.strip()]
    if not names:
        raise UsageError("no indicators requested")
    known = windows.indicator_names()
    for name in names:
        if name not in known:
            raise UsageError(
                f"unknown indicator {name!r}; known: {', '.join(known)}"
            )
    try:
        spec = windows.WindowSpec(args.window, args.stride)
    except ValueError as exc:
        raise UsageError(str(exc))
    result = _read_trace(args)
    series_list = windows.evolve_many(
        result.graph,
        spec,
        names,
        node_policy=args.node_policy,
        kind=args.kind,
        reducer=args.reducer,
    )
    text = (
        _series_csv(names, series_list)
        if args.format == "csv"
        else _series_json(names, series_list)
    )
    _emit(text, args.output)
    return EXIT_OK


def _journey_measure(steps, t: int, kind: str) -> int:
    """The ``kind`` distance a witness journey departing at or after ``t`` achieves."""
    if not steps:
        return 0
    if kind == "shortest":
        return len(steps)
    if kind == "foremost":
        return steps[-1][1] - t
    return steps[-1][1] - steps[0][1]


def cmd_query(args) -> int:
    result = _read_trace(args)
    ids = result.name_to_id
    for name in (args.src, args.dst):
        if name not in ids:
            raise DataError(f"unknown node name {name!r}")
    g = result.graph
    u, v = ids[args.src], ids[args.dst]
    t = args.at
    if t not in g.lifetime:
        raise DataError(
            f"time {t} outside lifetime [{g.lifetime.start},{g.lifetime.end})"
        )
    steps = witness_journey(g, u, v, t, args.kind)
    if steps is None:
        print("unreachable")
        return EXIT_OK
    print(_journey_measure(steps, t, args.kind))
    print(
        " ".join(
            f"({result.names[g.edges[ei].u]},{result.names[g.edges[ei].v]})@{tc}"
            for ei, tc in steps
        )
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        text = synth.generate_trace(
            args.kind,
            seed=args.seed,
            nodes=args.nodes,
            window=args.window,
            phase_windows=args.phase_windows,
            ticks=args.ticks,
            p=args.p,
            leaves=args.leaves,
            period=args.period,
            burst=args.burst,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(text, args.output)
    return EXIT_OK


def cmd_footprint(args) -> int:
    result = _read_trace(args)
    g = result.graph
    a = g.lifetime.start if args.start is None else args.start
    b = g.lifetime.end if args.end is None else args.end
    try:
        f = footprint(g, a, b)
    except ValueError as exc:
        raise DataError(str(exc))
    pairs = sorted(
        (result.names[u], result.names[v]) for u, v in f.edges
    )
    if args.format == "csv":
        text = "u,v\n" + "".join(f"{u},{v}\n" for u, v in pairs)
    else:
        text = json.dumps(
            {"window": [a, b], "edges": [[u, v] for u, v in pairs]}, indent=2
        ) + "\n"
    _emit(text, args.output)
    return EXIT_OK


_COMMANDS = {
    "evolve": cmd_evolve,
    "query": cmd_query,
    "generate": cmd_generate,
    "footprint": cmd_footprint,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"tvgkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"tvgkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LimitExceededError as exc:
        print(f"tvgkit: limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
