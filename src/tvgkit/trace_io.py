"""Reading and writing dated-edge trace files.

Trace format: UTF-8 CSV with LF line endings and header
``u,v,start[,end][,label]``.  Timestamps are raw integer ticks; a missing
end column makes a record a punctual contact ``[start, start+1)``.  A
record may have fewer fields than the header (at least three), but not
more.  Node names are arbitrary text, interned to dense integer ids in
order of first appearance.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, TextIO, Union

from .core import Lifetime, TimeVaryingGraph, _collector_paused, build_tvg

HEADERS = (
    ["u", "v", "start"],
    ["u", "v", "start", "end"],
    ["u", "v", "start", "end", "label"],
)


class TraceFormatError(ValueError):
    """Malformed trace input; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class ParseResult:
    graph: TimeVaryingGraph
    names: list[str]
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}


@_collector_paused
def parse_trace(
    source: Union[str, TextIO, Iterable[str]],
    directed: bool = False,
    strict: bool = True,
) -> ParseResult:
    """Parse a trace into a TVG plus the node name table.

    ``strict`` aborts on the first malformed record; otherwise bad records
    are skipped and reported in ``ParseResult.skipped``.  A record the csv
    reader cannot split (a field over its size limit, say) raises in both
    modes, since the reader cannot resume after it.  Parsing, graph
    building included, runs with the cyclic garbage collector paused, and
    leaves it enabled or disabled as it found it, also when it raises.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    header = None
    ids: dict[str, int] = {}  # in order of first appearance
    ticks: dict[int, int] = {}  # one int object per distinct tick
    # the valid records, one column each
    us: list[int] = []
    vs: list[int] = []
    starts: list[int] = []
    ends: list[int] = []
    labels: list[Optional[str]] = []
    first, last = math.inf, -math.inf  # the hull of the intervals read
    skipped: list[tuple[int, str]] = []

    def bad(line_no: int, msg: str):
        if strict:
            raise TraceFormatError(line_no, msg)
        skipped.append((line_no, msg))

    next_line = 1  # a record starts on the line after the last one read
    try:
        for row in reader:
            line_no, next_line = next_line, reader.line_num + 1
            row = list(map(str.strip, row))
            if not any(row):
                continue
            if header is None:
                if row not in [list(h) for h in HEADERS]:
                    raise TraceFormatError(
                        line_no, f"expected header u,v,start[,end][,label], got {','.join(row)}"
                    )
                header = row
                continue
            if len(row) < 3:
                bad(line_no, f"expected at least 3 fields, got {len(row)}")
                continue
            if len(row) > len(header):
                bad(line_no, f"{len(row)} fields, but the header has {len(header)}")
                continue
            u_name, v_name = row[0], row[1]
            label = row[4] if len(row) == 5 and row[4] else None
            try:
                start = int(row[2])
            except ValueError:
                bad(line_no, f"non-integer start {row[2]!r}")
                continue
            if len(row) >= 4 and row[3]:
                try:
                    end = int(row[3])
                except ValueError:
                    bad(line_no, f"non-integer end {row[3]!r}")
                    continue
            else:
                end = start + 1  # punctual contact
            if start >= end:
                bad(line_no, f"inverted interval [{start},{end})")
                continue
            if not u_name or not v_name:
                bad(line_no, "empty node name")
                continue
            if u_name == v_name:
                bad(line_no, f"self-loop on {u_name!r}")
                continue
            us.append(ids.setdefault(u_name, len(ids)))
            vs.append(ids.setdefault(v_name, len(ids)))
            starts.append(ticks.setdefault(start, start))
            ends.append(ticks.setdefault(end, end))
            labels.append(label)
            if start < first:
                first = start
            if end > last:
                last = end
    except csv.Error as exc:  # only the reader raises it
        raise TraceFormatError(next_line, str(exc)) from exc

    if header is None:
        raise TraceFormatError(0, "empty input")
    if not us:
        raise TraceFormatError(0, "no valid records")
    events = zip(us, vs, starts, ends, labels)
    graph = build_tvg(len(ids), directed, Lifetime(first, last), events)
    return ParseResult(graph, list(ids), skipped)


def write_trace(g: TimeVaryingGraph, names: Optional[list[str]] = None) -> str:
    """Canonical trace text for ``g``: one row per edge presence interval,
    sorted; parses back to an equal graph (given every node has an edge
    and the lifetime is the hull of the intervals).  Rows are CSV, so a
    name or label with a comma, a double quote or a line break is quoted;
    other fields are written bare, unless some name or label holds a
    carriage return: then every field is quoted."""
    if names is None:
        names = [str(i) for i in range(g.n)]
    has_labels = any(e.label for e in g.edges)
    rows = []
    for e, p in zip(g.edges, g.presence):
        for a, b in p.intervals:
            row = [names[e.u], names[e.v], str(a), str(b)]
            if has_labels:
                row.append(e.label or "")
            rows.append(row)
    rows.sort(key=lambda r: (r[0], r[1], int(r[2]), int(r[3])))
    # the writer quotes a field with a "\n" (its line terminator) but not
    # one with a bare "\r", which ends the record on reading
    bare_cr = any("\r" in x for x in chain(names, (e.label or "" for e in g.edges)))
    buf = io.StringIO()
    writer = csv.writer(
        buf, lineterminator="\n", quoting=csv.QUOTE_ALL if bare_cr else csv.QUOTE_MINIMAL
    )
    writer.writerow(HEADERS[2 if has_labels else 1])
    writer.writerows(rows)
    return buf.getvalue()
