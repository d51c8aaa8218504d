"""One benchmark process: set up tvgkit on a trace, then run one batch of ops.

Usage: ``python3 perfbench/worker.py CONFIG.json``.  The config names the
workload, the trace file, the mode and where to write the JSON result:

- ``setup``: time ``import tvgkit`` + ``parse_trace`` in this fresh process;
- ``run``: set up, then run one batch of the workload, checking every
  output;
- ``traced``: as ``run``, with spans around tvgkit's public functions.

Every op runs under a time cap and before a hard deadline; an op that hits
either is recorded as a timeout.  Everything runs in one thread.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import time
import traceback
from time import perf_counter

import workloads as W

class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in tvgkit swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def op_cap(seconds: float):
    if seconds <= 0:
        raise OpTimeout()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_tvgkit(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import tvgkit

    expected = os.path.join(root, "src", "tvgkit")
    if os.path.dirname(os.path.abspath(tvgkit.__file__)) != os.path.abspath(expected):
        raise ImportError(f"tvgkit imported from {tvgkit.__file__}, not {expected}")
    return tvgkit


class Runner:
    def __init__(self, cfg, tvgkit, parsed, tracer=None):
        self.cfg = cfg
        self.w = (W.TOY_WORKLOADS if cfg["toy"] else W.WORKLOADS)[cfg["workload"]]
        self.tvgkit = tvgkit
        self.parsed = parsed
        self.tracer = tracer
        self.deadline = cfg["deadline"]
        self.caps = cfg["caps"]
        self.reference = cfg.get("reference")
        self.fault = cfg.get("fault", False)
        self.statuses: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        #: time spent checking outputs, kept out of the batch's wall time
        self.check_s = 0.0
        if self.w.queries_per_kind:
            with open(cfg["queries"], encoding="utf-8") as fh:
                queries = json.load(fh)
            ids = parsed.name_to_id
            self.resolved = [(k, ids[a], ids[b], t) for k, a, b, t in queries]
        else:
            with open(cfg["trace"], encoding="utf-8") as fh:
                _, lo, hi, _ = W.trace_summary(fh.read())
            self.windows = {op.label: W.windows_of(lo, hi, op.window, op.stride) for op in self.w.evolve_ops}

    def _cap(self, op: str) -> float:
        return min(self.caps[op], self.deadline - time.time())

    def _status(self, status: str):
        self.statuses[status] = self.statuses.get(status, 0) + 1

    @contextlib.contextmanager
    def _checks(self):
        t0 = perf_counter()
        with self.tracer.paused() if self.tracer else contextlib.nullcontext():
            yield
        self.check_s += perf_counter() - t0

    # ---------------------------------------------------------- evolve

    def evolve_batch(self) -> dict:
        cli = self.tvgkit.cli
        times, outputs = {}, {}
        for i, op in enumerate(self.w.evolve_ops):
            buf = io.StringIO()
            t0 = perf_counter()
            try:
                with op_cap(self._cap("evolve")), contextlib.redirect_stdout(buf):
                    rc = cli.main(op.argv(self.cfg["trace"]))
                status = "ok" if rc == 0 else f"exit {rc}"
            except OpTimeout:
                status = "timeout"
            except Exception:
                status = "exception"
                traceback.print_exc(file=sys.stderr)
            times[op.label] = perf_counter() - t0
            text = buf.getvalue() if status == "ok" else None
            outputs[op.label] = text
            if text is not None and self.fault and i == 0:
                text = _corrupt_first_cell(text)
            ref = self.reference[op.label] if self.reference else None
            with self._checks():
                cells, bad = W.check_evolve(text, op, self.windows[op.label], ref)
            self.attempted += cells
            self.failed += bad
            self._status(status if status != "ok" or not bad else "mismatch")
        return {"op_s": times, "outputs": outputs}

    # ---------------------------------------------------------- queries

    def query_batch(self) -> dict:
        jr = self.tvgkit.journeys
        g = self.parsed.graph
        names = self.parsed.names
        lat = {k: [] for k in W.KINDS}
        answers = []
        out = io.StringIO()  # the query's printed answer, as the CLI prints it
        for i, (kind, u, v, t) in enumerate(self.resolved):
            answer = None
            t0 = perf_counter()
            try:
                with op_cap(self._cap("query")):
                    # what `tvgkit query` does once the trace is parsed
                    if t not in g.lifetime:
                        raise ValueError(f"time {t} outside lifetime")
                    dist = jr.distance_map(g, u, t, kind)
                    if v in dist:
                        steps = jr.witness_journey(g, u, v, t, kind)
                        print(dist[v], file=out)
                        print(
                            " ".join(
                                f"({names[g.edges[ei].u]},{names[g.edges[ei].v]})@{tc}"
                                for ei, tc in steps
                            ),
                            file=out,
                        )
                        answer = (dist[v], steps)
                    else:
                        print("unreachable", file=out)
                status = "ok"
            except OpTimeout:
                status = "timeout"
            except Exception:
                status = "exception"
                traceback.print_exc(file=sys.stderr)
            lat[kind].append(perf_counter() - t0)
            if status == "ok" and self.fault and i == 0:
                answer = (answer[0] + 1, answer[1]) if answer else (0, [])
            with self._checks():
                good = status == "ok" and self.check_answer(i, kind, u, v, t, answer)
            if status == "ok" and not good:
                status = "mismatch"
            self.attempted += 1
            self.failed += not good
            self._status(status)
            answers.append(None if answer is None else answer[0])
        return {"latency_s": lat, "answers": answers}

    def check_answer(self, i, kind, u, v, t, answer) -> bool:
        """The witness is a journey from u to v departing at or after t whose
        hops, arrival delay or duration equal the distance; reachability
        agrees with a foremost search; at seed 0 the distance is the
        recorded one."""
        tk = self.tvgkit
        g = self.parsed.graph
        if self.reference is not None and self.reference["answers"][i] != (
            None if answer is None else answer[0]
        ):
            return False
        reachable = v in tk.journeys.distance_map(g, u, t, "foremost")
        if answer is None:
            return not reachable
        d, steps = answer
        if not reachable or steps is None or not steps:
            return False
        if not tk.journeys.is_journey(g, steps) or steps[0][1] < t:
            return False
        pos = u
        for ei, _ in steps:
            e = g.edges[ei]
            if e.u == pos:
                pos = e.v
            elif not g.directed and e.v == pos:
                pos = e.u
            else:
                return False
        return pos == v and W.journey_measure(kind, steps, t) == d

    # ---------------------------------------------------------- loop

    def measure(self) -> dict:
        """Run one batch; its wall time leaves out the output checks."""
        t0 = perf_counter()
        b = self.query_batch() if self.w.queries_per_kind else self.evolve_batch()
        b["wall_s"] = perf_counter() - t0 - self.check_s
        if self.tracer:
            b["layers"] = self.tracer.layer_metrics(self.cfg["rows"])
        return b


def peak_rss_mb() -> float:
    """This process's peak resident set since exec.

    Not ``ru_maxrss``: Linux carries that across fork and exec, so it would
    report the parent's size whenever the parent is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _corrupt_first_cell(text: str) -> str:
    lines = text.splitlines()
    f = lines[1].split(",")
    f[2] = "0.5" if f[2] in ("", "0.0") else repr(float(f[2]) * 1.5)
    lines[1] = ",".join(f)
    return "\n".join(lines) + "\n"


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)

    t0 = perf_counter()
    tvgkit = import_tvgkit(cfg["root"])
    with open(cfg["trace"], encoding="utf-8", newline="") as fh:
        parsed = tvgkit.parse_trace(fh, False, False)
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s}

    if cfg["mode"] != "setup":
        import numpy
        import tvgkit.cli  # noqa: F401  (the evolve entry point)

        tracer = None
        if cfg["mode"] == "traced":
            from tracer import Tracer

            tracer = Tracer()
            result["patched"] = tracer.install()
        g = parsed.graph
        runner = Runner(cfg, tvgkit, parsed, tracer)
        result.update(
            batch=runner.measure(),
            attempted=runner.attempted,
            failed=runner.failed,
            statuses=runner.statuses,
            peak_rss_mb=peak_rss_mb(),
            numpy=numpy.__version__,
            sizes={
                "rows": cfg["rows"],
                "nodes": g.n,
                "edges": len(g.edges),
                "intervals": sum(len(p.intervals) for p in g.presence),
            },
        )
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
