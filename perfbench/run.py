"""perfbench: a layered benchmark of tvgkit on seeded, generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is ``static-sweep``, ``temporal-evolve``, ``point-queries`` or
``all``.  The benchmark generates the workload's trace from the seed with
``tvgkit.synth`` (timed in no metric), then measures tvgkit from source
under ``src/`` in fresh child processes, one closed-loop client in one
thread, numpy/BLAS pinned to one thread:

- ``--trace 0``: end-to-end metrics.  Batches of the workload run one
  after another, each in a fresh process, for about ``--seconds``.
  ``setup_s`` is the median over fresh processes, spread over the run, of
  ``import tvgkit`` + ``parse_trace``; ``wall_s`` the median batch time
  after set-up; ``peak_rss_mb`` the median peak RSS of a batch process.
  The per-op figures (``evolve_<kind>_s``, ``query_*_ms``) and
  ``error_rate`` are printed by name and unit above the result line.
- ``--trace 1``: per-layer metrics from a traced process (see tracer.py),
  and the tracing overhead against an untraced process.

Every output is checked; failed ops count against those attempted.  The
last line of standard output is the JSON result.  Scratch files go to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402

BLAS_PIN = {
    v: "1"
    for v in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
#: set-up-only workers after each batch
SETUPS_PER_BATCH = 2
#: every run ends within this many seconds of its start
RUN_LIMIT_S = 160.0
#: per-op time caps in seconds; an op that hits its cap fails as a timeout
OP_CAPS = {"evolve": 60.0, "query": 5.0}


class BenchError(Exception):
    pass


def spawn(cfg: dict, tag: str) -> dict:
    """Run one worker process on ``cfg`` and return its JSON result."""
    cfg_path = os.path.join(WORK, f"{tag}.config.json")
    cfg["out"] = os.path.join(WORK, f"{tag}.out.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    env = {**os.environ, **BLAS_PIN, "PYTHONHASHSEED": "0"}
    timeout = max(1.0, cfg["deadline"] - time.time() + 10)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), cfg_path],
            env=env,
            stdout=sys.stderr,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag} worker killed after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited with {proc.returncode}")
    with open(cfg["out"], encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(w: W.Workload, seed: int, queries) -> dict | None:
    """Recorded outputs the run must reproduce, or None.

    The evolve workloads' outputs do not depend on the seed (see
    workloads.make_trace); point-query answers are recorded at seed 0.
    """
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)[w.name]
    if not w.queries_per_kind:
        return ref
    if seed != 0:
        return None
    if ref["queries"] != queries:
        raise BenchError("seed-0 queries differ from the recorded ones")
    return ref


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
    }


def git_sha() -> str:
    """HEAD's commit read from ``.git``, or ``unknown`` outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(
    w: W.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict | None | str = "recorded",
    toy: bool = False,
    fault: bool = False,
    caps: dict = OP_CAPS,
) -> tuple[dict, list[str], list[dict]]:
    """Measure one workload; returns the result object, the report lines
    and the raw worker results.

    ``reference`` holds the outputs to reproduce: ``"recorded"`` loads them
    from reference.json, None checks only the shape of the outputs.
    """
    from tvgkit import synth

    deadline = time.time() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    tag = f"{w.name}-s{seed}"
    text = W.make_trace(w, seed, synth.generate_trace)
    trace_path = os.path.join(WORK, f"{tag}.csv")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    _, lo, hi, rows = W.trace_summary(text)
    queries = W.make_queries(w, seed, text) if w.queries_per_kind else None
    queries_path = None
    if queries:
        queries_path = os.path.join(WORK, f"{tag}.queries.json")
        with open(queries_path, "w", encoding="utf-8") as fh:
            json.dump(queries, fh)
    if reference == "recorded":
        reference = load_reference(w, seed, queries)
    base = dict(
        root=ROOT, workload=w.name, toy=toy, trace=trace_path, queries=queries_path,
        rows=rows, deadline=deadline, reference=reference, caps=caps,
    )

    info = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    info.update(environment())
    # Each batch runs in a fresh worker; extra set-up-only workers go between
    # batches, so that set-up samples spread over the whole run.  Batches
    # start while the next one should end within half a batch of `seconds`.
    modes = ("run", "traced") if trace else ("run",)
    done = {mode: [] for mode in modes}
    setups = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            n = len(done[mode])
            cfg = {**base, "mode": mode, "fault": fault and n == 0}
            done[mode].append(spawn(cfg, f"{tag}-{mode}{n}"))
        if not trace:
            setups.append(done["run"][-1]["setup_s"])
            for i in range(SETUPS_PER_BATCH):
                setups.append(spawn({**base, "mode": "setup"}, f"{tag}-setup{i}")["setup_s"])
        cycle = time.perf_counter() - t0
        if time.perf_counter() - start + cycle / 2 > seconds or time.time() + cycle > deadline:
            break
    runs = [r for mode in modes for r in done[mode]]
    if trace:
        metrics, notes = layer_report(done["run"], done["traced"])
        extras = {}
        info["patched"] = done["traced"][0]["patched"]
    else:
        metrics, extras, notes = end_to_end_report(w, setups, done["run"])
    info["numpy"] = runs[0]["numpy"]
    info["sizes"] = dict(runs[0]["sizes"])
    if queries:
        info["sizes"]["queries"] = len(queries)
    else:
        info["sizes"]["windows"] = {
            op.label: len(W.windows_of(lo, hi, op.window, op.stride)) for op in w.evolve_ops
        }
    info["statuses"] = {}
    for r in runs:
        for k, v in r["statuses"].items():
            info["statuses"][k] = info["statuses"].get(k, 0) + v
    info["notes"] = notes

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines = [f"== {w.name} seed={seed} seconds={seconds} trace={int(trace)}"]
    lines.append("info " + json.dumps(info, sort_keys=True))
    lines.append(f"  {'error_rate':<44} {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    for k, (v, u) in {**metrics, **extras}.items():
        lines.append(f"  {k:<44} {v:.6g} {u}")
    if trace:
        from tracer import SHOULD_MOVE

        lines += [f"  # {layer} -> {moves}" for layer, moves in SHOULD_MOVE]
    if not toy:
        with open(os.path.join(WORK, f"{tag}-t{int(trace)}.result.json"), "w", encoding="utf-8") as fh:
            json.dump({"info": info, "result": result, "runs": runs}, fh)
    return result, lines, runs


def end_to_end_report(w: W.Workload, setups: list[float], runs: list[dict]):
    """(metrics of the result line, per-op figures printed above it, notes)."""
    batches = [r["batch"] for r in runs]
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([b["wall_s"] for b in batches]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in runs]), "MB"),
    }
    notes = {"setup_samples": len(setups), "batches": len(batches)}
    extras = {}
    if w.evolve_ops:
        for op in w.evolve_ops:
            extras[f"evolve_{op.label}_s"] = (median([b["op_s"][op.label] for b in batches]), "s")
    else:
        lat = {k: [x for b in batches for x in b["latency_s"][k]] for k in W.KINDS}
        pooled = [x for k in W.KINDS for x in lat[k]]
        p98, beyond = W.percentile(pooled, 98)
        extras["query_p50_ms"] = (median(pooled) * 1e3, "ms")
        extras["query_p98_ms"] = (p98 * 1e3, "ms")
        notes["query_samples"] = len(pooled)
        notes["query_p98_samples_beyond"] = beyond
        for k in W.KINDS:
            extras[f"query_{k}_p50_ms"] = (median(lat[k]) * 1e3, "ms")
            notes[f"query_{k}_samples"] = len(lat[k])
    return metrics, extras, notes


def layer_report(plain: list[dict], traced: list[dict]):
    batches = [r["batch"] for r in traced]
    first = batches[0]["layers"]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "count":
            metrics[name] = (value, unit)
        else:
            metrics[name] = (median([b["layers"][name][0] for b in batches]), unit)
    traced_wall = median([b["wall_s"] for b in batches])
    plain_wall = median([r["batch"]["wall_s"] for r in plain])
    metrics["tracing.overhead_s"] = (traced_wall - plain_wall, "s")
    notes = {
        "traced_batches": len(batches),
        "untraced_batches": len(plain),
        "counts_repeat": all(
            b["layers"][k] == v for b in batches for k, v in first.items() if v[1] == "count"
        ),
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import tvgkit.synth  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import tvgkit from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result, lines, _ = run_workload(W.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
