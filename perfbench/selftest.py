"""Quick self-test of perfbench on toy-sized workloads (about a minute).

    python3 perfbench/selftest.py

For each workload, at toy size, it checks that:

- a clean run is correct and prints every metric of ``BENCHMARK.json``
  with its unit in the result line, and every per-op figure and
  ``error_rate`` by name and unit in the report;
- a run checked against outputs recorded from the clean run stays
  correct, at another seed for the relabelled evolve workloads;
- a deliberately wrong output raises ``error_rate`` and clears ``correct``;
- ops that hit the per-op time cap are counted as failed timeouts;
- a traced run prints every per-layer metric with its unit, and its
  counts repeat from batch to batch.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import sys

import run as R
import workloads as W


def main() -> int:
    with open(os.path.join(R.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(R.ROOT, "src"))
    from tvgkit import synth

    failures = []

    def check(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    check(
        bench["workloads"] == [{"name": w.name, "why": w.why} for w in W.WORKLOADS.values()],
        "BENCHMARK.json lists the workloads with their reasons",
    )
    for name, w in W.TOY_WORKLOADS.items():
        result, lines, runs = R.run_workload(w, 0, 0, trace=False, reference=None, toy=True)
        report = "\n".join(lines)
        check(result["correct"] and result["failed"] == 0, f"{name}: clean run is correct")
        check(
            all(result["metrics"].get(m["name"], {}).get("unit") == m["unit"] for m in bench["end_to_end"])
            and len(result["metrics"]) == len(bench["end_to_end"]),
            f"{name}: result line has exactly the end-to-end metrics, with units",
        )
        if w.evolve_ops:
            printed = [(f"evolve_{op.label}_s", "s") for op in w.evolve_ops]
        else:
            printed = [("query_p50_ms", "ms"), ("query_p98_ms", "ms")] + [
                (f"query_{k}_p50_ms", "ms") for k in W.KINDS
            ]
        printed.append(("error_rate", "ratio"))
        check(
            all(_printed(report, m, u) for m, u in printed),
            f"{name}: report prints {', '.join(m for m, _ in printed)}",
        )

        first = runs[0]["batch"]
        if w.queries_per_kind:
            text = W.make_trace(w, 0, synth.generate_trace)
            reference = {"queries": W.make_queries(w, 0, text), "answers": first["answers"]}
            seed = 0
        else:
            reference, seed = first["outputs"], 1
        result, _, _ = R.run_workload(w, seed, 0, trace=False, toy=True, reference=reference)
        check(result["correct"], f"{name}: seed {seed} matches the recorded outputs")

        result, lines, _ = R.run_workload(w, seed, 0, trace=False, toy=True, reference=reference, fault=True)
        rate = next(line for line in lines if "error_rate" in line).split()[1]
        check(
            not result["correct"] and result["failed"] > 0 and float(rate) > 0,
            f"{name}: a wrong output raises error_rate to {rate}",
        )

        no_time = {op: 1e-6 for op in R.OP_CAPS}
        result, lines, _ = R.run_workload(w, 0, 0, trace=False, reference=None, toy=True, caps=no_time)
        statuses = json.loads(lines[1][len("info "):])["statuses"]
        check(
            result["failed"] == result["attempted"] and set(statuses) == {"timeout"},
            f"{name}: ops that hit the time cap fail as timeouts {statuses}",
        )

        result, lines, runs = R.run_workload(w, 0, 2, trace=True, reference=None, toy=True)
        check(
            {m: (v["unit"]) for m, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in bench["per_layer"]},
            f"{name}: traced run has exactly the per-layer metrics, with units",
        )
        check(result["correct"], f"{name}: traced run is correct")
        check('"counts_repeat": true' in lines[1], f"{name}: per-layer counts repeat")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


def _printed(report: str, metric: str, unit: str) -> bool:
    for line in report.splitlines():
        f = line.split()
        if len(f) >= 3 and f[0] == metric and f[2] == unit:
            return True
    return False


if __name__ == "__main__":
    sys.exit(main())
