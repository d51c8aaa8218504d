"""Record the outputs every later run of perfbench must reproduce.

    python3 perfbench/record_reference.py

Runs one batch of each workload at seed 0, checking only the shape of its
outputs, and writes them to ``perfbench/reference.json``: the CSV of every
evolve invocation and the distance (null when unreachable) of every point
query.  Run it only on a commit whose outputs are trusted; the oracle
tests decide that.
"""

from __future__ import annotations

import json
import os
import sys

import run as R
import workloads as W


def main() -> int:
    sys.path.insert(0, os.path.join(R.ROOT, "src"))
    from tvgkit import synth

    reference = {}
    for w in W.WORKLOADS.values():
        result, _, runs = R.run_workload(w, 0, 0, trace=False, reference=None)
        if not result["correct"]:
            raise SystemExit(f"{w.name}: outputs malformed, nothing recorded")
        batch = runs[0]["batch"]
        if w.queries_per_kind:
            queries = W.make_queries(w, 0, W.make_trace(w, 0, synth.generate_trace))
            reference[w.name] = {"queries": queries, "answers": batch["answers"]}
        else:
            reference[w.name] = batch["outputs"]
        print(f"{w.name}: recorded")
    with open(os.path.join(R.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
