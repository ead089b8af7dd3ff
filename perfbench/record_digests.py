#!/usr/bin/env python3
"""Write ``digests.json``: sha256 of every workload's outputs at seeds 7 and 11.

A run at seed ``s`` builds the worlds ``run.world_seed(s, i)``; this
stores the report and every artifact of each of them.  The benchmark
checks each operation's output against these digests.
Rerun this only when a change to the program's output is intended::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import gc
import json
import sys

import run

SEEDS = (7, 11)


def main() -> int:
    for path in (str(run.SRC), str(run.HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from layers import artifact_keys

    keys = artifact_keys()
    table = {}
    for workload in run.WORKLOADS:
        worlds = [run.world_seed(seed, index) for seed in SEEDS
                  for index in range(run.MIN_JOBS[workload])]
        for ws in worlds:
            gc.collect()
            job = run.run_job(run.make_config(workload, ws, quick=False))
            outputs = {"report": job.report, **run.sweep(job.result, keys)}
            table.setdefault(workload, {})[str(ws)] = {
                label: run.sha256(text)
                for label, text in sorted(outputs.items())}
            print(f"{workload} world {ws}: report "
                  f"{table[workload][str(ws)]['report'][:12]}", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
