"""Regenerate the output manifest the benchmark checks every call against.

    python3 e2ebench/make_manifest.py

Runs every workload once on program seed 0 and the seeded (error-mc) calls
on every other program seed, two worker processes at a time, and writes the
sha256 of every output file to ``e2ebench/manifest.json``. The manifest pins
the outputs of the commit it was generated from; regenerating it is a change
to the benchmark, never part of a change that claims a speed-up.
"""
from __future__ import annotations

import concurrent.futures
import json
import sys

from run import MANIFEST, child_env, git_commit, run_worker
from workloads import DEFAULT_SEED, MANIFEST_SEEDS, WORKLOADS

WORKERS = 2


def main() -> int:
    env = child_env()
    jobs = [(name, DEFAULT_SEED, ()) for name in WORKLOADS]
    jobs += [(name, seed, ("--only-seeded",))
             for seed in range(MANIFEST_SEEDS) if seed != DEFAULT_SEED
             for name, w in WORKLOADS.items() if any(c.seeded for c in w.calls)]
    calls = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS) as pool:
        futures = [pool.submit(run_worker, env, name, seed, 0, 0, 1, MANIFEST,
                               ("--record",) + extra)
                   for name, seed, extra in jobs]
        for fut in futures:
            rec = fut.result()
            if rec["failed"]:
                print(f"error: calls failed: {rec['failures']}", file=sys.stderr)
                return 1
            calls.update(rec["hashes"])
    data = {"generated_from": git_commit(), "program_seeds": MANIFEST_SEEDS,
            "calls": dict(sorted(calls.items()))}
    MANIFEST.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(calls)} call entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
