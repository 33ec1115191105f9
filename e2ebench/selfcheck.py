"""Self-checks of the benchmark itself.

    python3 e2ebench/selfcheck.py [--seed N]

1. Per-layer counts are equal across two traced runs of each workload.
2. Traced and untraced passes write byte-identical outputs.
3. trace.coverage is at least 0.9 on every workload.
4. A corrupted manifest entry is reported as a failed call.
5. A seed with no manifest entry is refused.

It also prints the per-call counts of the spans the benchmark doc quotes.
Exits non-zero if any check fails.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import MANIFEST, WORK_DIR, child_env, run_worker
from workloads import WORKLOADS, program_seed

MIN_COVERAGE = 0.9
QUOTED = (("quench_F2", "quench.loschmidt_field"),
          ("quench_F2", "analysis.find_fixed_points"),
          ("mc_dtop_F2", "quench.initial_state"),
          ("mc_dtop_F2", "backend.walk_step"))


def check(ok, what, problems):
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        problems.append(what)


def traced_checks(env, seed, problems):
    for name in WORKLOADS:
        a = run_worker(env, name, seed, 0, 1, passes=1)
        b = run_worker(env, name, seed, 0, 1, passes=1)
        check(a["failed"] == 0 and b["failed"] == 0,
              f"{name}: every traced and untraced call matches the manifest", problems)
        check(a["counts_by_call"] == b["counts_by_call"],
              f"{name}: per-layer counts equal across two traced runs", problems)
        check(a["traced_bytes_identical"] and b["traced_bytes_identical"],
              f"{name}: traced outputs byte-identical to untraced", problems)
        cov = a["metrics"]["trace.coverage"]["value"]
        check(cov >= MIN_COVERAGE, f"{name}: trace.coverage {cov:.4f} >= {MIN_COVERAGE}",
              problems)
        for call, span in QUOTED:
            if call in a["counts_by_call"]:
                n = a["counts_by_call"][call].get(span, 0)
                print(f"      {call}: {n} {span} calls")


def manifest_checks(env, seed, problems):
    data = json.loads(MANIFEST.read_text())
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        bad = Path(tmp) / "corrupt.json"
        files = data["calls"]["phase_64"]
        first = sorted(files)[0]
        files[first] = "0" * 64
        bad.write_text(json.dumps(data))
        rec = run_worker(env, "phase_map", seed, 0, 0, passes=1, manifest=bad)
        check(rec["failed"] == 1 and rec["failures"][0]["call"] == "phase_64",
              "a corrupted manifest entry counts as a failed call", problems)

        data = json.loads(MANIFEST.read_text())
        data["calls"].pop(f"mc_rate_F4#seed={program_seed(seed)}")
        bad.write_text(json.dumps(data))
        try:
            run_worker(env, "mc_errorbars", seed, 0, 0, passes=1, manifest=bad)
        except RuntimeError:
            refused = True
        else:
            refused = False
        check(refused, "a seed with no manifest entry is refused", problems)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="self-checks of the e2e benchmark")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    env = child_env()
    problems = []
    manifest_checks(env, args.seed, problems)
    traced_checks(env, args.seed, problems)
    print(f"{len(problems)} check(s) failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
