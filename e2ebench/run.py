"""End-to-end benchmark of the dqptwalk command line.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload mc_errorbars --seed 0 --seconds 30 --trace 0
    python3 e2ebench/run.py --all --seed 0

One workload run measures set-up time in fresh interpreters, then starts one
worker process that makes the workload's CLI calls in a closed loop for the
given seconds and checks every output file against the committed manifest.
The last line of standard output is the result as one JSON object. With
``--trace 1`` the result holds the per-layer metrics instead of the
end-to-end ones. ``--all`` runs every workload untraced and prints a table.

Child processes run with OpenBLAS/OpenMP/MKL pinned to one thread, import
the package from the checkout's ``src`` and inherit no ``DQPTWALK_PURE``,
so the kernel backend is whichever a clean checkout imports.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import speed_factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
SETUP_REPEATS = 7
SETUP_PROBES = 50
WORK_DIR = ROOT / ".e2ebench_work"
MANIFEST = HERE / "manifest.json"
CHILD_TIMEOUT_S = 900


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DQPTWALK_PURE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def setup_seconds(env, repeats=SETUP_REPEATS) -> tuple:
    """Seconds from interpreter start to ``dqptwalk.cli`` imported, in fresh
    processes: (median rescaled to the reference machine speed, raw times).

    Each child probes its own speed right after the import (see
    reference.py). One untimed import first writes the bytecode cache, which
    a user pays once per install, not once per run.
    """
    code = ("import time, dqptwalk.cli\n"
            "t = time.monotonic()\n"
            "import sys\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "from reference import probes\n"
            f"print(repr(t), *map(repr, probes({SETUP_PROBES})))\n")
    raw, scaled = [], []
    for i in range(repeats + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"importing dqptwalk.cli failed:\n{done.stderr}")
        t1, *samples = map(float, done.stdout.split())
        if i:
            raw.append(t1 - t0)
            scaled.append((t1 - t0) * speed_factor(samples))
    return statistics.median(scaled), raw


def run_worker(env, workload, seed, seconds, trace, passes=0, manifest=MANIFEST,
               extra=()) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        result = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--passes", str(passes), "--manifest", str(manifest),
               "--work", str(Path(tmp) / "out"), "--result", str(result), *extra]
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0 or not result.is_file():
            raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
        return json.loads(result.read_text())


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (contract result, full worker record)."""
    env = child_env()
    setup, setup_raw = (None, None) if trace else setup_seconds(env)
    extra = ()
    if trace:
        extra = ("--spans", str(WORK_DIR / f"spans_{workload}_seed{seed}.csv"))
    rec = run_worker(env, workload, seed, seconds, trace, extra=extra)
    rec["env"].update(environment())
    if trace:
        metrics = rec["metrics"]
    else:
        rec["setup_s"] = setup
        rec["setup_raw_s"] = setup_raw
        metrics = {
            "wall_s": {"value": rec["wall_s"], "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
    out = {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
           "failed": rec["failed"], "metrics": metrics}
    return out, rec


def print_header(rec):
    print("env: " + json.dumps(rec["env"], sort_keys=True))
    passes = rec["passes"]
    print(f"workload {rec['workload']}: program seed {rec['program_seed']}, "
          + ", ".join(f"{len(v)} {k} passes" for k, v in sorted(passes.items())
                      if "_" not in k)
          + f", {rec['failed']} of {rec['attempted']} calls failed")
    for kind, walls in sorted(passes.items()):
        if not kind.endswith("_elapsed"):
            print(f"  {kind} pass seconds: " + " ".join(f"{w:.3f}" for w in walls))
    if "setup_raw_s" in rec:
        print("  setup raw seconds: " + " ".join(f"{w:.3f}" for w in rec["setup_raw_s"]))
    for f in rec["failures"]:
        print(f"  failed: pass {f['pass']} call {f['call']} exit {f['exit']}")


def run_all(seed, seconds):
    rows = []
    for name in WORKLOADS:
        out, rec = measure(name, seed, seconds, 0)
        print_header(rec)
        m = out["metrics"]
        rows.append((name, m["wall_s"]["value"], len(rec["passes"]["untraced"]),
                     m["setup_s"]["value"], m["peak_rss_mb"]["value"],
                     rec["failed"] / rec["attempted"]))
    print(f"{'workload':<16}{'wall_s (s)':>12}{'passes':>8}{'setup_s (s)':>13}"
          f"{'peak_rss_mb (MB)':>18}{'failed_frac':>13}")
    for name, wall, n, setup, rss, frac in rows:
        print(f"{name:<16}{wall:>12.4f}{n:>8}{setup:>13.4f}{rss:>18.1f}{frac:>13.4f}")
    return 0 if all(r[-1] == 0 for r in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="end-to-end benchmark of the dqptwalk CLI")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", metavar="FILE",
                    help="also write the full run record (passes, calls, env) here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dqptwalk" / "cli.py").is_file():
        print(f"error: no dqptwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not MANIFEST.is_file():
        print(f"error: manifest {MANIFEST} is missing", file=sys.stderr)
        return 1
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if not args.workload:
            ap.error("give --workload or --all")
        out, rec = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print_header(rec)
    if args.save:
        Path(args.save).write_text(json.dumps(rec, indent=1, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
