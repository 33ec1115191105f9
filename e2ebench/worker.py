"""Benchmark worker: runs one workload in this process, in a closed loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the BLAS pools pinned. A pass makes every call of the workload once,
one after the other, through ``dqptwalk.cli.main``; passes repeat until the
time budget is spent. Every output file of every call is hashed and checked
against the committed manifest, outside the timed region. The result goes to
the JSON file named by ``--result``.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
carry the span tracer and give the per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    LAYER_METRICS,
    SIZERS,
    UNITS,
    WORKLOADS,
    program_seed,
)


def hash_dir(path: Path) -> dict:
    out = {}
    if not path.is_dir():
        return out
    for f in sorted(path.rglob("*")):
        if f.is_file():
            out[f.relative_to(path).as_posix()] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


class Runner:
    def __init__(self, workload, seed, manifest, work_dir, record=False,
                 only_seeded=False):
        from dqptwalk import cli

        self.cli = cli
        self.pseed = program_seed(seed)
        self.calls = [c for c in workload.calls if c.seeded or not only_seeded]
        self.manifest = manifest
        self.work = work_dir
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.pass_hashes = {}   # pass id -> {manifest key: file hashes}
        self.call_seconds = {}  # call name -> rescaled seconds, untraced passes
        self.meter = SpeedMeter()

    def missing_entries(self):
        return [c.key(self.pseed) for c in self.calls
                if c.key(self.pseed) not in self.manifest]

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except Exception:  # a crash is a failed call, the loop goes on
            traceback.print_exc()
            return None

    def run_pass(self, pass_id, tracer=None):
        """One pass over the workload's calls.

        Returns the summed call seconds: raw, rescaled to the reference
        machine speed (see reference.py), and elapsed including the probes
        that ran inside the calls. Hashing is not timed.
        """
        raw = wall = elapsed = 0.0
        for call in self.calls:
            out = self.work / f"p{pass_id}_{call.name}"
            argv = call.argv(str(out), self.pseed)
            if tracer is not None:
                tracer.pass_id, tracer.call_id = pass_id, call.name
            code, dt_raw, dt = self.meter.time(lambda: self._main(argv))
            raw += dt_raw
            wall += dt
            elapsed += dt_raw + self.meter.probe_s
            if tracer is None:
                self.call_seconds.setdefault(call.name, []).append(dt)
            hashes = hash_dir(out)
            shutil.rmtree(out, ignore_errors=True)
            key = call.key(self.pseed)
            self.pass_hashes.setdefault(pass_id, {})[key] = hashes
            self.attempted += 1
            ok = code == 0 and (self.record or hashes == self.manifest.get(key))
            if not ok:
                self.failed += 1
                self.failures.append({"pass": pass_id, "call": key, "exit": code})
        return raw, wall, elapsed


def layer_metrics(workload, summaries, traced_elapsed, traced_walls, untraced_walls):
    """Per-layer metric values from the per-pass span summaries.

    Spans include the speed probes that land inside them (1-2 % of the
    time), so coverage divides by the elapsed traced pass time, probes
    included; overhead compares rescaled pass times.
    """
    first = summaries[0]
    quench_specs = sum(c.quench_specs for c in workload.calls)
    replayed = sum(c.replayed for c in workload.calls)

    def med(values):
        return statistics.median(values) if values else 0.0

    def stat(span, field, summary=first):
        return summary.get(span, {}).get(field, 0)

    out = {}
    for name, kind, span in LAYER_METRICS:
        if kind == "calls":
            v = stat(span, "calls")
        elif kind == "self_s":
            v = med([stat(span, "self_s", s) for s in summaries])
        elif kind in ("amps_per_call", "k_per_call"):
            calls = stat(span, "calls")
            v = stat(span, "size") / calls if calls else 0.0
        elif kind == "bytes":
            v = stat(span, "size")
        elif kind == "per_quench":
            v = stat(span, "calls") / quench_specs if quench_specs else 0.0
        elif kind == "per_sample":
            v = stat(span, "calls") / replayed if replayed else 0.0
        elif kind == "module_self_s":
            v = med([sum(a["self_s"] for n, a in s.items() if n.startswith(span + "."))
                     for s in summaries])
        elif kind == "coverage":
            v = med([sum(a["self_s"] for a in s.values()) / w
                     for s, w in zip(summaries, traced_elapsed)])
        elif kind == "overhead":
            v = med(traced_walls) / med(untraced_walls) - 1.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[name] = {"value": v, "unit": UNITS[kind]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes (per kind when tracing)")
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="write the traced spans to this CSV")
    ap.add_argument("--record", action="store_true",
                    help="record output hashes instead of checking them")
    ap.add_argument("--only-seeded", action="store_true",
                    help="run only the calls that take the seed")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    manifest = {} if args.record else json.loads(Path(args.manifest).read_text())["calls"]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, manifest, work, args.record, args.only_seeded)
    if not args.record:
        missing = runner.missing_entries()
        if missing:
            print(f"refused: no manifest entry for {', '.join(missing)}", file=sys.stderr)
            return 2

    import numpy
    import scipy
    try:
        from dqptwalk.backend import BACKEND as backend
    except ModuleNotFoundError as err:
        if err.name != "dqptwalk.backend":
            raise
        backend = "none"

    result = {
        "workload": workload.name,
        "program_seed": runner.pseed,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "backend": backend},
    }
    start = time.perf_counter()
    budget = args.seconds

    def more(n_done):
        """Start another pass only if one more is expected to fit the budget."""
        if args.passes:
            return n_done < args.passes
        if n_done == 0:
            return True
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / n_done <= budget

    passes = {}

    def run_pass(kind, pass_id, tracer=None):
        raw, wall, elapsed = runner.run_pass(pass_id, tracer)
        passes.setdefault(kind, []).append(wall)
        passes.setdefault(kind + "_raw", []).append(raw)
        passes.setdefault(kind + "_elapsed", []).append(elapsed)

    if args.trace:
        tracer = Tracer(SIZERS)
        summaries = []
        pass_id = 0
        while more(len(summaries)):
            run_pass("untraced", pass_id)
            pass_id += 1
            tracer.install()
            try:
                run_pass("traced", pass_id, tracer)
            finally:
                tracer.uninstall()
            summaries.append(tracer.summarize(pass_id))
            if len(summaries) == 1:
                result["counts_by_call"] = tracer.counts_by_call(pass_id)
            pass_id += 1
        # passes alternate untraced (even id) and traced (odd id)
        hashes = runner.pass_hashes
        result["traced_bytes_identical"] = all(
            hashes[i] == hashes[i - 1] for i in hashes if i % 2)
        result["metrics"] = layer_metrics(workload, summaries, passes["traced_elapsed"],
                                          passes["traced"], passes["untraced"])
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        while more(len(passes.get("untraced", ()))):
            run_pass("untraced", len(passes.get("untraced", ())))
        result["wall_s"] = statistics.median(passes["untraced"])
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result["passes"] = passes
    result["call_seconds"] = runner.call_seconds
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures)
    if args.record:
        result["hashes"] = runner.pass_hashes[0]
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
