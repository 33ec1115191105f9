"""Workload definitions and the metric registry of the end-to-end benchmark.

A workload is a fixed list of command-line calls into ``dqptwalk.cli.main``.
Only the ``error-mc`` calls take the seed; every other call runs on the
command's default seed, so its outputs do not depend on the benchmark seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# program seeds covered by the committed manifest; benchmark seed n runs the
# error-mc calls with --seed n % MANIFEST_SEEDS
MANIFEST_SEEDS = 64
DEFAULT_SEED = 0

F2 = ("final_theta1=-1/2", "final_theta2=3/8")
F4 = ("final_theta1=-1/3", "final_theta2=1/5", "loss=0.36")
MC = ("mc_samples=1000", "n_steps=7")

PRESET_IDS = ("fig2a", "fig2b", "fig3", "fig4a", "fig4b",
              "mixed-p07", "mixed-p09", "s1", "s2", "s3")
# labels each preset id analyses, one quench spec per label
PRESET_LABELS = {"s2": ("s2-p07", "s2-p09"), "s3": ("s3-a", "s3-b")}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, --set entries and extra flags.

    ``seeded`` calls get ``--seed``; ``quench_specs`` counts the quench specs
    the call analyses (the ``per_quench`` denominator) and ``replayed`` the
    Monte Carlo samples it replays (the ``per_sample`` denominator).
    """

    name: str
    command: str
    sets: tuple = ()
    flags: tuple = ()
    seeded: bool = False
    quench_specs: int = 0
    replayed: int = 0

    def argv(self, out_dir: str, seed: int) -> list:
        args = [self.command, "--out", out_dir, *self.flags]
        for item in self.sets:
            args += ["--set", item]
        if self.seeded:
            args += ["--seed", str(seed)]
        return args

    def key(self, seed: int) -> str:
        """Manifest key: seeded calls have one entry per program seed."""
        return f"{self.name}#seed={seed}" if self.seeded else self.name


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple = field(default_factory=tuple)


WORKLOADS = {
    "mc_errorbars": Workload(
        "mc_errorbars",
        "Monte Carlo error bars: per-sample replay (walk, setting probabilities, "
        "Poisson counts), pure, mixed and lossy Poisson-only branches",
        (
            Call("mc_dtop_F2", "error-mc", F2 + ("quantity=dtop",) + MC,
                 seeded=True, replayed=1000),
            Call("mc_rate_F2_mix07", "error-mc",
                 F2 + ("mix_p=0.7", "quantity=rate_function") + MC,
                 seeded=True, replayed=1000),
            Call("mc_rate_F4", "error-mc", F4 + ("quantity=rate_function",) + MC,
                 seeded=True, replayed=0),
        ),
    ),
    "quench_figures": Workload(
        "quench_figures",
        "coherent quench analysis: Loschmidt field, fixed points, critical "
        "times, dtop traces and CSV/SVG output, no Monte Carlo",
        (
            Call("quench_F2", "quench", F2, quench_specs=1),
            Call("quench_F4", "quench", F4, quench_specs=1),
            Call("dtop_F2", "dtop", F2, quench_specs=1),
            Call("dtop_F4", "dtop", F4, quench_specs=1),
        ) + tuple(
            Call(f"figure_{pid}", "reproduce-figure", (), ("--figure", pid),
                 quench_specs=len(PRESET_LABELS.get(pid, (pid,))))
            for pid in PRESET_IDS
        ),
    ),
    "phase_map": Workload(
        "phase_map",
        "winding phase maps: per-cell scan loop, largest flat CSV and the "
        "heat-map SVG, no quench or measurement code",
        (
            Call("phase_64", "phase-diagram", ("resolution=64",)),
            Call("phase_256_loss02", "phase-diagram",
                 ("resolution=256", "loss=0.2")),
        ),
    ),
}


def program_seed(bench_seed: int) -> int:
    return bench_seed % MANIFEST_SEEDS


# Per-layer metrics, each (metric name, kind, span name or module). "calls"
# and "self_s" come from the spans of one traced function, "module_self_s"
# sums self time over every traced function of a module; the ratio kinds
# divide a span count or size by a per-pass denominator.
def _fn(span, *kinds):
    return [(f"{span}.{kind}", kind, span) for kind in kinds]


LAYER_METRICS = (
    _fn("backend.walk_step", "calls", "self_s", "amps_per_call")
    + _fn("quench.evolve_position", "calls", "self_s")
    + _fn("quench.initial_state", "calls", "per_sample")
    + _fn("floquet.diagonalize", "calls", "self_s")
    + _fn("measurement.perturb_protocol", "calls")
    + _fn("measurement.poisson_counts", "calls", "self_s")
    + _fn("measurement.monte_carlo_errorbars", "self_s")
    + _fn("quench.loschmidt_field", "calls", "per_quench")
    + _fn("analysis.find_fixed_points", "calls", "per_quench", "self_s")
    + _fn("analysis.find_critical", "calls")
    + _fn("analysis.dtop_trace", "calls", "self_s")
    + _fn("analysis.detect_dqpt", "self_s")
    + _fn("analysis.analysis_report", "self_s")
    + _fn("floquet.eigensystem_arrays", "calls", "self_s", "k_per_call")
    + _fn("backend.two_mode_table", "calls", "self_s", "bytes")
    + _fn("backend.phase_increments", "calls")
    + _fn("quench.LoschmidtField.write_csv", "self_s")
    + _fn("quench.PositionEvolution.write_csv", "self_s")
    + _fn("floquet.phase_diagram_scan", "self_s")
    + _fn("floquet.PhaseDiagram.write_csv", "self_s")
    + [("cli.self_s", "module_self_s", "cli"),
       ("svgplot.self_s", "module_self_s", "svgplot"),
       ("trace.coverage", "coverage", None),
       ("trace.overhead", "overhead", None)]
)

UNITS = {
    "calls": "count",
    "self_s": "s",
    "module_self_s": "s",
    "amps_per_call": "amps/call",
    "k_per_call": "k/call",
    "bytes": "computed_bytes",
    "per_quench": "calls/quench",
    "per_sample": "calls/sample",
    "coverage": "ratio",
    "overhead": "ratio",
}

# input size recorded with each span, for the per-call size metrics:
# amplitudes passed to the walk, momenta passed to the eigensolver, and the
# bytes of the complex128 table the two-mode kernel fills
SIZERS = {
    "backend.walk_step": lambda args, kwargs: _size(args[0]),
    "floquet.eigensystem_arrays": lambda args, kwargs: _size(args[2]),
    "backend.two_mode_table": lambda args, kwargs: 16 * _size(args[0]) * _size(args[3]),
}


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= int(d)
        return n
    try:
        return len(x)
    except TypeError:
        return 1
