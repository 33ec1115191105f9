"""Command line front end.

Subcommands: phase-diagram, quench, dtop, error-mc, reproduce-figure. Runs
are configured by a flat key=value file (or JSON object) plus a few flags;
all angles are given as multiples of pi, either rational ("3/8", "-1/2") or
decimal ("0.375"). Every run writes its data files plus one summary.json
carrying the input echo, the file manifest, and headline numbers.

Exit codes: 0 ok, 2 bad configuration, 3 physics-domain failure (closed gap,
symmetry-broken request, trivial quench), 4 output I/O failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import svgplot
from .analysis import QuenchAnalysis, analysis_report
from .errors import ConfigError, PhysicsError, TrivialQuenchError
from .floquet import (
    phase_diagram_scan,
    pt_classify,
    winding_global_berry,
    winding_unitary,
)
from .lattice import MAX_TABLE_ENTRIES, MomentumGrid, TimeGrid, _write_csv
from .measurement import ErrorModel, monte_carlo_errorbars
from .presets import PRESET_IDS, preset
from .quench import QuenchSpec, evolve_position


def parse_pi_value(text) -> float:
    """Angle as a multiple of pi; exact fractions preferred. A value too
    large for a float is refused."""
    try:
        if isinstance(text, (int, float)):
            return float(text) * np.pi
        s = str(text).strip()
        try:
            return float(Fraction(s)) * np.pi
        except (ValueError, ZeroDivisionError):
            pass
        return float(s) * np.pi
    except (ValueError, OverflowError):
        raise ConfigError(f"cannot read {text!r} as a multiple of pi") from None


def load_config(path) -> dict:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"bad JSON config: {err}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("JSON config must be an object")
        return cfg
    out = {}
    for i, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {i} is not key=value: {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


@dataclass
class RunConfig:
    command: str
    options: dict = field(default_factory=dict)
    out_dir: str = "out"
    seed: int = 0
    figure: str | None = None


def _get(cfg, key, default, cast):
    """cfg[key] cast, or default where cfg leaves key out or empty. No key
    takes a bool, which a JSON config can give and every cast would read
    as 0 or 1 (or pi)."""
    if key not in cfg or cfg[key] in ("", None):
        return default
    try:
        if isinstance(cfg[key], bool):
            raise TypeError
        return cast(cfg[key])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"bad value for {key}: {cfg[key]!r}") from None


def _integer(value) -> int:
    """The cast of every integer key: int(value), refusing a number that
    int() would truncate, as a JSON config can give."""
    n = int(value)
    if not isinstance(value, str) and n != value:
        raise ValueError(f"{value!r} is not an integer")
    return n


def _positions(value) -> tuple:
    """error-mc sites: a list of integers, as a JSON config gives, or one
    comma-separated string of them."""
    items = value if isinstance(value, list) else str(value).split(",")
    if not items or any(isinstance(p, bool) for p in items):
        raise ValueError("no positions, or a bool among them")
    return tuple(_integer(p) for p in items)


def _given(cfg, **casts) -> dict:
    """Each key of casts that cfg sets, cast; the callee's signature keeps
    the default of every key that cfg leaves out."""
    values = {key: _get(cfg, key, None, cast) for key, cast in casts.items()}
    return {key: v for key, v in values.items() if v is not None}


def build_spec(cfg) -> QuenchSpec:
    final = tuple(_get(cfg, key, None, parse_pi_value) for key in ("final_theta1", "final_theta2"))
    if None in final:
        raise ConfigError("final_theta1 and final_theta2 are required")
    initial = (_get(cfg, "initial_theta1", np.pi / 4, parse_pi_value),
               _get(cfg, "initial_theta2", -np.pi / 2, parse_pi_value))
    return QuenchSpec(initial, final, **_given(cfg, loss=float, mix_p=float))


def _grids(cfg):
    n_k = _get(cfg, "kpoints", 128, _integer)
    grid, tgrid = MomentumGrid(n_k), TimeGrid(**_given(cfg, t_max=float, dt=float))
    n_t = len(tgrid.samples)
    if n_k * n_t > MAX_TABLE_ENTRIES:
        raise ConfigError(f"kpoints x time samples must be at most {MAX_TABLE_ENTRIES}, "
                          f"got {n_k} x {n_t}")
    return grid, tgrid


def _headline(qa: QuenchAnalysis) -> dict:
    """Windings on the run's momentum grid and the critical set of the run's
    own analysis, so the headline matches the artifacts and report.json."""
    spec = qa.spec
    out: dict = {}
    try:
        if spec.loss == 0:
            out["winding"] = winding_unitary(spec.final_angles, qa.grid)
        else:
            status, _ = pt_classify(spec.final_angles, spec.loss)
            out["pt_status"] = status
            out["winding"] = winding_global_berry(spec.final_angles, spec.loss, qa.grid)
    except PhysicsError:
        out["winding"] = None
    crit = qa.critical
    if isinstance(crit, PhysicsError):
        empty = None if isinstance(crit, TrivialQuenchError) else []
        out.update(dict.fromkeys(("fixed_points", "critical_momenta", "time_scales",
                                  "critical_times"), empty))
    else:
        out.update(crit.as_dict())
    return out


class _Emitter:
    def __init__(self, out_dir):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = []

    def path(self, name):
        self.files.append(name)
        return self.dir / name

    def write_summary(self, config: RunConfig, headline: dict):
        data = {
            "command": config.command,
            "seed": config.seed,
            # outputs do not depend on the thread count, although an
            # order-parameter trace runs on the caller and one helper
            # thread; the key stays so that summary.json keeps its bytes
            # until the next manifest regeneration drops it (ROADMAP item 1)
            "threads": 1,
            "inputs": {k: str(v) for k, v in sorted(config.options.items())},
            "files": list(self.files),
            "headline": headline,
        }
        if config.figure:
            data["figure"] = config.figure
        with open(self.dir / "summary.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        self.files.append("summary.json")


def _write_rate_csv(path, trace):
    _write_csv(path, ["t", "g"], "%.12g,%.12g",
               [zip(trace.times.tolist(), trace.values.tolist(), strict=True)])


def _write_dtop_csv(path, traces):
    _write_csv(path, ["m", "t", "value"], "%d,%.12g,%s", (
        zip([tr.sector] * len(tr.times), tr.times.tolist(),
            [f"{v:.12g}" if math.isfinite(v) else "" for v in tr.values.tolist()], strict=True)
        for tr in traces))


def _dtop_chart(path, traces, t_marks, title):
    svgplot.line_chart(path, [(f"sector {tr.sector}", tr.times, tr.values) for tr in traces],
                       vlines=t_marks, title=title, ylabel="nu_m(t)")


def _quench_products(qa: QuenchAnalysis, em, label):
    """Rate and winding traces, CSVs, and marked-up charts for one quench;
    the winding traces only when the critical search succeeded."""
    trace = qa.rate
    _write_rate_csv(em.path(f"{label}_rate.csv"), trace)
    t_marks = qa.critical_times
    svgplot.line_chart(em.path(f"{label}_rate.svg"),
                       [("g(t)", trace.times, trace.values)],
                       vlines=t_marks, title=f"{label}: return rate",
                       ylabel="g(t)")
    traces = [] if isinstance(qa.critical, PhysicsError) else qa.dtop_traces
    if traces:
        _write_dtop_csv(em.path(f"{label}_dtop.csv"), traces)
        _dtop_chart(em.path(f"{label}_dtop.svg"), traces, t_marks,
                    f"{label}: winding order parameter")


def cmd_phase_diagram(config: RunConfig) -> dict:
    cfg = config.options
    res = _get(cfg, "resolution", 64, _integer)
    loss = _get(cfg, "loss", 0.0, float)
    t1r = (_get(cfg, "theta1_min", -np.pi, parse_pi_value),
           _get(cfg, "theta1_max", np.pi, parse_pi_value))
    t2r = (_get(cfg, "theta2_min", -np.pi, parse_pi_value),
           _get(cfg, "theta2_max", np.pi, parse_pi_value))
    n_k = _get(cfg, "kpoints", 256, _integer)
    pd = phase_diagram_scan(t1r, t2r, res, loss, n_k)
    em = _Emitter(config.out_dir)
    pd.write_csv(em.path("phase_diagram.csv"))
    svgplot.phase_map(em.path("phase_diagram.svg"), pd,
                      title=f"winding map, loss={loss}")
    labeled = pd.winding[~np.isnan(pd.winding)]
    values, counts = np.unique(labeled, return_counts=True)
    headline = {"cells": pd.winding.size,
                "winding_counts": {str(int(v)): int(n) for v, n in zip(values, counts)},
                "unlabeled_cells": pd.winding.size - labeled.size}
    em.write_summary(config, headline)
    return headline


def cmd_quench(config: RunConfig) -> dict:
    cfg = config.options
    spec = build_spec(cfg)
    grid, tgrid = _grids(cfg)
    # the walk comes first: its length check refuses before anything is written
    evo = evolve_position(spec, int(tgrid.t_max))
    qa = QuenchAnalysis(spec, grid, tgrid)
    em = _Emitter(config.out_dir)
    qa.field.write_csv(em.path("loschmidt.csv"))
    evo.write_csv(em.path("field.csv"))
    _quench_products(qa, em, "quench")
    report = analysis_report(qa)
    with open(em.path("report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    headline = _headline(qa)
    em.write_summary(config, headline)
    return headline


def cmd_dtop(config: RunConfig) -> dict:
    cfg = config.options
    spec = build_spec(cfg)
    grid, tgrid = _grids(cfg)
    qa = QuenchAnalysis(spec, grid, tgrid)
    if isinstance(qa.fixed_points, PhysicsError):
        raise qa.fixed_points
    if not qa.dtop_traces:
        raise PhysicsError("no winding sectors: fewer than two fixed points")
    em = _Emitter(config.out_dir)
    _write_dtop_csv(em.path("dtop.csv"), qa.dtop_traces)
    _dtop_chart(em.path("dtop.svg"), qa.dtop_traces, qa.critical_times,
                "winding order parameter")
    headline = _headline(qa)
    em.write_summary(config, headline)
    return headline


# error-mc keys that a quantity never reads
_MC_UNREAD = {"rate_function": ("sector", "positions"), "dtop": ("positions",),
              "pbar": ("kpoints", "sector")}


def cmd_error_mc(config: RunConfig) -> dict:
    cfg = config.options
    quantity = _get(cfg, "quantity", "dtop", str)
    _refuse(f"error-mc quantity={quantity}", set(cfg) & set(_MC_UNREAD.get(quantity, ())))
    spec = build_spec(cfg)
    model = ErrorModel(seed=config.seed, **_given(
        cfg, wp_angle_tol=float, path_loss_tol=float, total_coincidences=_integer,
        dephasing_eta=float, mc_samples=_integer))
    grid = None if quantity == "pbar" else MomentumGrid(_get(cfg, "kpoints", 256, _integer))
    result = monte_carlo_errorbars(spec, quantity, model, grid=grid, **_given(
        cfg, n_steps=_integer, sector=_integer, positions=_positions))
    em = _Emitter(config.out_dir)
    result.write_csv(em.path("errorbars.csv"))
    first = result.rows[0][0] if result.rows else None
    if first:
        svgplot.errorbar_chart(em.path("errorbars.svg"),
                               [(t, c, ep, em_) for q, t, c, ep, em_ in result.rows
                                if q == first],
                               title=f"{first} with Monte Carlo bars",
                               ylabel=first)
    headline = {"quantity": quantity, "n_samples": result.n_samples,
                "max_bar": max((max(r[3], r[4]) for r in result.rows), default=0.0)}
    em.write_summary(config, headline)
    return headline


def cmd_reproduce(config: RunConfig) -> dict:
    if not config.figure:
        raise ConfigError("reproduce-figure needs --figure "
                          f"(one of {', '.join(PRESET_IDS)})")
    runs = preset(config.figure)
    grids = _grids(config.options)
    em = _Emitter(config.out_dir)
    headline: dict = {}
    for label, spec in runs:
        qa = QuenchAnalysis(spec, *grids)
        _quench_products(qa, em, label)
        headline[label] = _headline(qa)
    em.write_summary(config, headline)
    return headline


_SPEC_KEYS = ("initial_theta1", "initial_theta2", "final_theta1", "final_theta2",
              "loss", "mix_p")
_GRID_KEYS = ("kpoints", "t_max", "dt")

# each command with the config keys it reads
_COMMANDS = {
    "phase-diagram": (cmd_phase_diagram, ("resolution", "loss", "kpoints", "theta1_min",
                                          "theta1_max", "theta2_min", "theta2_max")),
    "quench": (cmd_quench, _SPEC_KEYS + _GRID_KEYS),
    "dtop": (cmd_dtop, _SPEC_KEYS + _GRID_KEYS),
    "error-mc": (cmd_error_mc, _SPEC_KEYS + (
        "kpoints", "quantity", "n_steps", "sector", "positions", "wp_angle_tol",
        "path_loss_tol", "total_coincidences", "dephasing_eta", "mc_samples")),
    "reproduce-figure": (cmd_reproduce, _GRID_KEYS),
}


def _refuse(what: str, unread) -> None:
    """Refuse a run given config keys that it would silently ignore."""
    if unread:
        raise ConfigError(f"{what} does not read config key(s) "
                          f"{', '.join(map(str, sorted(unread)))}")


def run(config: RunConfig) -> dict:
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")
    command, keys = _COMMANDS[config.command]
    _refuse(config.command, set(config.options) - set(keys))
    return command(config)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dqptwalk",
        description="split-step walk quench simulator and analyzer")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value or JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--kpoints", type=int, default=None,
                       help="momentum grid size; beats the kpoints config entry")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config entry")
        if name == "reproduce-figure":
            p.add_argument("--figure", choices=PRESET_IDS)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as bail:
        # argparse already printed its message; keep main() returning
        return int(bail.code or 0)
    try:
        cfg = load_config(args.config) if args.config else {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
            k, v = item.split("=", 1)
            cfg[k.strip()] = v.strip()
        if args.kpoints is not None:
            cfg["kpoints"] = args.kpoints
        config = RunConfig(
            command=args.command,
            options=cfg,
            out_dir=args.out,
            seed=args.seed,
            figure=getattr(args, "figure", None),
        )
        run(config)
    except ConfigError as err:
        print(f"error: config: {' '.join(str(err).split())}", file=sys.stderr)
        return 2
    except PhysicsError as err:
        print(f"error: physics: {' '.join(str(err).split())}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: io: {' '.join(str(err).split())}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
