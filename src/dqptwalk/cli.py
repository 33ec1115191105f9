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
import csv
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import svgplot
from .analysis import (
    analysis_report,
    find_critical,
    find_fixed_points,
    dtop_trace,
    rate_function,
)
from .errors import ConfigError, PhysicsError, TrivialQuenchError
from .floquet import (
    phase_diagram_scan,
    pt_classify,
    winding_global_berry,
    winding_unitary,
)
from .lattice import MomentumGrid, TimeGrid
from .measurement import ErrorModel, monte_carlo_errorbars
from .presets import PRESET_IDS, preset
from .quench import QuenchSpec, evolve_position, loschmidt_field


def parse_pi_value(text) -> float:
    """Angle as a multiple of pi; exact fractions preferred."""
    if isinstance(text, (int, float)):
        return float(text) * np.pi
    s = str(text).strip()
    try:
        return float(Fraction(s)) * np.pi
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return float(s) * np.pi
    except ValueError:
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
    threads: int = 1
    kpoints: int | None = None
    figure: str | None = None


def _get(cfg, key, default=None, cast=None):
    if key not in cfg or cfg[key] in ("", None):
        return default
    v = cfg[key]
    if cast is None:
        return v
    try:
        return cast(v)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key}: {cfg[key]!r}") from None


def build_spec(cfg) -> QuenchSpec:
    if "final_theta1" not in cfg or "final_theta2" not in cfg:
        raise ConfigError("final_theta1 and final_theta2 are required")
    initial = (parse_pi_value(cfg.get("initial_theta1", "1/4")),
               parse_pi_value(cfg.get("initial_theta2", "-1/2")))
    final = (parse_pi_value(cfg["final_theta1"]), parse_pi_value(cfg["final_theta2"]))
    loss = _get(cfg, "loss", 0.0, float)
    mix_p = _get(cfg, "mix_p", None, float)
    regime = cfg.get("regime")
    if not regime:
        regime = "nonunitary" if loss else ("mixed" if mix_p is not None else "pure")
    return QuenchSpec(initial, final, loss=loss, regime=regime, mix_p=mix_p)


def _grids(cfg, config: RunConfig, default_k=128):
    n_k = config.kpoints or _get(cfg, "kpoints", default_k, int)
    t_max = _get(cfg, "t_max", 7.0, float)
    dt = _get(cfg, "dt", 0.01, float)
    return MomentumGrid(n_k), TimeGrid(t_max, dt)


def _headline(spec: QuenchSpec) -> dict:
    out: dict = {}
    try:
        if spec.is_unitary:
            out["winding"] = winding_unitary(spec.final_angles)
        else:
            status, _ = pt_classify(spec.final_angles, spec.loss)
            out["pt_status"] = status
            out["winding"] = (winding_global_berry(spec.final_angles, spec.loss)
                              if status == "unbroken" else None)
    except PhysicsError:
        out["winding"] = None
    try:
        crit = find_critical(spec)
    except TrivialQuenchError:
        out["fixed_points"] = None
        out["critical_momenta"] = None
        out["time_scales"] = None
    except PhysicsError:
        out["fixed_points"] = []
        out["critical_momenta"] = []
        out["time_scales"] = []
    else:
        out["fixed_points"] = [{"k": p.k, "kind": p.kind}
                               for p in crit.fixed_points.points]
        out["critical_momenta"] = [c.k for c in crit.criticals]
        out["time_scales"] = [float(t) for t in crit.time_scales]
        out["critical_times"] = [float(t) for t in crit.critical_times]
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
            "threads": config.threads,
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "g"])
        for t, g in zip(trace.times, trace.values):
            w.writerow([f"{t:.12g}", f"{g:.12g}"])


def _write_dtop_csv(path, traces):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "t", "value"])
        for tr in traces:
            for t, v in zip(tr.times, tr.values):
                w.writerow([tr.sector, f"{t:.12g}",
                            "" if not np.isfinite(v) else f"{v:.12g}"])


def _quench_products(spec, grid, tgrid, em, label):
    """Rate and winding traces, CSVs, and marked-up charts for one quench."""
    field_ = loschmidt_field(spec, grid, tgrid)
    trace = rate_function(field_)
    _write_rate_csv(em.path(f"{label}_rate.csv"), trace)

    try:
        crit = find_critical(spec, grid, t_max=float(tgrid.samples[-1]))
        t_marks = [float(t) for t in crit.critical_times]
        fps = crit.fixed_points
        segs = fps.segments()
    except (TrivialQuenchError, PhysicsError):
        t_marks, fps, segs = [], None, []

    svgplot.line_chart(em.path(f"{label}_rate.svg"),
                       [("g(t)", trace.times, trace.values)],
                       vlines=t_marks, title=f"{label}: return rate",
                       ylabel="g(t)")
    traces = []
    if segs:
        for m in range(1, len(segs) + 1):
            traces.append(dtop_trace(spec, m, tgrid.samples, fixed_points=fps))
        _write_dtop_csv(em.path(f"{label}_dtop.csv"), traces)
        svgplot.line_chart(em.path(f"{label}_dtop.svg"),
                           [(f"sector {tr.sector}", tr.times, tr.values)
                            for tr in traces],
                           vlines=t_marks, title=f"{label}: winding order parameter",
                           ylabel="nu_m(t)")
    return trace, traces, t_marks


def cmd_phase_diagram(config: RunConfig) -> dict:
    cfg = config.options
    res = _get(cfg, "resolution", 64, int)
    loss = _get(cfg, "loss", 0.0, float)
    t1r = (parse_pi_value(cfg.get("theta1_min", "-1")),
           parse_pi_value(cfg.get("theta1_max", "1")))
    t2r = (parse_pi_value(cfg.get("theta2_min", "-1")),
           parse_pi_value(cfg.get("theta2_max", "1")))
    n_k = config.kpoints or _get(cfg, "kpoints", 256, int)
    pd = phase_diagram_scan(t1r, t2r, res, loss, n_k, config.threads)
    em = _Emitter(config.out_dir)
    pd.write_csv(em.path("phase_diagram.csv"))
    svgplot.phase_map(em.path("phase_diagram.svg"), pd,
                      title=f"winding map, loss={loss}")
    counts: dict = {}
    boundary = 0
    for c in pd.cells:
        if c.winding is None:
            boundary += 1
        else:
            counts[str(c.winding)] = counts.get(str(c.winding), 0) + 1
    headline = {"cells": len(pd.cells), "winding_counts": counts,
                "unlabeled_cells": boundary}
    em.write_summary(config, headline)
    return headline


def cmd_quench(config: RunConfig) -> dict:
    cfg = config.options
    spec = build_spec(cfg)
    grid, tgrid = _grids(cfg, config)
    em = _Emitter(config.out_dir)
    field_ = loschmidt_field(spec, grid, tgrid)
    field_.write_csv(em.path("loschmidt.csv"))
    evo = evolve_position(spec, int(round(tgrid.t_max)))
    evo.write_csv(em.path("field.csv"))
    _quench_products(spec, grid, tgrid, em, "quench")
    report = analysis_report(spec, grid, tgrid)
    with open(em.path("report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    headline = _headline(spec)
    em.write_summary(config, headline)
    return headline


def cmd_dtop(config: RunConfig) -> dict:
    cfg = config.options
    spec = build_spec(cfg)
    grid, tgrid = _grids(cfg, config)
    em = _Emitter(config.out_dir)
    fps = find_fixed_points(spec, grid)
    segs = fps.segments()
    if not segs:
        raise PhysicsError("no winding sectors: fewer than two fixed points")
    traces = [dtop_trace(spec, m, tgrid.samples, fixed_points=fps)
              for m in range(1, len(segs) + 1)]
    _write_dtop_csv(em.path("dtop.csv"), traces)
    try:
        crit = find_critical(spec, grid, t_max=float(tgrid.samples[-1]),
                             fixed_points=fps)
        t_marks = [float(t) for t in crit.critical_times]
    except PhysicsError:
        t_marks = []
    svgplot.line_chart(em.path("dtop.svg"),
                       [(f"sector {tr.sector}", tr.times, tr.values)
                        for tr in traces],
                       vlines=t_marks, title="winding order parameter",
                       ylabel="nu_m(t)")
    headline = _headline(spec)
    em.write_summary(config, headline)
    return headline


def cmd_error_mc(config: RunConfig) -> dict:
    cfg = config.options
    spec = build_spec(cfg)
    quantity = cfg.get("quantity", "dtop")
    model = ErrorModel(
        wp_angle_tol=_get(cfg, "wp_angle_tol", np.deg2rad(0.1), float),
        path_loss_tol=_get(cfg, "path_loss_tol", 0.02, float),
        total_coincidences=_get(cfg, "total_coincidences", 40000, int),
        dephasing_eta=_get(cfg, "dephasing_eta", 0.97, float),
        mc_samples=_get(cfg, "mc_samples", 1000, int),
        seed=config.seed,
    )
    n_steps = _get(cfg, "n_steps", 7, int)
    sector = _get(cfg, "sector", 1, int)
    positions = tuple(int(p) for p in str(cfg.get("positions", "0")).split(","))
    grid = MomentumGrid(config.kpoints or _get(cfg, "kpoints", 256, int))
    result = monte_carlo_errorbars(spec, quantity, model, n_steps=n_steps,
                                   sector=sector, positions=positions, grid=grid)
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
    cfg = config.options
    em = _Emitter(config.out_dir)
    headline: dict = {}
    for label, spec in runs:
        grid, tgrid = _grids(cfg, config)
        _quench_products(spec, grid, tgrid, em, label)
        headline[label] = _headline(spec)
    em.write_summary(config, headline)
    return headline


_COMMANDS = {
    "phase-diagram": cmd_phase_diagram,
    "quench": cmd_quench,
    "dtop": cmd_dtop,
    "error-mc": cmd_error_mc,
    "reproduce-figure": cmd_reproduce,
}


# the only command that splits its work over threads
_THREADED = ("phase-diagram",)


def run(config: RunConfig) -> dict:
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.threads < 1:
        raise ConfigError("threads must be at least 1")
    if config.threads != 1 and config.command not in _THREADED:
        raise ConfigError(f"{config.command} runs on one thread; --threads "
                          f"applies only to {', '.join(_THREADED)}")
    return _COMMANDS[config.command](config)


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
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (phase-diagram only)")
        p.add_argument("--kpoints", type=int, default=None,
                       help="momentum grid size override")
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
        config = RunConfig(
            command=args.command,
            options=cfg,
            out_dir=args.out,
            seed=args.seed,
            threads=args.threads,
            kpoints=args.kpoints,
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
