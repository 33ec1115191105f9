import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqptwalk import analysis, cli, floquet, measurement, quench
from dqptwalk.errors import ConfigError
from dqptwalk.floquet import MAX_RESOLUTION
from dqptwalk.lattice import MAX_MOMENTA, MomentumGrid, TimeGrid
from dqptwalk.presets import PRESET_IDS, preset


def test_parse_pi_value():
    assert cli.parse_pi_value("1/4") == pytest.approx(np.pi / 4)
    assert cli.parse_pi_value("-1/2") == pytest.approx(-np.pi / 2)
    assert cli.parse_pi_value("3/8") == pytest.approx(3 * np.pi / 8)
    assert cli.parse_pi_value("0.25") == pytest.approx(np.pi / 4)
    assert cli.parse_pi_value("0") == 0.0
    with pytest.raises(ConfigError):
        cli.parse_pi_value("a lot")
    with pytest.raises(ConfigError):
        cli.parse_pi_value("1/0")
    # values no float holds
    for text in ("1e400", "1" + "0" * 400 + "/3", 10 ** 400):
        with pytest.raises(ConfigError, match="as a multiple of pi"):
            cli.parse_pi_value(text)


def test_load_config_json(tmp_path):
    f = tmp_path / "c.json"
    f.write_text('{"final_theta1": "-1/2", "n_k": 64}')
    cfg = cli.load_config(f)
    assert cfg["final_theta1"] == "-1/2"
    assert cfg["n_k"] == 64


def test_load_config_keyvalue(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("# demo run\nfinal_theta1 = -1/2\nfinal_theta2=3/8\n\nloss=0\n")
    cfg = cli.load_config(f)
    assert cfg["final_theta1"] == "-1/2"
    assert cfg["loss"] == "0"


def test_load_config_bad_line(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("just words\n")
    with pytest.raises(ConfigError):
        cli.load_config(f)


def test_build_spec_regime_inference():
    s = cli.build_spec({"final_theta1": "-1/2", "final_theta2": "3/8"})
    assert s.regime == "pure"
    s = cli.build_spec({"final_theta1": "-1/3", "final_theta2": "1/5",
                        "loss": "0.36"})
    assert s.regime == "nonunitary" and s.loss == pytest.approx(0.36)
    s = cli.build_spec({"final_theta1": "-1/2", "final_theta2": "3/8",
                        "mix_p": "0.7"})
    assert s.regime == "mixed" and s.mix_p == pytest.approx(0.7)


def run_main(args):
    return cli.main([str(a) for a in args])


def test_quench_writes_products(tmp_path):
    out = tmp_path / "q"
    rc = run_main(["quench", "--set", "final_theta1=-1/2",
                   "--set", "final_theta2=3/8", "--kpoints", 64,
                   "--out", out])
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"summary.json", "loschmidt.csv", "field.csv", "report.json",
            "quench_rate.csv", "quench_rate.svg"} <= names
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "quench"
    assert "timestamp" not in json.dumps(summary).lower()
    assert summary["headline"]["winding"] == -2
    report = json.loads((out / "report.json").read_text())
    assert len(report["fixed_points"]) == 4


def test_missing_angles_is_usage_error(capsys):
    rc = run_main(["quench"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: config:")
    assert "\n" not in err


def test_unreadable_angle_is_usage_error(capsys):
    rc = run_main(["quench", "--set", "final_theta1=huh",
                   "--set", "final_theta2=1/4"])
    assert rc == 2
    assert "error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("angle", ["1e400", "1" + "0" * 400 + "/3"])
def test_angle_too_large_for_a_float_is_usage_error(tmp_path, capsys, angle):
    out = tmp_path / "x"
    rc = run_main(["quench", "--set", f"final_theta1={angle}",
                   "--set", "final_theta2=1/4", "--out", out])
    assert rc == 2
    assert "error: config:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["quench", "--set", "t_max=nan"],
    ["quench", "--set", "t_max=inf"],
    ["dtop", "--set", "dt=nan"],
    ["quench", "--set", "t_max=1e300"],
    ["dtop", "--set", "t_max=1e7", "--set", "dt=1e-3"],
    ["error-mc", "--set", "quantity=pbar", "--set", "positions=a"],
])
def test_unreadable_value_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "x"
    rc = run_main(argv + ["--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                          "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    "wp_angle_tol=nan", "wp_angle_tol=inf", "wp_angle_tol=4", "path_loss_tol=nan",
    "path_loss_tol=1e308", "path_loss_tol=1", "path_loss_tol=1.5"])
def test_unusable_noise_tolerance_is_usage_error(tmp_path, capsys, setting):
    out = tmp_path / "mc"
    rc = run_main(["error-mc", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--set", "mc_samples=100", "--set", "n_steps=2", "--set", setting,
                   "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: config: {setting.split('=')[0]}")
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("dtop", "kpoints", 32.9), ("dtop", "kpoints", True), ("dtop", "kpoints", 1e400),
    ("phase-diagram", "resolution", 32.5), ("phase-diagram", "kpoints", False),
    ("error-mc", "mc_samples", 100.5), ("error-mc", "n_steps", 2.2),
    ("error-mc", "sector", True), ("error-mc", "total_coincidences", 40000.5),
])
def test_non_integral_integer_key_is_usage_error(tmp_path, capsys, command, key, value):
    """An integer key in a JSON config is refused unless it is a whole
    number, where int() would truncate it, read true as 1 or overflow."""
    cfg = {"final_theta1": "-1/2", "final_theta2": "3/8", "t_max": 2}
    if command == "phase-diagram":
        cfg = {"resolution": 32}
    elif command == "error-mc":
        cfg |= {"mc_samples": 100, "n_steps": 2}
        del cfg["t_max"]
    path = tmp_path / "cfg.json"
    # json.dumps writes 1e400 as Infinity, which json.loads reads back
    path.write_text(json.dumps(cfg | {key: value}))
    out = tmp_path / "x"
    assert run_main([command, "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: bad value for {key}")
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("dtop", "mix_p"), ("dtop", "t_max"), ("dtop", "final_theta1"),
    ("phase-diagram", "loss"), ("phase-diagram", "theta1_min"),
    ("phase-diagram", "resolution"),
    ("error-mc", "wp_angle_tol"), ("error-mc", "initial_theta1"), ("error-mc", "mc_samples"),
    ("error-mc", "quantity"),
])
def test_boolean_value_is_usage_error(tmp_path, capsys, command, key):
    """No config key takes a JSON true, which a float key would read as 1
    and an angle key as pi."""
    cfg = {"final_theta1": "-1/2", "final_theta2": "3/8", "t_max": 2}
    if command == "phase-diagram":
        cfg = {"resolution": 32}
    elif command == "error-mc":
        cfg = {"final_theta1": "-1/2", "final_theta2": "3/8", "mc_samples": 100,
               "n_steps": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg | {key: True}))
    out = tmp_path / "x"
    assert run_main([command, "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: bad value for {key}: True")
    assert not out.exists()


@pytest.mark.parametrize("settings", [
    ["final_theta2=3/8", "n_steps=2", "total_coincidences=10000000000000000000"],
    # a PT-broken lossy walk, whose unnormalized probabilities grow with the steps
    ["final_theta2=0.45", "loss=0.9", "n_steps=40"],
])
def test_counts_numpy_cannot_draw_are_usage_error(tmp_path, capsys, settings):
    out = tmp_path / "mc"
    argv = ["error-mc", "--set", "final_theta1=-1/2", "--set", "quantity=pbar",
            "--set", "mc_samples=100", "--out", out]
    for item in settings:
        argv += ["--set", item]
    with np.errstate(all="ignore"):
        assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "total_coincidences" in err and "n_steps" in err
    assert not out.exists()


def test_empty_angle_is_unset():
    """An empty angle value takes the default, as any empty key does."""
    assert cli.build_spec({"final_theta1": "-1/2", "final_theta2": "3/8",
                           "initial_theta1": ""}) == cli.build_spec(
        {"final_theta1": "-1/2", "final_theta2": "3/8"})
    with pytest.raises(ConfigError, match="required"):
        cli.build_spec({"final_theta1": "-1/2", "final_theta2": ""})


def test_empty_quantity_is_unset(tmp_path):
    """An empty error-mc quantity takes the default, dtop, as any empty key does."""
    argv = ["error-mc", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
            "--set", "mc_samples=100", "--set", "n_steps=2", "--set", "kpoints=32"]
    assert run_main([*argv, "--set", "quantity=", "--out", tmp_path / "empty"]) == 0
    assert run_main([*argv, "--out", tmp_path / "unset"]) == 0
    assert (tmp_path / "empty" / "errorbars.csv").read_bytes() == \
        (tmp_path / "unset" / "errorbars.csv").read_bytes()
    summaries = (json.loads((tmp_path / d / "summary.json").read_text()) for d in ("empty", "unset"))
    assert next(summaries)["headline"] == next(summaries)["headline"]


def test_whole_number_integer_key_runs(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"final_theta1": "-1/2", "final_theta2": "3/8",
                                "t_max": 2, "kpoints": 32.0}))
    assert run_main(["dtop", "--config", path, "--out", tmp_path / "x"]) == 0


@pytest.mark.parametrize("command", ["error-mc", "quench"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "x"
    rc = run_main([command, "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--seed", -1, "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not out.exists()


def test_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, dqptwalk.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_odd_kpoints_rejected(tmp_path):
    rc = run_main(["quench", "--set", "final_theta1=-1/2",
                   "--set", "final_theta2=3/8", "--kpoints", 15,
                   "--out", tmp_path / "x"])
    assert rc == 2


@pytest.mark.parametrize("kpoints", ["8", "0", "15"])
def test_phase_diagram_kpoints_not_clamped(tmp_path, capsys, kpoints):
    # too few or odd momenta: refused before anything is written, as quench does
    out = tmp_path / "pd"
    rc = run_main(["phase-diagram", "--set", "resolution=32", "--set", f"kpoints={kpoints}",
                   "--out", out])
    assert rc == 2
    assert "n_points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, first_step", [
    (["phase-diagram", "--set", f"resolution={MAX_RESOLUTION + 1}"], (floquet, "alpha_beta")),
    (["phase-diagram", "--set", "resolution=32", "--set", f"kpoints={MAX_MOMENTA + 2}"],
     (floquet, "alpha_beta")),
    (["quench", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
      "--kpoints", MAX_MOMENTA + 2], (cli, "evolve_position")),
    # each grid fits, but one (n_k, n_t) table would take 1.8 GB
    (["quench", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
      "--kpoints", MAX_MOMENTA, "--set", "dt=0.001"], (cli, "evolve_position")),
    (["reproduce-figure", "--figure", "fig2a", "--kpoints", MAX_MOMENTA,
      "--set", "dt=0.001"], (cli, "QuenchAnalysis")),
    # walks whose step history would take about 640 GB and 4 GB
    (["quench", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
      "--kpoints", 16, "--set", "t_max=100000", "--set", "dt=1"], (quench, "walk_step")),
    (["error-mc", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
      "--set", "n_steps=1000"], (quench, "walk_step")),
])
def test_oversized_grid_is_usage_error(tmp_path, capsys, monkeypatch, argv, first_step):
    def started(*args):
        raise AssertionError("a run started")

    # refused by the size check alone: a run that got past it fails at its
    # first step
    monkeypatch.setattr(*first_step, started)
    out = tmp_path / "x"
    assert run_main(argv + ["--out", out]) == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


def test_quench_stops_at_t_max(tmp_path):
    # neither the time grid nor the integer-step walk runs past t_max
    out = tmp_path / "q"
    rc = run_main(["quench", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--kpoints", 32, "--set", "t_max=2.6", "--set", "dt=0.5", "--out", out])
    assert rc == 0
    field = (out / "field.csv").read_text().splitlines()[1:]
    grid = (out / "loschmidt.csv").read_text().splitlines()[1:]
    assert max(float(row.split(",")[0]) for row in field) == 2
    assert max(float(row.split(",")[1]) for row in grid) == 2.5


def test_kpoints_flag_is_the_kpoints_option(tmp_path):
    # the flag beats the config file and --set, and is echoed like them
    cfg = tmp_path / "run.cfg"
    cfg.write_text("final_theta1=-1/2\nfinal_theta2=3/8\nkpoints=15\n")
    out = tmp_path / "q"
    rc = run_main(["quench", "--config", cfg, "--set", "kpoints=17", "--kpoints", 32,
                   "--set", "t_max=1", "--set", "dt=0.5", "--out", out])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["inputs"]["kpoints"] == "32"
    rows = (out / "loschmidt.csv").read_text().splitlines()[1:]
    assert len({row.split(",")[0] for row in rows}) == 32


@pytest.mark.parametrize("argv", [
    ["quench", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8"],
    ["dtop", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8"],
    ["error-mc", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8"],
    ["reproduce-figure", "--figure", "fig2a"],
    ["phase-diagram", "--set", "resolution=32"],
])
def test_threads_rejected_where_unused(tmp_path, argv):
    out = tmp_path / "x"
    assert run_main(argv + ["--threads", 2, "--out", out]) == 2
    assert not out.exists()


SECTORLESS_FINALS = [
    # same protocol on both sides: a trivial quench
    ["final_theta1=1/4", "final_theta2=-1/2"],
    # lossy, PT broken: no fixed points, so no winding sectors
    ["final_theta1=-1/2", "final_theta2=0.49", "loss=0.36"],
]


@pytest.mark.parametrize("final", SECTORLESS_FINALS)
def test_sectorless_dtop_is_physics_error(tmp_path, capsys, final):
    out = tmp_path / "d"
    sets = [a for item in final for a in ("--set", item)]
    rc = run_main(["dtop", *sets, "--out", out])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: physics:")
    assert not out.exists()


@pytest.mark.parametrize("final", SECTORLESS_FINALS)
def test_sectorless_error_mc_dtop_is_physics_error(tmp_path, capsys, final):
    out = tmp_path / "mc"
    sets = [a for item in final for a in ("--set", item)]
    rc = run_main(["error-mc", *sets, "--set", "quantity=dtop",
                   "--set", "mc_samples=100", "--out", out])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: physics:")
    assert not out.exists()


def test_unwritable_output_is_io_error(capsys):
    rc = run_main(["quench", "--set", "final_theta1=-1/2",
                   "--set", "final_theta2=3/8", "--out", "/proc/nope"])
    assert rc == 4
    assert "error: io:" in capsys.readouterr().err


def test_figure_runs_reproducibly(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_main(["reproduce-figure", "--figure", "fig3", "--out", a]) == 0
    assert run_main(["reproduce-figure", "--figure", "fig3", "--out", b]) == 0
    for name in ("summary.json", "fig3_rate.csv", "fig3_dtop.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    summary = json.loads((a / "summary.json").read_text())
    assert summary["figure"] == "fig3"
    assert summary["headline"]["fig3"]["critical_times"] == []


def test_unknown_figure_rejected():
    assert run_main(["reproduce-figure", "--figure", "fig9"]) == 2


def test_mixed_preset_emits_two_runs(tmp_path):
    out = tmp_path / "s2"
    assert run_main(["reproduce-figure", "--figure", "s2", "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["headline"]) == {"s2-p07", "s2-p09"}


def test_error_mc_products(tmp_path):
    out = tmp_path / "mc"
    rc = run_main(["error-mc", "--set", "final_theta1=-1/2",
                   "--set", "final_theta2=3/8", "--set", "mc_samples=100",
                   "--seed", 8, "--out", out])
    assert rc == 0
    lines = (out / "errorbars.csv").read_text().splitlines()
    assert lines[0] == "quantity,t,center,err_plus,err_minus,n_samples,seed"
    assert len(lines) > 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 8
    assert summary["headline"]["n_samples"] == 100


@pytest.mark.parametrize("quantity, labels", [
    ("pbar", {"re_pbar_x0", "im_pbar_x0"}),
    ("rate_function", {"rate_function"}),
])
def test_error_mc_pbar_and_rate_products(tmp_path, quantity, labels):
    out = tmp_path / "mc"
    rc = run_main(["error-mc", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--set", f"quantity={quantity}", "--set", "mc_samples=100",
                   "--set", "n_steps=2", "--out", out])
    assert rc == 0
    lines = (out / "errorbars.csv").read_text().splitlines()
    assert lines[0] == "quantity,t,center,err_plus,err_minus,n_samples,seed"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == labels
    # one row per label at each of the steps 0, 1, 2
    assert sorted((r[0], float(r[1])) for r in rows) == \
        sorted((q, float(t)) for q in labels for t in range(3))
    headline = json.loads((out / "summary.json").read_text())["headline"]
    assert set(headline) == {"quantity", "n_samples", "max_bar"}
    assert headline["quantity"] == quantity and headline["n_samples"] == 100
    bars = [float(x) for r in rows for x in r[3:5]]
    assert headline["max_bar"] == pytest.approx(max(bars), rel=1e-11)
    assert headline["max_bar"] > 0


def test_phase_diagram_products(tmp_path):
    out = tmp_path / "pd"
    rc = run_main(["phase-diagram", "--set", "resolution=32",
                   "--set", "kpoints=64", "--out", out])
    assert rc == 0
    lines = (out / "phase_diagram.csv").read_text().splitlines()
    assert len(lines) == 1 + 32 * 32
    headline = json.loads((out / "summary.json").read_text())["headline"]
    counts = headline["winding_counts"]
    assert set(counts) <= {"-2", "0", "2"}
    assert sum(counts.values()) + headline["unlabeled_cells"] == headline["cells"] == 32 * 32


@pytest.mark.parametrize("window", [
    ["theta1_min=-2", "theta1_max=2"],  # each angle twice
    ["theta1_min=1/2", "theta1_max=1/2"],  # every cell in one column
])
def test_malformed_theta_window_rejected(tmp_path, capsys, window):
    out = tmp_path / "pd"
    sets = [a for item in window for a in ("--set", item)]
    assert run_main(["phase-diagram", "--set", "resolution=32", *sets, "--out", out]) == 2
    assert "theta1 window" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    out = tmp_path / "q"
    rc = run_main(["quench", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--set", "t_mx=2", "--out", out])
    assert rc == 2
    assert "t_mx" in capsys.readouterr().err
    assert not out.exists()
    # a key another command reads is still foreign here
    assert run_main(["reproduce-figure", "--figure", "fig2a", "--set", "mc_samples=100",
                     "--out", out]) == 2


def test_trivial_quench_headline_complete(tmp_path):
    out = tmp_path / "t"
    rc = run_main(["quench", "--set", "final_theta1=1/4", "--set", "final_theta2=-1/2",
                   "--kpoints", 32, "--set", "t_max=2", "--set", "dt=0.5", "--out", out])
    assert rc == 0
    headline = json.loads((out / "summary.json").read_text())["headline"]
    for key in ("fixed_points", "critical_momenta", "time_scales", "critical_times"):
        assert headline[key] is None
    report = json.loads((out / "report.json").read_text())
    assert "trivial_quench" in report and report["critical_times"] == []


CRITICAL_KEYS = ("fixed_points", "critical_momenta", "time_scales", "critical_times")


def test_headline_is_the_runs_own_analysis(tmp_path):
    # a t_max of 2 cuts the critical ladder of this quench, whose first
    # critical time is 4
    out = tmp_path / "q"
    rc = run_main(["quench", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--kpoints", 32, "--set", "t_max=2", "--out", out])
    assert rc == 0
    headline = json.loads((out / "summary.json").read_text())["headline"]
    report = json.loads((out / "report.json").read_text())
    assert {key: headline[key] for key in CRITICAL_KEYS} \
        == {key: report[key] for key in CRITICAL_KEYS}
    assert all(t <= 2 for t in headline["critical_times"])


PRESET_RUNS = dict(run for pid in PRESET_IDS for run in preset(pid))


@pytest.mark.parametrize("label", list(PRESET_RUNS))
def test_preset_headline_grid_independent(label):
    # the headline of every preset label at 128 momenta, the default
    # kpoints, is its headline at 2048 momenta bit for bit
    spec = PRESET_RUNS[label]
    coarse, fine = (cli._headline(analysis.QuenchAnalysis(spec, MomentumGrid(n), TimeGrid()))
                    for n in (128, 2048))
    assert coarse == fine


@pytest.mark.parametrize("label, status, winding", [("fig4a", "unbroken", -2),
                                                     ("fig4b", "broken", None)])
def test_lossy_headline_winding_follows_pt_status(label, status, winding):
    # the global Berry winding refuses a walk that is not PT-unbroken, and
    # the headline records that refusal as no winding
    qa = analysis.QuenchAnalysis(PRESET_RUNS[label], MomentumGrid(128), TimeGrid())
    headline = cli._headline(qa)
    assert headline["pt_status"] == status
    assert headline["winding"] == winding


def test_error_mc_dtop_reads_kpoints(tmp_path, monkeypatch):
    grids = []

    def recording(spec, grid):
        grids.append(grid)
        return analysis.find_fixed_points(spec, grid)

    monkeypatch.setattr(measurement, "find_fixed_points", recording)
    rc = run_main(["error-mc", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--set", "quantity=dtop", "--set", "mc_samples=100", "--set", "n_steps=2",
                   "--kpoints", 64, "--out", tmp_path / "mc"])
    assert rc == 0
    assert [g.n_points for g in grids] == [64]


@pytest.mark.parametrize("quantity, n_points", [
    ("rate_function", 256), ("dtop", 256), ("pbar", None)])
def test_error_mc_passes_a_grid_only_where_it_is_read(tmp_path, monkeypatch,
                                                      quantity, n_points):
    grids = []

    def recording(*args, grid=None, **kwargs):
        grids.append(grid)
        return measurement.monte_carlo_errorbars(*args, grid=grid, **kwargs)

    monkeypatch.setattr(cli, "monte_carlo_errorbars", recording)
    rc = run_main(["error-mc", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--set", f"quantity={quantity}", "--set", "mc_samples=100",
                   "--set", "n_steps=2", "--out", tmp_path / "mc"])
    assert rc == 0
    assert [g and g.n_points for g in grids] == [n_points]


@pytest.mark.parametrize("quantity, unread", [
    ("rate_function", "sector=1"),
    ("rate_function", "positions=0"),
    ("dtop", "positions=0"),
    ("pbar", "sector=1"),
    ("pbar", "kpoints=64"),
])
def test_error_mc_refuses_keys_its_quantity_ignores(tmp_path, capsys, quantity, unread):
    out = tmp_path / "mc"
    rc = run_main(["error-mc", "--set", "final_theta1=-1/2", "--set", "final_theta2=3/8",
                   "--set", f"quantity={quantity}", "--set", unread,
                   "--set", "mc_samples=100", "--set", "n_steps=2", "--out", out])
    assert rc == 2
    assert f"does not read config key(s) {unread.split('=')[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("positions", [[0, 2], "0,2"])
def test_error_mc_positions_as_json_list_or_string(tmp_path, positions):
    cfg = {"final_theta1": "-1/2", "final_theta2": "3/8", "quantity": "pbar",
           "mc_samples": 100, "n_steps": 2, "positions": positions}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_main(["error-mc", "--config", path, "--out", tmp_path / "mc"]) == 0
    labels = {row.split(",")[0] for row in
              (tmp_path / "mc" / "errorbars.csv").read_text().splitlines()[1:]}
    assert labels == {"re_pbar_x0", "im_pbar_x0", "re_pbar_x2", "im_pbar_x2"}


@pytest.mark.parametrize("positions", [[], [0, 2.5], [0, True], [[0]]])
def test_error_mc_unreadable_positions_is_usage_error(tmp_path, capsys, positions):
    cfg = {"final_theta1": "-1/2", "final_theta2": "3/8", "quantity": "pbar",
           "mc_samples": 100, "n_steps": 2, "positions": positions}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "mc"
    assert run_main(["error-mc", "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: config: bad value for positions")
    assert not out.exists()
