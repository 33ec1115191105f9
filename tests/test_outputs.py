"""Byte identity of the command-line outputs.

A handful of the end-to-end benchmark's calls run through ``cli.main`` and
every file they write must hash to its entry in ``e2ebench/manifest.json``,
the output manifest of the reference commit. The call list comes from the
benchmark's own workload definitions, which this test only reads.
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dqptwalk import cli

BENCH = Path(__file__).resolve().parents[1] / "e2ebench"
MANIFEST = json.loads((BENCH / "manifest.json").read_text())["calls"]
SEED = 0


def _workload_calls():
    spec = importlib.util.spec_from_file_location("e2e_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return {c.name: c for w in mod.WORKLOADS.values() for c in w.calls}


CALLS = _workload_calls()


@pytest.mark.parametrize("name", ["quench_F2", "quench_F4", "dtop_F2", "figure_fig3",
                                  "figure_fig4a", "figure_fig4b", "figure_mixed-p07",
                                  "figure_s2", "figure_s3", "phase_64",
                                  "phase_256_loss02", "mc_dtop_F2"])
def test_outputs_match_manifest(tmp_path, name):
    call = CALLS[name]
    out = tmp_path / "out"
    assert cli.main(call.argv(str(out), SEED)) == 0
    hashes = {f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
              for f in sorted(out.rglob("*")) if f.is_file()}
    assert hashes == MANIFEST[call.key(SEED)]


def test_benchmark_config_keys_accepted():
    for call in CALLS.values():
        cfg = dict(item.split("=", 1) for item in call.sets)
        assert set(cfg) <= set(cli._COMMANDS[call.command][1]), call.name
        if call.command == "error-mc":
            unread = cli._MC_UNREAD[cfg.get("quantity", "dtop")]
            assert not set(cfg) & set(unread), call.name
