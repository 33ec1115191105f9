"""The mutation register: wrong twins of snippets of src/, each with the
tests that must fail on it.

Run from the root of a checkout, with the test extras installed:

    python tests/mutants.py

For each mutant the script copies the checkout (without .git) into a
temporary directory, replaces the snippet in its copy of src/, and runs the
mutant's test ids there in a pytest subprocess. A mutant is killed when
pytest reports failed tests (exit 1) and survives when they pass (exit 0).
Any other exit, such as a collection error or a missing test id, is an
error. Hypothesis runs with seed 0, so a verdict repeats. Before the
mutants, all their test ids run once on an unmutated copy and must pass, so
that a kill is the mutant's doing. The script exits 1 if a mutant survives
or errs.

Every snippet must occur exactly once in its file, or the script stops with
exit 2 before it runs anything, so a refactor that moves a snippet away
cannot leave its mutant silently unchecked. The expected survivors are
checked the same way, but not run: no test catches them, for the reason
given with each.

Standard library only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the checkout
    snippet: str    # occurs exactly once in path
    twin: str       # its replacement
    tests: tuple    # pytest ids, relative to the checkout; one must fail


MUTANTS = (
    # root polishing
    Mutant("brent-scur", "src/dqptwalk/roots.py",
           "spre, scur = scur, stry  # good short step",
           "spre, scur = scur, sbis  # good short step",
           ("tests/test_roots.py::test_batched_brentq_equals_scalar_port",)),
    Mutant("bounded-nfc-xf", "src/dqptwalk/roots.py",
           "if fu <= fnfc or nfc == xf:",
           "if fu <= fnfc:",
           ("tests/test_roots.py::test_batched_minimize_bounded_equals_scalar_port",)),
    Mutant("brentq-zip-not-strict", "src/dqptwalk/roots.py",
           "zip(a, b, fa, fb, ra, rb, strict=True)",
           "zip(a, b, fa, fb, ra, rb)",
           ("tests/test_roots.py::test_unequal_lengths_raise",)),
    Mutant("bounded-zip-not-strict", "src/dqptwalk/roots.py",
           "zip(a.tolist(), b.tolist(), strict=True)",
           "zip(a.tolist(), b.tolist())",
           ("tests/test_roots.py::test_unequal_lengths_raise",)),
    Mutant("flip-step-second-sample", "src/dqptwalk/analysis.py",
           "phase_increments(np.append(raw_vals, raw_vals[0]))",
           "phase_increments(np.append(raw_vals, raw_vals[1]))",
           ("tests/test_analysis.py::test_flip_mask_equals_inline_phase_step",)),
    Mutant("project-complex-product", "src/dqptwalk/analysis.py",
           "return c.real * drn.real + c.imag * drn.imag",
           "return (c * np.conj(drn)).real",
           ("tests/test_analysis.py::test_projection_rounds_like_a_scalar_complex_product",)),
    Mutant("residual-np-abs", "src/dqptwalk/analysis.py",
           "fun[ok] = _cabs(c)",
           "fun[ok] = np.abs(c)",
           ("tests/test_analysis.py::test_batched_polish_equals_scalar_polish",)),
    Mutant("polish-many-row-matmul", "src/dqptwalk/analysis.py",
           "tab = overlaps(spec, k, _rowwise=True)\n    return np.where(",
           "tab = overlaps(spec, k)\n    return np.where(",
           ("tests/test_analysis.py::test_batched_polish_equals_scalar_polish",)),
    Mutant("frames-swapped-u0-u1", "src/dqptwalk/floquet.py",
           "np.stack((u0 - u1, u0 + u1), axis=-1)",
           "np.stack((u1 - u0, u0 + u1), axis=-1)",
           ("tests/test_floquet.py::test_stacked_frames_equal_per_vector_frames",)),
    # block runner, order parameter and critical times
    Mutant("blocks-no-join", "src/dqptwalk/lattice.py",
           "            helper.join()",
           "            pass",
           ("tests/test_lattice.py::test_run_blocks_contract",
            "tests/test_analysis.py::test_earliest_failing_block_raises",
            "tests/test_analysis.py::test_preset_trace_bits_do_not_depend_on_the_threads")),
    Mutant("blocks-completion-order", "src/dqptwalk/lattice.py",
           "done[b] = blocks[b](buffers)",
           "done[done.index(None)] = blocks[b](buffers)",
           ("tests/test_lattice.py::test_run_blocks_contract",)),
    Mutant("sector-slice-one-off", "src/dqptwalk/analysis.py",
           "np.concatenate(done[i * n:(i + 1) * n])",
           "np.concatenate(done[i * n + 1:(i + 1) * n + 1])",
           ("tests/test_analysis.py::test_batched_traces_equal_one_sector_traces",)),
    Mutant("field-block-column-off", "src/dqptwalk/quench.py",
           "values[:, lo:hi] = ",
           "values[:, lo + 1:hi + 1] = ",
           ("tests/test_quench.py::test_field_equals_one_call_table",)),
    Mutant("row-sum-pairwise", "src/dqptwalk/floquet.py",
           "return np.add.accumulate(inc, axis=0)[-1]",
           "return inc.sum(axis=0)",
           ("tests/test_analysis.py::test_one_time_trace_equals_long_trace",)),
    Mutant("t0-off-by-1e-11", "src/dqptwalk/analysis.py",
           "float(np.pi / (2 * e))",
           "float(np.pi / (2 * e) * (1 + 1e-11))",
           ("tests/test_analysis.py::test_lossless_geometry_equals_closed_form",)),
    Mutant("loop-unclosed", "src/dqptwalk/floquet.py",
           "phase_increments(np.concatenate((z, z[:1])))",
           "phase_increments(z)",
           ("tests/test_floquet.py::test_phase_diagram_scan_equals_cell_reference",)),
    Mutant("two-mode-out-order", "src/dqptwalk/quench.py",
           "np.multiply(a, g, out=g)",
           "np.multiply(g, a, out=g)",
           ("tests/test_kernels.py::test_kernels_keep_the_large_table_bits",)),
    # emit
    Mutant("loschmidt-csv-11g", "src/dqptwalk/quench.py",
           '"%s,%s,%.12g,%.12g,%.12g"',
           '"%s,%s,%.11g,%.12g,%.12g"',
           ("tests/test_emit.py::test_loschmidt_csv_bytes",)),
    Mutant("svg-rank-by-index", "src/dqptwalk/svgplot.py",
           "u1, i1 = np.unique(diagram.theta1, return_inverse=True)",
           "u1, i1 = diagram.theta1, np.arange(diagram.theta1.size)",
           ("tests/test_emit.py::test_phase_map_svg_bytes",
            "tests/test_emit.py::test_scanned_map_bytes")),
    Mutant("svg-fill-ignores-boundary", "src/dqptwalk/svgplot.py",
           "_winding_color(w, flag)",
           "_winding_color(w, False)",
           ("tests/test_emit.py::test_phase_map_svg_bytes",)),
    # Monte Carlo replay
    Mutant("analyzer-array-square", "src/dqptwalk/measurement.py",
           "np.float_power(np.abs(u0), 2.0)",
           "np.abs(u0) ** 2",
           ("tests/test_measurement.py::test_block_analyzer_equals_scalar_vectors",)),
    Mutant("path2-swapped-operands", "src/dqptwalk/measurement.py",
           "np.multiply(w * ref2, np.conj(v, out=v), out=v)",
           "np.multiply(np.conj(v, out=v), w * ref2, out=v)",
           ("tests/test_measurement.py::test_ideal_apparatus_equals_reference_probs",)),
    # eigensystem and angles
    Mutant("generic-swap-reversed", "src/dqptwalk/floquet.py",
           "swap = _cabs(lam[:, 0] - lam_p) > _cabs(lam[:, 1] - lam_p)",
           "swap = _cabs(lam[:, 0] - lam_p) < _cabs(lam[:, 1] - lam_p)",
           ("tests/test_floquet.py::test_batched_generic_equals_row_reference",)),
    Mutant("generic-pivot-argmin", "src/dqptwalk/floquet.py",
           "np.abs(cols).argmax(axis=-1)",
           "np.abs(cols).argmin(axis=-1)",
           ("tests/test_floquet.py::test_batched_generic_equals_row_reference",)),
    Mutant("generic-norm-real-part", "src/dqptwalk/floquet.py",
           "norm = np.sqrt(np.vecdot(cols.real, cols.real) + np.vecdot(cols.imag, cols.imag))",
           "norm = np.sqrt(np.vecdot(cols.real, cols.real))",
           ("tests/test_floquet.py::test_batched_generic_equals_row_reference",)),
    Mutant("angle-wrap-keeps-minus-pi", "src/dqptwalk/lattice.py",
           "return np.where(y == -np.pi, np.pi, y)",
           "return y",
           ("tests/test_lattice.py::test_normalize_angle_seam",)),
    Mutant("winding-residual-unchecked", "src/dqptwalk/floquet.py",
           "(np.abs(raw - nu) >= WINDING_RESIDUAL_MAX)",
           "(np.abs(raw - nu) > 1)",
           ("tests/test_floquet.py::test_phase_diagram_scan_equals_cell_reference",)),
    Mutant("mixed-weights-swapped", "src/dqptwalk/quench.py",
           "A = (p * a + (1 - p) * b).astype(complex)",
           "A = ((1 - p) * a + p * b).astype(complex)",
           ("tests/test_quench.py::test_coefficient_path_equals_matrix_powers",)),
    Mutant("lossy-b-from-ct-minus", "src/dqptwalk/quench.py",
           "B = b_p * ct_p",
           "B = b_p * ct_m",
           ("tests/test_quench.py::test_coefficient_path_equals_matrix_powers",)),
    Mutant("text-ids-no-dedupe", "src/dqptwalk/lattice.py",
           "u = u[np.append(True, u[1:] != u[:-1])] if u.size else u",
           "u = u",
           ("tests/test_emit.py::test_phase_diagram_csv_bytes",)),
    # specs and command line
    Mutant("resolution-uncapped", "src/dqptwalk/floquet.py",
           "if not 32 <= resolution <= MAX_RESOLUTION:",
           "if not 32 <= resolution:",
           ("tests/test_floquet.py::test_phase_diagram_resolution_cap",)),
    Mutant("mix-with-loss", "src/dqptwalk/quench.py",
           "(self.loss > 0 or not 0 <= self.mix_p <= 1)",
           "(not 0 <= self.mix_p <= 1)",
           ("tests/test_quench.py::TestSpecValidation::test_regime_rules",)),
    Mutant("momenta-uncapped", "src/dqptwalk/lattice.py",
           "n < 16 or n % 2 or n > MAX_MOMENTA",
           "n < 16 or n % 2",
           ("tests/test_cli.py::test_oversized_grid_is_usage_error",)),
    # command line
    Mutant("kpoints-cast-int", "src/dqptwalk/cli.py",
           '_GRID_KEYS = {"kpoints": _integer,',
           '_GRID_KEYS = {"kpoints": int,',
           ("tests/test_cli.py::test_non_integral_integer_key_is_usage_error",)),
    Mutant("cast-takes-bool", "src/dqptwalk/cli.py",
           "        if isinstance(value, bool):\n            raise TypeError\n",
           "",
           ("tests/test_cli.py::test_boolean_value_is_usage_error",)),
    Mutant("empty-value-cast", "src/dqptwalk/cli.py",
           '\n            if value not in ("", None)}',
           "}",
           ("tests/test_cli.py::test_empty_angle_is_unset",
            "tests/test_cli.py::test_empty_quantity_is_unset")),
)

# (mutant, why no test catches it)
SURVIVORS = (
    (Mutant("ellipse-guard-1", "src/dqptwalk/floquet.py",
            "ELLIPSE_GUARD = 8", "ELLIPSE_GUARD = 1", ()),
     "the benchmark maps' boundary cells lie on |theta1| = |theta2|, where the "
     "margin is exactly 0 and the numeric loop runs at any guard, and no cell "
     "just beyond guards 0.25-4 was found where the ellipse label is wrong"),
)


def check_snippets(mutants) -> list:
    """Each mutant whose snippet does not occur exactly once, with its count."""
    counts = [(m, (ROOT / m.path).read_text().count(m.snippet)) for m in mutants]
    return [(m, count) for m, count in counts if count != 1]


def run(m: Mutant) -> tuple:
    """(pytest exit code, seconds, last output line) of m's tests on a copy
    of the checkout with m applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".e2ebench_work"))
        target = copy / m.path
        target.write_text(target.read_text().replace(m.snippet, m.twin))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *m.tests],
            cwd=copy, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1"))
        lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
        return proc.returncode, time.perf_counter() - start, lines[-1]


def main() -> int:
    stale = check_snippets(MUTANTS + tuple(m for m, _ in SURVIVORS))
    for m, count in stale:
        print(f"ERROR {m.name}: snippet occurs {count} times in {m.path}: {m.snippet!r}")
    if stale:
        return 2
    start = time.perf_counter()
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, seconds, last = run(Mutant("control", MUTANTS[0].path, "", "", tests))
    print(f"{'control' if code == 0 else 'ERROR control':<24} {'(no mutant)':<26} "
          f"{seconds:6.1f} s  {last}")
    if code != 0:
        return 2
    survived = errors = 0
    for m in MUTANTS:
        code, seconds, last = run(m)
        verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
        survived += code == 0
        errors += code not in (0, 1)
        print(f"{verdict:<24} {m.name:<26} {seconds:6.1f} s  {last}")
    for m, reason in SURVIVORS:
        print(f"{'expected survivor':<24} {m.name:<26}  {reason}")
    print(f"{len(MUTANTS)} mutants: {len(MUTANTS) - survived - errors} killed, "
          f"{survived} survived, {errors} errors, in {time.perf_counter() - start:.0f} s")
    return 1 if survived or errors else 0


if __name__ == "__main__":
    sys.exit(main())
