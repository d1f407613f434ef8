import contextlib
import dataclasses
import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import hfosc.cli as cli
from hfosc import fixtures
from hfosc.averaging import DEFAULT_TRUNC, ZERO_TOL
from hfosc.cli import MAX_SAMPLES, main
from hfosc.model import ProblemSpec, serialize_problem

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _run_python(*argv, timeout=None):
    """A fresh interpreter that imports this checkout."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )


def _run_module(*argv, timeout=None):
    """``python -m hfosc.cli`` in a fresh process that imports this checkout."""
    return _run_python("-m", "hfosc.cli", *argv, timeout=timeout)


def _write(tmp_path, spec, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(serialize_problem(spec)))
    return str(path)


def _rotation_spec():
    # Two multipliers hit 1 exactly at omega = 1 although the kernel data
    # is admissible, so only the reference solver objects.
    return ProblemSpec(
        n=3,
        m=0,
        A0=[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
        B0=np.diag([1.0, 0.0, 0.0]),
        d={0: [1.0, 0.0, 0.0]},
    )


def test_analyze_text_report(tmp_path, capsys):
    path = _write(tmp_path, fixtures.forced_borderline())
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "zero eigenvalue multiplicity: 2" in out
    assert "kernel basis" in out
    assert "left kernel basis" in out
    assert "omega0" in out


def test_analyze_json_fields(tmp_path, capsys):
    path = _write(tmp_path, fixtures.forced_borderline())
    assert main(["analyze", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3 and doc["m"] == 0 and doc["real_mode"] is True
    assert doc["kernel_dim"] == 2
    assert len(doc["singular_values"]) == 3
    assert doc["solvability_sigma_min"] > 0.1
    assert len(doc["kernel"]) == 3 and len(doc["kernel"][0]) == 2
    assert doc["K"] == 2.0


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_malformed_document_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2}))
    assert main(["analyze", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def _assert_input_error(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, rest",
    [
        # B_1 twice: json alone keeps the second block, and analyze runs.
        ("1", '"B": {"1": [[[0.5, 0.0]]], "1": [[[9.0, 0.0]]]}, "d": {}'),
        ("d", '"B": {}, "d": {"0": [[1.0, 0.0]]}, "d": {}'),
    ],
    ids=["B", "top-level"],
)
def test_repeated_key_exits_one(tmp_path, key, rest):
    path = tmp_path / "repeated.json"
    head = '"n": 1, "m": 1, "real_mode": false, "A0": [[[0.0, 0.0]]], "B0": [[[-1.0, 0.0]]]'
    path.write_text("{" + head + ", " + rest + "}")
    proc = _run_module("analyze", str(path), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and f"repeated key {key!r}" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_document_that_is_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    _assert_input_error(capsys, ["analyze", str(path)], "is not UTF-8 text")


def test_document_nested_past_the_recursion_limit_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    _assert_input_error(capsys, ["analyze", str(path)], "is not valid JSON")


def test_entry_past_the_float_range_exits_one(tmp_path, capsys):
    doc = serialize_problem(fixtures.borderline_stable())
    doc["A0"][0][0] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    _assert_input_error(capsys, ["analyze", str(path)], "A0[0][0]: entry too large")


@pytest.mark.parametrize("omega", ["1e-300", "1e308"])
def test_evaluate_past_the_float_range_exits_one(capsys, omega):
    argv = ["evaluate", str(FIXTURES / "random_n3_m1.json"), "--omega", omega, "--samples", "2"]
    _assert_input_error(capsys, argv, "is not finite")


def test_no_zero_eigenvalue_exits_two(tmp_path, capsys):
    path = _write(tmp_path, fixtures.scalar_decay())
    assert main(["analyze", path]) == 2
    assert "no zero eigenvalue" in capsys.readouterr().err


def test_degenerate_exits_two(capsys):
    assert main(["analyze", str(FIXTURES / "degenerate.json")]) == 2
    assert "solvability" in capsys.readouterr().err


def test_nonunique_exits_three(tmp_path, capsys):
    path = _write(tmp_path, _rotation_spec())
    assert main(["validate", path, "--omega", "1"]) == 3
    assert "not unique" in capsys.readouterr().err


def test_stability_text_reports_both_tests(tmp_path, capsys):
    path = _write(tmp_path, fixtures.borderline_unstable())
    assert main(["stability", path, "--omega", "100"]) == 0
    out = capsys.readouterr().out
    assert "series test (through 1/omega^6): Inconclusive" in out
    assert "multiplier test at omega=100: Unstable" in out


def test_stability_json_fields(tmp_path, capsys):
    path = _write(tmp_path, fixtures.borderline_unstable())
    assert main(["stability", path, "--omega", "100", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trunc"] == DEFAULT_TRUNC and doc["zero_tol"] == ZERO_TOL
    assert doc["series"]["kind"] == "Inconclusive"
    assert doc["series"]["leaders"][0] == [0, pytest.approx(1.0)]
    assert doc["series"]["leaders"][1] is None
    assert doc["floquet"]["kind"] == "Unstable"
    assert doc["floquet"]["margin"] == pytest.approx(
        np.expm1(2 * np.pi / 100.0**2), rel=1e-5
    )


def test_stability_json_reports_measured_quantities(tmp_path, capsys):
    path = _write(tmp_path, fixtures.random_admissible(seed=1, n=4, m=1, s=2))
    assert main(["stability", path, "--omega", "100", "--format", "json"]) == 0
    series = json.loads(capsys.readouterr().out)["series"]
    assert len(series["zero_ratios"]) == len(series["leaders"]) == 4
    assert all(0.0 <= ratio <= 1e-9 for ratio in series["zero_ratios"])
    # Nothing is counted as zero ahead of an order-0 leader.
    for (order, _), ratio in zip(series["leaders"], series["zero_ratios"]):
        assert order > 0 or ratio == 0.0
    assert series["imag_tol"] == 1e-6
    assert 0.0 <= series["imag_ratio"] <= 1e-6


def test_stability_undecidable_still_exits_zero(tmp_path, capsys):
    spec = ProblemSpec(
        n=2, m=0, A0=[[0.0, 1.0], [0.0, 0.0]], B0=np.zeros((2, 2)), d={},
    )
    path = _write(tmp_path, spec)
    assert main(["stability", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["floquet"]["kind"] == "Undecidable"
    assert "geometric multiplicity" in doc["floquet"]["detail"]


def test_expand_json_structure(capsys):
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["expand", path, "--order", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 3
    assert doc["kernel_dim"] == 1
    assert len(doc["levels"]) == 4
    assert len(doc["leading"]) == 1
    for lev in doc["levels"]:
        assert set(lev) == {
            "mean", "kernel_coeff", "oscillation", "harmonics",
            "forcing", "harmonic_mass", "solvability_defect",
        }
        assert lev["solvability_defect"] < 1e-8


def test_evaluate_samples_one_period(capsys):
    path = str(FIXTURES / "random_n3_m1.json")
    code = main([
        "evaluate", path, "--order", "1", "--omega", "50",
        "--samples", "8", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["t"]) == 9
    assert len(doc["x"]) == 9
    assert doc["t"][-1] == pytest.approx(2 * np.pi / 50.0)
    assert all(len(row) == 3 and len(row[0]) == 2 for row in doc["x"])


def test_validate_passes_on_admissible_instance(capsys):
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["validate", path, "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_validate_json_lists_all_checks(capsys):
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["validate", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {
        "solvability_sigma_min",
        "partial_inverse_residual",
        "expansion_solvability_defect",
        "growth_envelope",
        "oracle_periodicity",
        "oracle_ode_defect",
        "oracle_unique_margin",
        "partial_sum_error",
        "averaging_routes_agree",
    } <= names
    assert all(c["ok"] for c in doc["checks"])


def test_slope_command(capsys):
    path = str(FIXTURES / "random_n3_m1.json")
    code = main([
        "slope", path, "--order", "0", "--omegas", "60,120", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected"] == -1
    assert len(doc["errors"]) == 2
    assert abs(doc["slope"] + 1.0) < 0.5


def test_output_flag_writes_report_file(tmp_path, capsys):
    path = _write(tmp_path, fixtures.borderline_stable())
    target = tmp_path / "report.json"
    assert main(["analyze", path, "--format", "json", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["kernel_dim"] == 2


def test_errors_go_to_stderr_not_output_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = main([
        "analyze", str(tmp_path / "absent.json"), "--output", str(target),
    ])
    assert code == 1
    assert not target.exists()
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["analyze", path, "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}")
    assert captured.out == ""


def test_validate_reports_the_thresholds_applied(capsys):
    # The solvability floor is relative, DEGENERATE_TOL * max(sigma_max, 1)
    # of the solvability matrix, not a bare 1e-10.
    path = str(FIXTURES / "forced_borderline.json")
    assert main(["validate", path, "--format", "json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["solvability_sigma_min"]["threshold"] == pytest.approx(2.094e-10, rel=1e-3)
    assert checks["oracle_unique_margin"]["threshold"] == 1e-10


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as e:
        main(["analyze"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["bogus", "x.json"])
    assert e.value.code == 1


def test_bad_omegas_flag_exits_one(tmp_path, capsys):
    path = _write(tmp_path, fixtures.borderline_stable())
    assert main(["slope", path, "--omegas", "1,abc"]) == 1
    assert "comma-separated" in capsys.readouterr().err


def test_reports_are_deterministic(capsys):
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["expand", path, "--order", "2", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["expand", path, "--order", "2", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point_runs():
    path = str(FIXTURES / "borderline_stable.json")
    proc = _run_module("analyze", path)
    assert proc.returncode == 0
    assert "zero eigenvalue multiplicity: 2" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--omega", "0"],
        ["validate", "--omega", "inf"],
        ["validate", "--omega", "nan"],
        ["expand", "--order", "-1"],
        ["stability", "--trunc", "0"],
        ["stability", "--zero-tol", "-1"],
        ["stability", "--rank-tol", "0.9"],
        ["slope", "--omegas", "100,nan"],
        ["slope", "--omegas", "100,100"],
        ["slope", "--omegas", "100"],
        ["evaluate", "--samples", "0"],
        ["evaluate", "--omega", "-100"],
        ["evaluate", "--omega", "nan"],
        ["analyze", "--rank-tol", "0"],
        # A period of 6e300 at steps bounded by stability: the step cap ends it.
        ["stability", "--omega", "1e-300", "scalar_decay.json"],
    ],
    ids=" ".join,
)
def test_out_of_range_arguments_exit_one(argv):
    # A fresh process with a timeout: some of these used to hang.  A case
    # that names a fixture runs on it instead of random_n3_m1.
    fixture = argv[-1] if argv[-1].endswith(".json") else "random_n3_m1.json"
    args = [a for a in argv if a != fixture]
    proc = _run_module(args[0], str(FIXTURES / fixture), *args[1:], timeout=60)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**20])
def test_samples_past_the_bound_exit_one_before_any_work(samples, monkeypatch, capsys):
    monkeypatch.setattr("hfosc.cli.load_problem", None)
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["evaluate", path, "--samples", str(samples)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --samples: must be at most {MAX_SAMPLES}, got {samples}\n"


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 EiB for an array", ""])
def test_memory_error_exits_one(message, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr("hfosc.cli.partial_sum", exhausted)
    assert main(["evaluate", str(FIXTURES / "random_n3_m1.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message or 'out of memory'}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["expand", "evaluate", "slope", "validate"])
@pytest.mark.parametrize("name", ["forcing_only", "forcing_past_matrix"])
def test_forcing_past_the_first_product_runs(name, command, capsys):
    # Forcing harmonics past twice those of B (none, or past 2 for B at +-1).
    assert main([command, str(FIXTURES / f"{name}.json")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_import_leaves_out_the_integrator():
    # Commands that never integrate do not load the integrator, and the
    # integrator is numpy alone: the commands that integrate load no scipy.
    code = (
        "import sys, hfosc.cli\n"
        "print([m in sys.modules for m in ('hfosc.dop853', 'scipy.integrate')])"
    )
    proc = _run_python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"

    path = str(FIXTURES / "random_n3_m1.json")
    code = (
        "import contextlib, io, sys\n"
        "from hfosc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([cmd, {path!r}]) for cmd in ('stability', 'validate', 'slope')]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _run_python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"


@pytest.mark.parametrize("rate", [1e5, 1e150])
def test_stalled_integration_exits_one_without_warnings(tmp_path, rate):
    # x2' = rate x2 + 1 overflows within the period: every later step is
    # non-finite and rejected until the step floor stops the integration.
    # At 1e150 the starting-step estimate itself overflows.
    spec = ProblemSpec(
        n=2, m=0, A0=np.diag([0.0, rate]), B0=np.diag([-1.0, 0.0]),
        d={0: [1.0, 1.0]}, real_mode=True,
    )
    proc = _run_module("stability", _write(tmp_path, spec), timeout=60)
    assert proc.returncode == 1
    assert "error: integration stalled" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_closed_stdout_ends_quietly():
    path = str(FIXTURES / "random_n3_m1.json")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    with subprocess.Popen(
        [sys.executable, "-m", "hfosc.cli", "evaluate", path, "--samples", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    ) as proc:
        try:
            # Far more than a pipe holds stays unread once the reader is gone.
            assert proc.stdout.readline().startswith("partial sum of order 2")
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
    assert "Traceback" not in stderr and "BrokenPipe" not in stderr


def test_non_finite_document_exits_one(tmp_path, capsys):
    doc = serialize_problem(fixtures.borderline_stable())
    doc["A0"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    assert "non-finite" in capsys.readouterr().err


def _report(capsys, *argv):
    main(list(argv))
    return capsys.readouterr().out


def test_rank_tol_reaches_every_kernel(capsys):
    path = str(FIXTURES / "random_n3_m1.json")
    wide = ("--rank-tol", "0.9")  # also cuts sigma = 0.5: kernel dim 2, not 1
    for argv in (("evaluate", path), ("slope", path, "--order", "0", "--omegas", "60,120")):
        assert _report(capsys, *argv) != _report(capsys, *argv, *wide)
    # The normalized problem's kernel, behind L and omega0, follows the flag too.
    base = json.loads(_report(capsys, "analyze", path, "--format", "json"))
    cut = json.loads(_report(capsys, "analyze", path, "--format", "json", *wide))
    assert cut["L"] != base["L"]
    first = _report(capsys, "validate", path).splitlines()[0]
    assert first != _report(capsys, "validate", path, *wide).splitlines()[0]


def test_rounding_in_real_minors_leaves_the_series_inconclusive(capsys):
    # At --trunc 38 the minors of this real system keep imaginary parts of
    # 4e-6 of their scale from rounding: no series verdict, but no error,
    # and the multiplier test still runs.
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["stability", path, "--trunc", "38"]) == 0
    out = capsys.readouterr().out
    assert "series test (through 1/omega^38): Inconclusive" in out
    assert "above imag_tol 1e-06" in out
    assert "multiplier test at omega=100: Unstable" in out
    assert main(["stability", path, "--trunc", "38", "--format", "json"]) == 0
    series = json.loads(capsys.readouterr().out)["series"]
    assert series["imag_ratio"] > series["imag_tol"] == 1e-6
    assert series["leaders"] == [] and series["zero_ratios"] == []


def _scaled_document(tmp_path, factor):
    """random_n3_m1 with every number of A0, B0, B and d times ``factor``."""
    doc = json.loads((FIXTURES / "random_n3_m1.json").read_text())

    def scale(value):
        if isinstance(value, list):
            return [scale(v) for v in value]
        if isinstance(value, dict):
            return {k: scale(v) for k, v in value.items()}
        return value * factor

    for key in ("A0", "B0", "B", "d"):
        doc[key] = scale(doc[key])
    path = tmp_path / f"scaled-{factor:g}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("expand", "{fixture}", "--order", "520", "--format", "json"),
    ("expand", "{1e150}"),
    ("stability", "{1e150}"),
    ("validate", "{1e150}"),
    ("analyze", "{1e300}"),
    # 2 pi / omega overflows.
    ("stability", "{fixture}", "--omega", "1e-310"),
    ("validate", "{fixture}", "--omega", "1e-310"),
    ("slope", "{fixture}", "--omegas", "1e-310,1"),
    ("evaluate", "{fixture}", "--omega", "1e-310"),
    ("stability", "{scalar_decay}", "--omega", "1e-320"),
])
def test_overflow_exits_one_with_an_error(tmp_path, argv):
    paths = {
        "{fixture}": str(FIXTURES / "random_n3_m1.json"),
        "{scalar_decay}": str(FIXTURES / "scalar_decay.json"),
        "{1e150}": _scaled_document(tmp_path, 1e150),
        "{1e300}": _scaled_document(tmp_path, 1e300),
    }
    proc = _run_module(*(paths.get(a, a) for a in argv), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "not finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("spec, what", [
    # Rank one: sigma = [inf, 0] would put the rank cut at inf, and both
    # directions in the kernel.
    (ProblemSpec(n=2, m=0, A0=1.5e308 * np.ones((2, 2)), B0=-np.eye(2), d={0: [1.0, 0.0]}),
     "a singular value of A0"),
    # |B0| = 3e308 would scale every block to zero, and the normalized
    # problem to a singular one.
    (ProblemSpec(n=2, m=0, A0=np.diag([0.0, -1.0]), B0=1.5e308 * np.ones((2, 2)), d={0: [1.0, 0.0]}),
     "the normalization scale"),
], ids=["sigma_max", "scale"])
def test_overflowing_singular_values_exit_one(tmp_path, capsys, spec, what):
    assert main(["analyze", _write(tmp_path, spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{what} is not finite" in err


def test_json_reports_refuse_non_finite_numbers(tmp_path, capsys, monkeypatch):
    # The backstop behind the finite checks: a NaN that reaches the report
    # is an error, never an invalid JSON token.
    import hfosc.cli as cli

    real = cli.compute_kernel_data

    def tampered(*args, **kwargs):
        kd = real(*args, **kwargs)
        kd.sigma[0] = np.nan
        return kd

    monkeypatch.setattr(cli, "compute_kernel_data", tampered)
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["analyze", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
@pytest.mark.parametrize(
    "command", ["analyze", "expand", "evaluate", "stability", "slope", "validate"]
)
def test_both_formats_give_the_same_exit_code(capsys, command, fixture):
    # An exception would end this test; a JSON report must parse, and an
    # error must read the same in both formats.
    path = str(FIXTURES / fixture)
    text_code = main([command, path])
    text = capsys.readouterr()
    json_code = main([command, path, "--format", "json"])
    report = capsys.readouterr()
    assert text_code == json_code, report.err
    if report.out:
        json.loads(report.out)
    else:
        assert report.err.startswith("error:") and report.err == text.err


@pytest.mark.parametrize("fixture", ["borderline_stable.json", "borderline_unstable.json"])
def test_slope_of_a_zero_solution_is_null_in_json(capsys, fixture):
    # Unforced: the periodic solution is 0, every error is 0 and the slope
    # is NaN, which the JSON report writes as null.
    path = str(FIXTURES / fixture)
    assert main(["slope", path]) == 0
    assert "slope: nan" in capsys.readouterr().out
    assert main(["slope", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] is None
    assert doc["errors"] == [0.0] * 4


@pytest.mark.parametrize("order", ["13", "120"])
def test_validate_holds_recursion_defects_to_the_size_of_the_levels(capsys, order):
    # The levels grow geometrically: at order 13 the largest solvability
    # defect is 1.6e-8 in absolute terms, 1e-15 of its level.
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["validate", path, "--order", order]) == 0
    assert "all checks passed" in capsys.readouterr().out


def _perturb_defect(kd, lev, nxt):
    a1 = np.linalg.norm(kd.averaged, 2)
    size = max(a1 * np.linalg.norm(lev.kernel_coeff), np.linalg.norm(nxt.forcing),
               np.linalg.norm(nxt.mean))
    return dataclasses.replace(lev, solvability_defect=1e-6 * size)


def _perturb_mean(kd, lev, nxt):
    mean = lev.mean + 1e-6 * np.linalg.norm(lev.mean) * kd.kernel[:, 0]
    return dataclasses.replace(lev, mean=mean)


@pytest.mark.parametrize("perturb, check", [
    (_perturb_defect, "expansion_solvability_defect"),
    (_perturb_mean, "expansion_mean_orthogonality"),
])
def test_validate_fails_a_level_perturbed_by_a_millionth_of_its_size(
    capsys, monkeypatch, perturb, check
):
    import hfosc.cli as cli

    real = cli.expand

    def perturbed(spec, order, kernel_data):
        exp = real(spec, order, kernel_data=kernel_data)
        levels = list(exp.levels)
        levels[-2] = perturb(kernel_data, levels[-2], levels[-1])
        return dataclasses.replace(exp, levels=levels)

    monkeypatch.setattr(cli, "expand", perturbed)
    path = str(FIXTURES / "random_n3_m1.json")
    assert main(["validate", path, "--order", "13"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {check}" in out and out.count("  FAIL ") == 1


# The layout of every report: each command with its default flags on each
# fixture, in both formats, with every number masked, so that the golden
# pins which fields are reported and in which order but not the digits that
# the BLAS and the platform set.  Rewrite the golden with
# ``PYTHONPATH=src python tests/test_cli.py``.
LAYOUT = ROOT / "tests" / "cli_layout.json"
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


_LAYOUT_RUNS = [
    (command, fixture, fmt)
    for fixture in sorted(p.name for p in FIXTURES.glob("*.json"))
    for command in ["analyze", "expand", "evaluate", "stability", "slope", "validate"]
    for fmt in ["text", "json"]
]


def _masked_run(command, fixture, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(FIXTURES / fixture), "--format", fmt])
    return {"argv": [command, fixture, "--format", fmt], "code": code,
            "out": _NUMBER.sub("#", out.getvalue()), "err": _NUMBER.sub("#", err.getvalue())}


@functools.cache
def _layout_golden():
    runs = json.loads(LAYOUT.read_text())
    return {(run["argv"][0], run["argv"][1], run["argv"][3]): run for run in runs}


@pytest.mark.parametrize("command, fixture, fmt", _LAYOUT_RUNS)
def test_report_layout_matches_the_golden(command, fixture, fmt):
    assert _masked_run(command, fixture, fmt) == _layout_golden()[command, fixture, fmt]


def test_text_reports_build_no_pairs(monkeypatch, capsys):
    def refuse(values):
        raise AssertionError("to_pairs called for a text report")

    monkeypatch.setattr(cli, "to_pairs", refuse)
    assert main(["evaluate", str(FIXTURES / "random_n3_m1.json")]) == 0
    assert "t=" in capsys.readouterr().out


def test_json_hook_encodes_arrays_and_nothing_else():
    doc = json.dumps({"x": np.array([1.0, 2j])}, default=cli._array_pairs)
    assert json.loads(doc) == {"x": [[1.0, 0.0], [0.0, 2.0]]}
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps({"ok": np.bool_(True)}, default=cli._array_pairs)


if __name__ == "__main__":
    LAYOUT.write_text(json.dumps([_masked_run(*run) for run in _LAYOUT_RUNS], indent=1) + "\n")
