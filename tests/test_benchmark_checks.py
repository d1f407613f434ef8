"""One round of every benchmark workload, in this process, through its own
checks: a change that makes the benchmark report ``correct: false`` fails
here first.  Reads ``perfbench/`` and writes only to a temporary directory."""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # The checks import ``reference`` lazily, so the path stays while they run.
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads

        yield workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["cli", "expansion", "stability", "oracle"])
def test_one_round_passes_the_workload_checks(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    if name == "cli":
        wl.in_process = True
    for label, op in wl.ops:
        try:
            result = op()
        except Exception as exc:  # the benchmark counts these as failed ops
            assert wl.expected_failure(label, exc), f"{label}: {type(exc).__name__}: {exc}"
            continue
        assert wl.check(label, result) is None, label
