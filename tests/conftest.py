import os
import sys

# One BLAS thread, as the benchmark runs: the timing bounds of some tests
# assume no second thread waits for a busy core.  BLAS reads these once,
# when numpy is first imported, so that must not have happened yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"

import pytest  # noqa: E402

# One line per acceptance criterion, printed after the run so the verdicts
# survive pytest's output capture.
_ACCEPTANCE_LINES = []


@pytest.fixture
def record_criterion():
    def _record(num: int, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {num} ({name}): {status}"
        if detail:
            line += f" -- {detail}"
        _ACCEPTANCE_LINES.append((num, line))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
