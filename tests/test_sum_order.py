"""Records do not depend on how the interpreter sums floats.

CI runs Python 3.10, 3.11 and 3.12, and 3.12's builtin ``sum`` of floats is
compensated.  The golden suites run here in a fresh interpreter with that
algorithm installed (the :mod:`neumaier_sum` plugin); they pass only if
every float that feeds a record is summed left to right by
:func:`repro.floatsum.ordered_sum`.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.floatsum import ordered_sum

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SUITES = ("test_wrapper_golden.py", "test_relaxation_golden.py", "test_fill_golden.py")


def test_ordered_sum_adds_left_to_right():
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0 and ordered_sum((w for w in (2, 3))) == 5


def test_golden_suites_pass_under_compensated_sum():
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "neumaier_sum", "-p", "no:cacheprovider",
        *(str(ROOT / "tests" / suite) for suite in GOLDEN_SUITES),
    ]
    run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
