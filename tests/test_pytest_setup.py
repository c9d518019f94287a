"""The pytest configuration in ``pyproject.toml`` reports a failing property.

It turns every ``DeprecationWarning`` into an error. Hypothesis imports
libcst to explain a falsified example, and that import warns; unless the
configuration ignores that one warning, the session ends in an
``INTERNALERROR`` and the failing test's report is lost.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FALSIFIED = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 10
'''


def test_falsified_property_is_reported(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         str(tmp_path / "test_falsified.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
