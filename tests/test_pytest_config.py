"""The pytest settings report a failing Hypothesis test like any other.

``filterwarnings`` in pyproject.toml turns every warning into an error.
To report a failing example Hypothesis imports libcst, whose import warns
that ``mypy_extensions.TypedDict`` is deprecated; as an error, that warning
would end the whole pytest run with an INTERNALERROR.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DEMO = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_demo.py").write_text(DEMO, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_demo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
