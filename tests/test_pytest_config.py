"""The pytest settings in ``pyproject.toml``, run on a probe module."""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Every warning is an error here; one raised while the hypothesis plugin
    # reports a failure must not end the session before the next test runs.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(INI), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in proc.stdout, output
