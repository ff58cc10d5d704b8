"""The project's pytest configuration: a failing test ends as a failure, not the session."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = textwrap.dedent(
    """
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(derandomize=True, database=None)
    @given(st.integers())
    def test_fails(x):
        assert x < 10


    def test_passes():
        pass
    """
)


def test_failing_hypothesis_test_lets_the_next_test_run(tmp_path):
    # every warning is an error under this configuration, so a warning raised
    # while hypothesis reports the failure must not become an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
    assert run.returncode == 1
