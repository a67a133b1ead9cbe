"""The suite's pytest settings must let a failing Hypothesis property report
its falsifying example (warnings are errors, see pyproject.toml)."""
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(n):
            assert n < 10
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
