"""Every demo script runs to completion against the package in this checkout."""
import subprocess
import sys

import pytest

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_runtime_imports_numpy_alone():
    # scipy is a test dependency only: solving every activation family,
    # oracle included, must not import it
    code = ("import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
            "sys.exit('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "demos" / "activation_zoo.py")],
                          cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"
