"""The narrative demos and the README's python tour run to completion against this
checkout's src/, each in about a second or less."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", ["01_bulk_density.py", "02_largest_eigenvalue_cdf.py",
                                  "03_kernel_structure.py", "04_group_integrals.py"])
def test_demo_runs(demo):
    proc = run_python(["-W", "error", str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_python_block_runs():
    # the library tour is the README's one python block; it used names it never defined
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    proc = run_python(["-W", "error", "-c", blocks[0]])
    assert proc.returncode == 0, proc.stderr
