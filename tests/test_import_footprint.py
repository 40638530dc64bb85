"""`import aoiq` loads no SciPy subpackage beyond what scipy.special needs.

Each further subpackage costs every process that imports aoiq resident
memory (scipy.linalg alone about 5 MB). The check runs in a fresh
interpreter, so modules the test session has already imported do not
count. Older SciPy releases load scipy.linalg from scipy.special itself;
what `import scipy.special` alone loads is therefore allowed.
"""

import os
import subprocess
import sys
from pathlib import Path

import aoiq

HEAVY = ("scipy.linalg", "scipy.integrate", "scipy.optimize",
         "scipy.interpolate", "scipy.sparse", "scipy.stats")


def heavy_modules_after(statement):
    """The HEAVY subpackages loaded after `statement` in a fresh
    interpreter that imports aoiq from this source tree."""
    src = str(Path(aoiq.__file__).resolve().parents[1])
    code = (f"import sys; {statement}; "
            "print(*sorted({'.'.join(m.split('.')[:2]) for m in sys.modules}))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "numpy" in out
    return {m for m in out if m in HEAVY}, set(out)


def test_import_loads_no_further_scipy_subpackage():
    heavy, loaded = heavy_modules_after("import aoiq")
    assert "scipy.special" in loaded
    baseline, _ = heavy_modules_after("import scipy.special")
    assert heavy <= baseline, f"import aoiq loads {sorted(heavy - baseline)}"
