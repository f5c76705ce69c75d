import os
import subprocess
import sys
from pathlib import Path

import adelicbrs

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_resolve_once():
    names = adelicbrs.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(adelicbrs, name), name


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 3
