"""Run divlab in a fresh interpreter, importing it from this tree's src/.

A test process has long since imported numpy, so whether a request loads it
can only be seen in a new interpreter.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def src_env():
    """os.environ with this tree's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def run_script(script, *args):
    """stdout of `python -c script *args` in a fresh interpreter; fails on a nonzero exit."""
    p = subprocess.run([sys.executable, "-c", script, *args], env=src_env(),
                       capture_output=True, text=True)
    if p.returncode:
        raise AssertionError(f"script exited {p.returncode}: {p.stderr[-2000:]}")
    return p.stdout
