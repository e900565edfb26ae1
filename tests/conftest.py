"""Helpers shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import trapwall

SRC = str(Path(trapwall.__file__).resolve().parents[1])


def fresh_python(*args, call=subprocess.run, **kwargs):
    """call([sys.executable, *args], **kwargs) in an environment that imports this trapwall.

    Interpreter flags such as -O go first in args, as on a command line.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return call([sys.executable, *args], env=env, **kwargs)
