import os
import random
import subprocess
import sys

import pytest

import contactpath


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def run_python():
    """`run_python(*args)` runs a fresh interpreter on `args`, importing the
    package from where this process found it, and returns the finished
    process with its output as bytes.  A child still running after 60 s is
    killed and fails the test, so a loop that never ends cannot hang the
    suite."""
    src = os.path.dirname(os.path.dirname(contactpath.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)

    return run


def capitalized(name):
    """Map an algebra basis name to the matching frame field key."""
    if name.startswith("t"):
        return "T" + name[1:]
    return name[0].upper() + name[1:]
