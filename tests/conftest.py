import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import contactpath
from contactpath.flat_model import frame_keys

# two non-standard middle forms omega with omega omega^T != 1, for n = 3 and 4
RATIONAL_OMEGAS = [
    [[0, Fraction(3, 2)], [Fraction(-3, 2), 0]],
    [[0, Fraction(1, 2), 0, 1], [Fraction(-1, 2), 0, 3, 0], [0, -3, 0, -1], [-1, 0, 1, 0]],
]


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
    return frame_keys(name)[0]
