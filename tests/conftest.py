import os
import sys
from pathlib import Path

# Run from a source checkout without an install: put `src` first on this
# process's path and on PYTHONPATH, which the `python -m thermops` children inherit.
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from thermops.core import gibbs_ladder  # noqa: E402


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(1234))


@pytest.fixture
def fig_state():
    # ground-heavy qutrit used throughout the cone comparisons
    return np.array([0.8, 0.16, 0.04])


@pytest.fixture
def qutrit_gamma():
    return gibbs_ladder(3, 0.5)
