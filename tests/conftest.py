import numpy as np
import pytest

from thermops.core import gibbs_ladder


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
