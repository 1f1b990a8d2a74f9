import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qreglp import PolytopeSpec, QlpInstance

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def interval():
    return PolytopeSpec.interval(0.0, 1.0)


@pytest.fixture
def interval_inst(interval):
    # The sharp textbook example: minimize -x + x^2/eta on [0, 1].
    return QlpInstance(interval, np.array([-1.0]))


@pytest.fixture
def square():
    return PolytopeSpec.box([0.0, 0.0], [1.0, 1.0])


@pytest.fixture
def generic_d6():
    """Factory of ``analyze-vertex``-style polytopes: the unit box in d = 6 cut by ten unit
    halfspaces through an interior anchor.  ``make(seed)`` returns ``(G, h, c)`` with a
    standard-normal cost ``c``, drawn from ``default_rng([seed, 3])``."""

    def make(seed):
        rng = np.random.default_rng([seed, 3])
        d = 6
        anchor = rng.uniform(0.3, 0.7, size=d)
        G, h = [np.eye(d), -np.eye(d)], [np.ones(d), np.zeros(d)]
        for _ in range(10):
            g = rng.normal(size=d)
            g /= np.linalg.norm(g)
            G.append(g[None, :])
            h.append([float(g @ anchor) + rng.uniform(0.05, 0.3)])
        return np.vstack(G), np.concatenate(h), rng.normal(size=d)

    return make
