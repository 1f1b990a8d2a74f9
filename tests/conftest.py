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


@pytest.fixture
def oracle_battery():
    """Factory of the ``oracle-battery`` round of the benchmark: ``make(seed)`` returns
    ``(inst, s)`` pairs, ``s`` the seed its cross-check samples with.  Eight
    ``random_polytope_instance(s)`` of each dimension 1 to 6, their seeds the first drawn
    from ``default_rng([seed, 1])``; the 25 default ``oracle-check`` transport instances;
    and polytopes 4 and 43 with their costs times 1e6."""
    from qreglp.oracle import random_cost_matrix, random_polytope_instance
    from qreglp.ot import build

    def make(seed):
        rng = np.random.default_rng([seed, 1])
        chosen = {d: [] for d in range(1, 7)}
        while any(len(v) < 8 for v in chosen.values()):
            s = int(rng.integers(0, 2**31 - 1))
            inst = random_polytope_instance(s)
            if len(chosen[inst.polytope.dim]) < 8:
                chosen[inst.polytope.dim].append((inst, s))
        out = [pair for d in range(1, 7) for pair in chosen[d]]
        for s in range(10_000, 10_025):
            n = int(np.random.default_rng(s).integers(2, 6))
            out.append((build(cost=random_cost_matrix(s, n)).qlp(), s))
        for s in (4, 43):
            inst = random_polytope_instance(s)
            out.append((QlpInstance(inst.polytope, inst.c * 1e6), s))
        return out

    return make
