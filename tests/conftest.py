"""Fixtures shared by the test modules."""

import pytest

from incidencelab import make_config, primitive_root, random_instance, subgroup


def _draw(seed, params):
    """One trial drawn as `run` draws it, from the config `make_config`
    resolves: `params` holds the experiment, the modulus q, the trial (0
    when absent) and the experiment's parameters."""
    given = dict(params)
    q, trial = given.pop("q", None), given.pop("trial", 0)
    return random_instance(make_config(given, moduli=(q,), seed=seed), q, trial)


@pytest.fixture
def draw():
    return _draw


def _all_subgroups(p):
    """Every subgroup of the cyclic group Z_p^* at an odd prime p, one per
    divisor of p - 1 in increasing order, each from a power of the primitive
    root: the oracle for every subgroup at small p and for the energy draw,
    which builds only the subgroup it picks."""
    g = primitive_root(p)
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    return [subgroup(p, pow(g, (p - 1) // d, p)) for d in divisors]


@pytest.fixture
def all_subgroups():
    return _all_subgroups
