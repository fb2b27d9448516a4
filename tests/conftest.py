"""Fixtures shared by the test modules."""

import pytest

from incidencelab import make_config, random_instance


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
