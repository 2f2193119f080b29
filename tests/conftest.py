"""Shared fixtures: seeded random model draws, generic stable instances,
and a call budget that makes a search that never ends fail fast."""

import sys
from contextlib import contextmanager

import numpy as np
import pytest

from trimech.errors import DegenerateTrapError, UnstableSystemError
from trimech.linear import linear_model
from trimech.params import ModelParams
from trimech.steady import fixed_point

SEED = 20240917


def draw_model(rng, gamma2_exponents=(-8.0, -5.0)) -> ModelParams:
    """One physically plausible parameter draw (red-detuned, lab-like)."""
    omega1 = rng.uniform(2.0, 30.0)
    omega2 = rng.uniform(0.5, 0.9 * omega1)
    return ModelParams(
        omega1=omega1,
        omega2=omega2,
        gamma1=10.0 ** rng.uniform(-3.0, -2.0),
        gamma2=10.0 ** rng.uniform(*gamma2_exponents),
        g1=10.0 ** rng.uniform(-4.0, -2.5),
        g2=(1.0 if rng.uniform() < 0.2 else -1.0) * 10.0 ** rng.uniform(-11.0, -8.5),
        chi=10.0 ** rng.uniform(-3.5, -2.0),
        drive=10.0 ** rng.uniform(4.0, 10.0),
        n1=10.0 ** rng.uniform(1.0, 3.0),
        n2=10.0 ** rng.uniform(1.0, 3.0),
        detuning=-rng.uniform(0.5, 40.0),
        detuning_mode="effective",
    )


def stable_model_draws(count, seed=SEED, gamma2_exponents=(-8.0, -5.0)):
    """`count` stable draws with their fixed points and linear models."""
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("stable draw yield unexpectedly low")
        m = draw_model(rng, gamma2_exponents)
        try:
            s = fixed_point(m)
        except DegenerateTrapError:
            continue
        lm = linear_model(m, s)
        if lm.stable:
            out.append((m, s, lm))
    return out


def generic_stable_instances(count, seed=SEED):
    """Generic random stable (A, D) pairs, well away from marginality."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        R = rng.normal(size=(6, 6))
        shift = np.linalg.eigvals(R).real.max() + rng.uniform(0.05, 1.0)
        A = R - shift * np.eye(6)
        B = rng.normal(size=(6, 6))
        out.append((A, B @ B.T))
    return out


@pytest.fixture(scope="session")
def model_draws_100():
    return stable_model_draws(100)


@pytest.fixture(scope="session")
def model_draws_1000():
    return stable_model_draws(1000)


@pytest.fixture(scope="session")
def generic_instances_1000():
    return generic_stable_instances(1000)


@contextmanager
def call_budget(limit=100_000):
    """Raise AssertionError once the code in the block has made more than
    `limit` Python function calls, so that a loop that no longer ends
    fails fast instead of hanging; every bisection step calls one."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise AssertionError(f"more than {limit} Python calls")
    previous = sys.gettrace()
    sys.settrace(count)
    try:
        yield
    finally:
        sys.settrace(previous)
