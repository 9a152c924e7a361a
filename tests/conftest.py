"""Shared test oracles.

The quadrature oracle evaluates the defining integral of E1 directly with
adaptive quadrature; it shares no code with the Chebyshev-table
implementation under test.
"""

import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest
from scipy import optimize, special
from scipy.integrate import quad

from tdbcsim.system_model import FadingSampler

EULER_GAMMA = 0.5772156649015329
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def e1_quadrature(x: float) -> float:
    """Adaptive quadrature of the integral of exp(-t)/t from x to infinity."""
    value, _ = quad(lambda t: math.exp(-t) / t, x, np.inf,
                    epsabs=0.0, epsrel=1e-13, limit=400)
    return value


def log_cutoff_oracle(load: float) -> float:
    """ln z of the root of E1(z) = load, by Brent's method on scipy's E1 in
    ln z; E1(exp(t)) > load at t = -gamma - load - 1 and < load at t = 7
    for every load in [1e-300, 700]."""
    return optimize.brentq(lambda t: special.exp1(math.exp(t)) - load,
                           -EULER_GAMMA - load - 1.0, 7.0, xtol=1e-15, rtol=1e-15)


def scaled_gains(seed: int, omega_x: float, omega_y: float, n: int):
    """n channel states with mean gains omega_x and omega_y: the unit-mean
    draws of FadingSampler(seed) scaled by the means, as the Monte Carlo
    engine scales them."""
    x, y = FadingSampler(seed).sample_block(n)
    return omega_x * x, omega_y * y


def load_bench(name: str):
    """bench/<name>.py as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="session")
def e1_oracle():
    return e1_quadrature


@pytest.fixture
def count_e1(monkeypatch):
    """count_e1(module) rebinds the module's exp_integral_e1 to a wrapper
    that records each argument, and returns the list it records into."""
    def install(module):
        calls = []
        original = module.exp_integral_e1

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(module, "exp_integral_e1", counted)
        return calls
    return install
