"""Start-up cost: what `import trendgp.cli` loads, and the scipy.stats and
scipy.integrate calls replaced so that it need not load them.

The replacements call the same scipy.special functions with the same
arithmetic, so they must agree bit for bit with the calls they replaced.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import trapezoid
from scipy.stats import norm, t

from trendgp import reporting, simulation
from trendgp.estimation import HalfNormalPrior, HalfStudentTPrior, StudentTPrior

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Modules the CLI does not use on any command's start-up path.
UNUSED_AT_STARTUP = ("scipy.stats", "scipy.integrate", "urllib.request")


def test_cli_import_leaves_out_unused_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = (
        "import json, sys; import trendgp.cli; "
        f"print(json.dumps([m for m in {UNUSED_AT_STARTUP!r} if m in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


locs = st.floats(-1e3, 1e3)
scales = st.floats(1e-3, 1e3)
dfs = st.floats(1e-2, 1e3)
qs = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(loc=locs, scale=scales, df=dfs, q=qs)
def test_student_t_priors_match_scipy_stats(loc, scale, df, q):
    assert _bits(StudentTPrior(loc, scale, df).ppf(q)) == _bits(t.ppf(q, df, loc=loc, scale=scale))

    f0 = t.cdf(0.0, df, loc=loc, scale=scale)
    assume(f0 < 1.0)  # no mass left on [0, inf): the constructor rejects it
    half = HalfStudentTPrior(loc, scale, df)
    assert _bits(half._cdf0) == _bits(f0)
    assert _bits(half.ppf(q)) == _bits(t.ppf(f0 + q * (1.0 - f0), df, loc=loc, scale=scale))


@settings(max_examples=300, deadline=None)
@given(loc=locs, scale=scales, q=qs)
def test_half_normal_prior_matches_scipy_stats(loc, scale, q):
    f0 = norm.cdf(0.0, loc=loc, scale=scale)
    assume(f0 < 1.0)
    half = HalfNormalPrior(loc, scale)
    assert _bits(half._cdf0) == _bits(f0)
    assert _bits(half.ppf(q)) == _bits(norm.ppf(f0 + q * (1.0 - f0), loc=loc, scale=scale))


def test_z975_is_the_normal_quantile():
    assert _bits(reporting._Z975) == _bits(norm.ppf(0.975))


@pytest.mark.parametrize("seed", range(20))
def test_trapezoid_matches_scipy_integrate(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 600))
    x = np.sort(rng.uniform(-3.0, 5.0, n)) if seed % 2 else np.cumsum(rng.exponential(1.0, n))
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
    assert _bits(simulation._trapezoid(y, x)) == _bits(trapezoid(y, x))
