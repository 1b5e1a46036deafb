"""The standard-library normal quantile and Student-t functions, against scipy and mpmath."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from metaborrow._dist import _norm_ppf, _t_cdf, _t_ppf

DFS = [*range(1, 61), 96, 100, 500, 650, 2306, 7496, 48000]
LEVELS = [0.5, 0.57, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9]
TS = [-1e-6, -1e-3, -0.3, -1.0, -1.96, -2.5, -4.0, -8.0, -20.0, -60.0, -300.0]

# F(t) at 50 digits from mpmath's incomplete beta (mpmath 1.3): where scipy 1.17 is off by
# more than 1e-12 (df 1, t = -1e-6), and where a continued fraction alone loses digits
# (large df near its switch point, at t^2 = 3 df / 7 and at BGRAT's df = 30 edge)
MPMATH_CDF = [
    (1, -1e-06, 0.49999968169011382),
    (2, -1e-06, 0.49999964644660941),
    (29, -1.96, 0.029833897759795662),
    (30, -1.96, 0.029671156448025238),
    (30, -3.5, 0.00073840371882212653),
    (30, -3.6, 0.00056558924242560466),
    (7496, -1.96, 0.025016391873367387),
    (10**6, -1.96, 0.024998033792634895),
    (10**6, -1e-3, 0.49960105788582454),
    (10**6, -30.0, 6.0100471168317189e-198),
    (3, -1e6, 1.1026577908396145e-18),
]


def test_t_cdf_matches_scipy():
    for df in DFS:
        for t in TS:
            if (df, t) == (1, -1e-6):
                continue  # scipy is off there; MPMATH_CDF holds the value
            want = float(special.stdtr(df, t))
            if want < 1e-300:  # underflowed in scipy: ours must be as small
                assert _t_cdf(df, t) < 1e-300, (df, t)
            else:
                assert _t_cdf(df, t) == pytest.approx(want, rel=1e-12, abs=0), (df, t)


@pytest.mark.parametrize("df,t,want", MPMATH_CDF)
def test_t_cdf_matches_mpmath(df, t, want):
    assert _t_cdf(df, t) == pytest.approx(want, rel=1e-12, abs=0)
    assert 1 - _t_cdf(df, -t) == pytest.approx(want, rel=1e-12, abs=1e-16)


# quantiles at 50 digits (mpmath findroot on the CDF) near the centre, where scipy 1.17's
# stdtrit is off by 1.3e-7 at df 4, and a line through F(0) = 1/2 alone by up to 1e-10
MPMATH_PPF = [
    (4, 0.4999901, -2.6400000003852281e-5),
    (30, 0.4999999, -2.5276002261960695e-7),
    (7496, 0.499999999, -2.5067119431425151e-9),
    (3, 0.499, -0.002720703521734023),
]


@pytest.mark.parametrize("df,p,want", MPMATH_PPF)
def test_t_ppf_matches_mpmath(df, p, want):
    assert _t_ppf(df, p) == pytest.approx(want, rel=1e-12, abs=0)


def test_t_ppf_matches_scipy():
    # the callers pass the lower tail (1 - level) / 2, which keeps the digits of 1 - level
    # that 0.5 + level / 2 rounds away (1e-7 of it at level 1 - 1e-9)
    for df in DFS:
        for level in LEVELS:
            for p in (0.5 + level / 2, (1 - level) / 2):
                want = float(special.stdtrit(df, p))
                assert _t_ppf(df, p) == pytest.approx(want, rel=1e-12, abs=0), (df, p)


def test_normal_quantile_matches_scipy():
    for level in LEVELS:
        for p in (0.5 + level / 2, (1 - level) / 2):
            assert _norm_ppf(p) == pytest.approx(float(special.ndtri(p)), rel=1e-14, abs=0)


def test_edge_values():
    for df in (1, 2, 7, 100, 48000):
        assert _t_cdf(df, -math.inf) == 0.0 and _t_cdf(df, math.inf) == 1.0
        assert math.isnan(_t_cdf(df, math.nan))
        assert _t_cdf(df, 0.0) == _t_cdf(df, -0.0) == _t_cdf(df, -6e-162) == 0.5
        assert _t_ppf(df, 0.5) == 0.0


def closed_form_tail(df, t):
    """F(t) for t < 0 at df 1 and 2, in forms without cancellation in the tail."""
    if df == 1:
        return math.atan(-1 / t) / math.pi
    s = math.sqrt(2 + t * t)
    return 1 / (s * (s - t))


def test_df_one_and_two_closed_forms():
    for df in (1, 2):
        for t in [-1e6, -300.0, -12.7, -3.0, -1.0, -0.4, -1e-6]:
            assert _t_cdf(df, t) == pytest.approx(closed_form_tail(df, t), rel=1e-13)
        for p in [1e-300, 1e-12, 1e-4, 0.025, 0.25, 0.3, 0.499]:
            t = _t_ppf(df, p)
            assert closed_form_tail(df, t) == pytest.approx(p, rel=1e-13)
    assert _t_ppf(1, 0.3) == pytest.approx(math.tan(-0.2 * math.pi), rel=1e-15)
    assert _t_ppf(2, 0.3) == pytest.approx(-0.4 / math.sqrt(0.42), rel=1e-15)


dfs = st.one_of(st.integers(1, 60), st.integers(61, 10**6))


@settings(deadline=None, max_examples=200)
@given(df=dfs, log_p=st.floats(-100, math.log10(0.5)), upper=st.booleans())
def test_cdf_inverts_ppf(df, log_p, upper):
    p = 10.0 ** log_p
    if upper:
        p = 1.0 - p
        assume(p < 1.0)
    got = _t_cdf(df, _t_ppf(df, p))
    tail = min(p, 1 - p)
    assert abs(got - p) <= 1e-12 * tail + 1e-16, (df, p, got)


@settings(deadline=None, max_examples=200)
@given(df=dfs, t=st.floats(0, 1e6))
def test_cdf_is_symmetric(df, t):
    assert abs(_t_cdf(df, -t) - (1.0 - _t_cdf(df, t))) <= 2.0 ** -53


def test_package_imports_no_scipy():
    # this session has scipy loaded, so the import runs in a fresh interpreter
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, metaborrow, metaborrow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
