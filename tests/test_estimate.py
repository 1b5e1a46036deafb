"""Estimators: univariate oracle, sandwich conventions, degenerate cases."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from summary_tables import pool

from metaborrow.data import Dataset
from metaborrow.errors import ConfigError, DataError, NumericalError
from metaborrow.estimate import (MEAT_KINDS, WeightedFit, _arm_weights, _contrast,
                                 build_outcome_design, estimate_univariate, fit_ols,
                                 fit_weighted_regression, weighted_transpose)
from metaborrow.meta import MetaFit, meta_se


def dataset(z, y, x=None, w=None, tid="t"):
    """Target rows of one trial; ``x`` holds one covariate per row, or rows of several."""
    n = len(y)
    X = np.zeros((n, 1)) if x is None else np.asarray(x, dtype=float).reshape(n, -1)
    w = np.ones(n) if w is None else w
    return Dataset((tid,), np.zeros(n, int), z, y, X, w, np.ones(n, bool))


def random_dataset(rng, n=60, p=2):
    z = rng.integers(0, 2, n)
    z[:2] = [0, 1]  # both arms always present
    x = rng.normal(size=(n, p))
    y = rng.normal(size=n) + z + x[:, 0]
    w = rng.uniform(0.5, 2.0, n)
    return dataset(z, y, x, w)


# ---------------------------------------------------------------- univariate

def test_univariate_unit_weight_oracle():
    # arms (4, 2 | 3, 1): means 3 and 2, s2 = 1 each, var = 1/2 + 1/2 = 1
    d = dataset([1, 1, 0, 0], [4.0, 2.0, 3.0, 1.0])
    est = estimate_univariate(d)
    assert est.estimate == pytest.approx(1.0)
    assert est.se ** 2 == pytest.approx(1.0)
    assert est.se == pytest.approx(1.0)
    assert _arm_weights(d.z, d.w) == [2.0, 2.0]
    assert est.stat == pytest.approx(1.0) and est.df is None
    assert est.p_value == pytest.approx(2 * stats.norm.sf(1.0))
    assert est.ci_low == pytest.approx(1.0 - stats.norm.ppf(0.975))
    assert est.ci_high == pytest.approx(1.0 + stats.norm.ppf(0.975))


def test_univariate_p_value_and_interval_match_scipy():
    # arms (m + 1, m - 1 | 1, -1): delta = m and se = 1, so z = m
    for m in [0.1, 1.0, 1.96, 5.0, 10.0, 37.0]:
        est = estimate_univariate(dataset([1, 1, 0, 0], [m + 1, m - 1, 1.0, -1.0]))
        assert est.p_value == pytest.approx(2 * stats.norm.sf(est.stat), rel=1e-12, abs=0)
        assert est.ci_high - est.estimate == pytest.approx(stats.norm.ppf(0.975) * est.se,
                                                        rel=1e-12)


def test_univariate_weighted_oracle():
    # treated: w = (2, 1), y = (3, 0): n_eff 3, mean 2,
    # s2 = (4*1 + 1*4)/3 = 8/3; control: w = (1, 1), y = (1, 1): mean 1, s2 = 0
    d = dataset([1, 1, 0, 0], [3.0, 0.0, 1.0, 1.0], w=[2.0, 1.0, 1.0, 1.0])
    est = estimate_univariate(d)
    assert est.estimate == pytest.approx(1.0)
    assert _arm_weights(d.z, d.w)[1] == pytest.approx(3.0)
    assert est.se ** 2 == pytest.approx((8 / 3) / 3 + 0.0)


def test_univariate_invariant_to_weight_scale():
    rng = np.random.default_rng(0)
    d = random_dataset(rng)
    base = estimate_univariate(d)
    scaled = estimate_univariate(d.with_weights(10.0 * d.w))
    assert scaled.estimate == pytest.approx(base.estimate, rel=1e-12)
    assert scaled.se ** 2 == pytest.approx(base.se ** 2, rel=1e-12)


def test_univariate_keeps_an_arm_whose_squared_weights_underflow():
    # each squared control weight of 1.5e-162 underflows to 0: that arm's variance read as
    # 0, and the SE as the treated arm's alone, 0.354 against 0.5 at unit weights
    d = dataset([1, 1, 0, 0], [2.0, 3.0, 1.0, 2.0], w=[1.0, 1.0, 1.5e-162, 1.5e-162])
    assert estimate_univariate(d).se == 0.5 == estimate_univariate(dataset(d.z, d.y)).se


def test_univariate_keeps_an_arm_whose_weighted_outcomes_overflow():
    # each control weight of 1e306 times its outcome passes the float range: that arm's
    # mean read as inf, and the contrast was refused with an infinite SE
    d = dataset([1, 1, 0, 0], [2e3, 3e3, 1e3, 2e3], w=[1.0, 1.0, 1e306, 1e306])
    assert repr(estimate_univariate(d)) == repr(estimate_univariate(dataset(d.z, d.y)))
    assert estimate_univariate(d).se == 500.0


def outcome_or_error(d):
    """``estimate_univariate(d)``'s Contrast, or the message of the error it raises."""
    try:
        return estimate_univariate(d)
    except NumericalError as exc:
        return str(exc)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(-10**6, 10**6).map(lambda v: v / 1e3),
                          st.floats(2**-10, 2**4)),
                min_size=2, max_size=12).filter(lambda rows: {z for z, _, _ in rows} == {0, 1}),
       st.integers(0, 1), st.integers(-1000, 1000))
def test_univariate_is_exactly_invariant_to_a_power_of_two_arm_scale(rows, arm, k):
    # 2^k times one arm's weights is exact and leaves every bit of the contrast unchanged,
    # or the same refusal; weights and outcomes are ranged so that no w y of the arm mean
    # leaves the normal float range at any k, and only the squares could
    z, y, w = (np.array(col) for col in zip(*rows))
    base = dataset(z, y, w=w)
    scaled = base.with_weights(np.where(z == arm, np.ldexp(w, k), w))
    assert repr(outcome_or_error(scaled)) == repr(outcome_or_error(base))


def test_univariate_degenerate_outcomes():
    # constant outcomes in each arm: SE 0, so no contrast, not an infinite statistic and p 0
    for y in ([5.0, 5.0, 3.0, 3.0], [3.0, 3.0, 3.0, 3.0]):
        with pytest.raises(NumericalError, match=r"^standard error of the z contrast is 0\.0$"):
            estimate_univariate(dataset([1, 1, 0, 0], y))


def test_undefined_statistic_has_no_p_value():
    # outcomes of +-1e308: each arm mean, taken on weights scaled to sum below 1, is finite
    # and each arm's spread is 0, so the SE is 0 (the difference overflows): no contrast
    with pytest.raises(NumericalError, match=r"^standard error of the z contrast is 0\.0$"):
        estimate_univariate(dataset([1, 1, 0, 0], [1e308, 1e308, -1e308, -1e308]))
    # a NaN standard error leaves t undefined even for a finite estimate: no contrast
    fit = WeightedFit(beta=np.array([0.0, 2.0]), cov_beta=np.diag([1.0, np.nan]),
                      columns=("intercept", "z"), n=10, df=8, meat="w4",
                      n_eff_treated=5.0, n_eff_control=5.0)
    with pytest.raises(NumericalError, match="standard error of the z contrast is nan"):
        fit.z_contrast()
    with np.errstate(all="raise"):
        est, se = fit.coef("z")
    assert est == 2.0 and np.isnan(se)


def test_negative_variance_has_a_nan_standard_error():
    # a variance rounded below zero gives NaN, without numpy's invalid-sqrt warning
    fit = WeightedFit(beta=np.array([0.0, 2.0]), cov_beta=np.diag([1.0, -269.0]),
                      columns=("intercept", "z"), n=10, df=8, meat="hc0",
                      n_eff_treated=5.0, n_eff_control=5.0)
    with np.errstate(all="raise"):
        est, se = fit.coef("z")
    assert est == 2.0 and np.isnan(se)
    with pytest.raises(NumericalError, match="standard error of the z contrast is nan"):
        fit.z_contrast()
    assert fit.coef("intercept") == (0.0, 1.0)


def test_univariate_zero_weight_arm_rejected():
    with pytest.raises(DataError, match="zero total weight"):
        estimate_univariate(dataset([1, 1, 0], [1.0, 2.0, 3.0], w=[1.0, 1.0, 0.0]))


def test_univariate_refuses_an_arm_of_kish_size_one():
    # one row in an arm, or all of an arm's weight on one row: its variance has no degrees
    # of freedom, so no contrast, not an SE of 0 and p = 0; a weight whose square
    # underflows is no way round it
    for z, y, w in (([1, 1, 0], [3.0, 1.0, 2.0], None),
                    ([1, 1, 0, 0], [3.0, 1.0, 2.0, 4.0], [1.0, 1.0, 2.0, 0.0]),
                    ([1, 1, 0], [3.0, 1.0, 2.0], [1.0, 1.0, 1e-300])):
        with pytest.raises(NumericalError, match=r"^arm 0 has Kish effective size \(sum w\)\^2 "
                                                 r"/ sum w\^2 <= 1; its variance is not "):
            estimate_univariate(dataset(z, y, w=w))
    # weights whose squares overflow are scaled first: the unit-weight contrast, not an
    # infinite SE
    z, y = [1, 1, 0, 0, 0], [3.0, 1.0, 2.0, 4.0, 4.0]
    huge = estimate_univariate(dataset(z, y, w=[1.0, 1.0, 1e300, 1e300, 1e300]))
    unit = estimate_univariate(dataset(z, y))
    assert huge.estimate == pytest.approx(unit.estimate, rel=1e-15)
    assert huge.se == pytest.approx(unit.se, rel=1e-15)
    # just above one: estimable
    est = estimate_univariate(dataset([1, 1, 0, 0], [3.0, 1.0, 2.0, 4.0],
                                      w=[1.0, 1.0, 1.0, 1e-6]))
    assert est.se > 0 and np.isfinite([est.estimate, est.stat, est.ci_low, est.ci_high]).all()


@pytest.mark.parametrize("df", [None, 8])
def test_contrast_refuses_what_is_not_estimable(df):
    # an SE that is not positive, or an estimate, statistic or interval that is not finite:
    # no contrast, not an infinite statistic with p = 0 or an interval of infinities
    for est, se, message in ((1.0, 0.0, "standard error of the z contrast is 0.0"),
                             (0.0, 0.0, "standard error of the z contrast is 0.0"),
                             (1.0, -1.0, "standard error of the z contrast is -1.0"),
                             (1.0, np.nan, "standard error of the z contrast is nan"),
                             (np.inf, 1.0, "z contrast not finite: estimate inf, "),
                             (-np.inf, 1.0, "z contrast not finite: estimate -inf, "),
                             (np.nan, 1.0, "z contrast not finite: estimate nan, "),
                             (1e10, 1e-300, "standard error 1e-300, statistic inf, "),
                             (1e308, 1e308, "statistic 1.0, interval [")):
        with pytest.raises(NumericalError, match=re.escape(message)):
            _contrast(est, se, 0.95, df)
    tiny = _contrast(1.0, 2.0 ** -900, 0.95, df)
    assert tiny.stat == 2.0 ** 900 and tiny.p_value == 0.0
    assert tiny.ci_low == tiny.ci_high == 1.0


# ---------------------------------------------------------------- regression

def test_weighted_regression_matches_normal_equations():
    rng = np.random.default_rng(1)
    d = random_dataset(rng)
    fit = fit_weighted_regression(d, include_interaction=True, meat="hc0")
    X, names = build_outcome_design(d, True, True)
    w, y = d.w, d.y
    beta = np.linalg.solve((X.T * w) @ X, (X.T * w) @ y)
    assert fit.beta == pytest.approx(beta, rel=1e-12)
    assert fit.columns == names == ("intercept", "z", "x1", "x2", "z:x1", "z:x2")
    assert fit.df == len(y) - 6


@pytest.mark.parametrize("covariates,interaction",
                         [(False, False), (True, False), (True, True)])
def test_outcome_design_is_column_major_column_stack(covariates, interaction):
    # the products in _wls and the sandwich read contiguous columns
    d = random_dataset(np.random.default_rng(11), n=40, p=3)
    X, names = build_outcome_design(d, covariates, interaction)
    z, x = d.z.astype(float), d.X
    cols = [np.ones(len(d)), z]
    if covariates:
        cols += [x[:, j] for j in range(3)]
        if interaction:
            cols += [z * x[:, j] for j in range(3)]
    assert X.flags.f_contiguous and not X.flags.c_contiguous
    assert X.tobytes() == np.column_stack(cols).tobytes()
    assert len(names) == X.shape[1] == len(cols)


def test_interaction_without_covariates_is_a_config_error():
    d = random_dataset(np.random.default_rng(12))
    with pytest.raises(ConfigError, match="interaction needs the covariates"):
        build_outcome_design(d, include_covariates=False, include_interaction=True)
    with pytest.raises(ConfigError, match="interaction needs the covariates"):
        fit_weighted_regression(d, include_covariates=False, include_interaction=True)


def test_sandwich_meat_conventions():
    # cov must scale as c^(power - 2) when every weight is multiplied by c,
    # pinning the w^4 / w^3 / w^2 middle-matrix conventions
    rng = np.random.default_rng(2)
    d = random_dataset(rng)
    scaled = d.with_weights(10.0 * d.w)
    for meat, factor in (("hc0", 1.0), ("w3", 10.0), ("w4", 100.0)):
        base = fit_weighted_regression(d, meat=meat)
        up = fit_weighted_regression(scaled, meat=meat)
        assert up.beta == pytest.approx(base.beta, rel=1e-10)
        assert up.cov_beta == pytest.approx(factor * base.cov_beta, rel=1e-10)


def test_meat_ordering_on_informative_weights():
    rng = np.random.default_rng(3)
    d = random_dataset(rng, n=200)
    ses = {m: fit_weighted_regression(d, meat=m).coef("z")[1]
           for m in ("hc0", "w3", "w4")}
    assert ses["hc0"] < ses["w3"] < ses["w4"]


def test_contrast_uses_t_reference():
    rng = np.random.default_rng(4)
    d = random_dataset(rng, n=30)
    fit = fit_weighted_regression(d, include_covariates=False, meat="hc0")
    ct = fit.z_contrast(level=0.90)
    est, se = fit.coef("z")
    tq = stats.t.ppf(0.95, fit.df)
    assert (ct.estimate, ct.se, ct.df) == (est, se, fit.df)
    assert ct.ci_low == pytest.approx(est - tq * se)
    assert ct.ci_high == pytest.approx(est + tq * se)
    assert ct.p_value == pytest.approx(2 * stats.t.sf(abs(est / se), fit.df))
    with pytest.raises(DataError, match="no column"):
        fit.coef("x9")


@pytest.mark.parametrize("level", [0, 1, 1.5, float("nan"), True])
def test_library_calls_check_the_level(level):
    # each interval-building call refuses a level outside (0, 1), so a library caller gets
    # a ConfigError (exit 2) rather than a NaN or zero-width interval
    d = random_dataset(np.random.default_rng(1))
    fit = fit_weighted_regression(d)
    meta = MetaFit(beta=np.zeros(1), cov_beta=np.eye(1), tau2=0.0, q_stat=0.0, df=1,
                   columns=("intercept",))
    for call in (fit.z_contrast, lambda lv: estimate_univariate(d, lv),
                 lambda lv: meta_se(meta, lv)):
        with pytest.raises(ConfigError, match=r"level must be a number in \(0, 1\)"):
            call(level)


def test_zero_weight_rows_drop_out_exactly():
    rng = np.random.default_rng(5)
    target = random_dataset(rng, n=40)
    y, x = zip(*[(rng.normal(), rng.normal(size=2)) for _ in range(30)])
    padding = Dataset(("pad",), np.zeros(30, int), np.arange(30) % 2, y, x, np.zeros(30),
                      np.zeros(30, bool))
    padded = pool((target, padding))
    base = fit_weighted_regression(target, meat="hc0")
    wide = fit_weighted_regression(padded, meat="hc0")
    assert wide.beta == pytest.approx(base.beta, rel=1e-12)
    assert wide.cov_beta == pytest.approx(base.cov_beta, rel=1e-12)


def test_rank_deficient_design_names_columns():
    rng = np.random.default_rng(6)
    z = rng.integers(0, 2, 40)
    z[:2] = [0, 1]
    x1 = rng.normal(size=40)
    d = dataset(z, rng.normal(size=40), [(v, 2.0 * v) for v in x1])
    with pytest.raises(NumericalError, match="rank deficient"):
        fit_weighted_regression(d)


def test_singular_normal_equations_are_a_numerical_error(monkeypatch):
    # a design of full rank whose normal equations the solver still finds
    # singular (condition number squared) fails as NumericalError, not LinAlgError
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    d = random_dataset(np.random.default_rng(8))
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(NumericalError, match="rank deficient"):
        fit_weighted_regression(d)
    with pytest.raises(NumericalError, match="rank deficient"):
        fit_ols(d)


def test_unestimable_configurations_rejected():
    rng = np.random.default_rng(7)
    single_arm = dataset([1, 1, 1, 1, 1, 1], rng.normal(size=6))
    with pytest.raises(DataError, match="zero total weight"):
        fit_weighted_regression(single_arm, include_covariates=False)
    with pytest.raises(DataError, match="arm 0 has zero total weight"):
        fit_ols(single_arm)
    tiny = dataset([1, 0], [1.0, 2.0])
    with pytest.raises(DataError, match="need more than"):
        fit_weighted_regression(tiny)
    with pytest.raises(ConfigError) as info:
        fit_weighted_regression(random_dataset(rng), meat="w5")
    assert str(info.value) == "meat must be one of ('w4', 'w3', 'hc0'), got 'w5'"


@pytest.mark.parametrize("meat", [*MEAT_KINDS, "ols"])
def test_fit_exact_to_rounding_is_refused(meat):
    # arm means 1 and 2 with residuals +-a: the sandwich SE is built from rounding alone
    # when max|e| <= 64 eps max|y| = 128 eps here, and the fit is refused; at 256 eps it
    # stands.  The rows of weight 0 are not fitted, so their residuals do not count.
    eps = np.finfo(float).eps

    def fit(a):
        z, y = [0, 0, 1, 1], [1 + a, 1 - a, 2 + a, 2 - a]
        if meat == "ols":  # all rows count: a third row per arm on x1 = 1, residual 0
            return fit_ols(dataset(z + [0, 1], y + [1.0, 2.0], [0, 0, 0, 0, 1, 1]))
        d = dataset(z + [0, 1], y + [40.0, -9.0], w=[1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        return fit_weighted_regression(d, include_covariates=False, meat=meat)

    for a in (0.0, 32 * eps):
        with pytest.raises(NumericalError, match=r"^outcome fit is exact to rounding "):
            fit(a)
    ct = fit(256 * eps).z_contrast()
    assert ct.estimate == pytest.approx(1.0) and 1e12 < ct.stat < 1e14


def test_precise_fit_with_a_large_t_stands():
    # outcome noise of 1e-6: a t near 1e7 and p = 0, but residuals far above rounding
    rng = np.random.default_rng(4)
    z = np.arange(60) % 2
    x = rng.normal(size=60)
    y = 1.0 + 2.0 * z - x + 1e-6 * rng.normal(size=60)
    ct = fit_weighted_regression(dataset(z, y, x)).z_contrast()
    assert ct.estimate == pytest.approx(2.0) and abs(ct.stat) > 1e6
    assert np.isfinite([ct.se, ct.ci_low, ct.ci_high]).all() and ct.se > 0


def test_ols_matches_closed_form():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, n=50)
    fit = fit_ols(d)
    X, _ = build_outcome_design(d, True, False)
    y = d.y
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert fit.beta == pytest.approx(beta, rel=1e-10)
    e = y - X @ beta
    sigma2 = e @ e / (50 - X.shape[1])
    assert fit.cov_beta == pytest.approx(sigma2 * np.linalg.inv(X.T @ X), rel=1e-10)
    assert fit.meat == "homoskedastic"
    # weights are ignored by design
    reweighted = fit_ols(d.with_weights([3.0] * 50))
    assert reweighted.beta == pytest.approx(fit.beta, rel=1e-14)


def test_estimators_agree_on_saturated_two_group_problem():
    # with design (1, z) and unit weights, the regression z coefficient is
    # exactly the difference in arm means
    rng = np.random.default_rng(10)
    z = np.r_[np.ones(15), np.zeros(25)]
    y = rng.normal(size=40) + 2.0 * z
    d = dataset(z, y)
    uni = estimate_univariate(d)
    reg = fit_weighted_regression(d, include_covariates=False, meat="hc0")
    assert reg.coef("z")[0] == pytest.approx(uni.estimate, rel=1e-12)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_weighted_transpose_is_broadcast_product_bit_for_bit(layout):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((301, 4))
    A = {"C": A, "F": np.asfortranarray(A), "strided": A[::2]}[layout]
    v = rng.random(len(A)) * 3.0
    got, want = weighted_transpose(A, v), A.T * v
    assert got.strides == want.strides
    assert np.array_equal(got, want)
    assert np.array_equal(got @ A, want @ A)
