"""Estimators: univariate oracle, sandwich conventions, degenerate cases."""

import numpy as np
import pytest
from scipy import stats
from summary_tables import pool

from metaborrow.data import Dataset
from metaborrow.errors import ConfigError, DataError, NumericalError
from metaborrow.estimate import (WeightedFit, _arm_weights, build_outcome_design,
                                 estimate_univariate, fit_ols, fit_weighted_regression,
                                 weighted_transpose)
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
    # s2 = (4*1 + 1*4)/3 = 8/3; control: single w = 2, y = 1: mean 1, s2 = 0
    d = dataset([1, 1, 0], [3.0, 0.0, 1.0], w=[2.0, 1.0, 2.0])
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


def test_univariate_degenerate_outcomes():
    const = estimate_univariate(dataset([1, 1, 0, 0], [5.0, 5.0, 3.0, 3.0]))
    assert const.estimate == 2.0 and const.se == 0.0
    assert const.stat == np.inf and const.p_value == 0.0
    null = estimate_univariate(dataset([1, 1, 0, 0], [3.0, 3.0, 3.0, 3.0]))
    assert null.stat == 0.0 and null.p_value == pytest.approx(1.0)


def test_undefined_statistic_has_no_p_value():
    # sums of +-1e308 overflow: every moment is infinite, so the SE is too: no contrast
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="standard error of the z contrast is inf"):
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
    with pytest.raises(ConfigError, match="unknown meat"):
        fit_weighted_regression(random_dataset(rng), meat="w5")


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
