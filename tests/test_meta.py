"""Meta-regression: hand-checked moment-estimator oracles and the arm-level design."""

import numpy as np
import pytest

from summary_tables import arm_row, table

from metaborrow.errors import DataError, NumericalError
from metaborrow.meta import fit_dl, meta_se


def trial(tid, y_treat, y_ctrl, n=4, y_var=4.0, x_mean=0.0, p=1):
    # y_var = n so each arm row enters with mean-variance y_var / n = 1;
    # the p covariates all have mean x_mean
    return [arm_row(tid, armv, n, ym, y_var, (x_mean,) * p, (1.0,) * p)
            for armv, ym in ((1, y_treat), (0, y_ctrl))]


def stack(trials):
    """One table of the trials' arm rows, trials in the given order."""
    return table(*(a for t in trials for a in t))


def test_unequal_variance_moment_oracle():
    # (intercept, arm) spans the two arm groups, so the fit is one weighted mean per
    # group and c = sum over groups of (S1 - S2 / S1), S_k = sum(w**k).
    # control means (0, 2, 4), v = 1: mean 2, Q share 8, c share 3 - 3/3 = 2;
    # treated means (1, 1, 1), v = (1, 1/2, 1/4): mean 1, Q share 0, c share 7 - 21/7 = 4.
    # So beta = (2, -1), Q = 8, tau2 = (8 - (6 - 2)) / 6 = 2/3, and the refit weights
    # 1/(v + 2/3) sum to Sc = 9/5 (control) and St = 3/5 + 6/7 + 12/11 = 981/385
    # (treated): cov = [[1/Sc, -1/Sc], [-1/Sc, 1/Sc + 1/St]].
    s = table(*(arm_row(tid, armv, 4, ym, 4 * v, (), ())
                for tid, y_ctrl, v_treat in (("a", 0.0, 1.0), ("b", 2.0, 0.5), ("c", 4.0, 0.25))
                for armv, ym, v in ((1, 1.0, v_treat), (0, y_ctrl, 1.0))))
    fit = fit_dl(s)
    assert fit.columns == ("intercept", "arm")
    assert fit.beta == pytest.approx([2.0, -1.0])
    assert fit.q_stat == pytest.approx(8.0)
    assert fit.tau2 == pytest.approx(2.0 / 3.0)
    sc, st = 9 / 5, 981 / 385
    assert fit.cov_beta == pytest.approx(np.array([[1 / sc, -1 / sc],
                                                   [-1 / sc, 1 / sc + 1 / st]]))
    assert fit.df == 4


def test_arm_design_moment_oracle():
    # treat means (3, 7), control means (1, 1), all row variances 1:
    # beta = (1, 4), Q = 8, tau2 = 3, cov = [[2, -2], [-2, 4]].
    trials = [trial("a", 3.0, 1.0, p=0), trial("b", 7.0, 1.0, p=0)]
    fit = fit_dl(stack(trials))
    assert fit.columns == ("intercept", "arm")
    assert fit.beta == pytest.approx([1.0, 4.0])
    assert fit.q_stat == pytest.approx(8.0)
    assert fit.tau2 == pytest.approx(3.0)
    assert fit.cov_beta == pytest.approx(np.array([[2.0, -2.0], [-2.0, 4.0]]))


def test_tau2_truncated_at_zero_when_homogeneous():
    # control means (0, 0.1, -0.1), treated means all 1, v = 1: Q = 0.02 < R - q = 4
    trials = [trial("a", 1.0, 0.0, p=0), trial("b", 1.0, 0.1, p=0), trial("c", 1.0, -0.1, p=0)]
    fit = fit_dl(stack(trials))
    assert fit.tau2 == 0.0
    assert fit.q_stat == pytest.approx(0.02)
    assert fit.beta == pytest.approx([0.0, 1.0], abs=1e-12)
    # with tau2 = 0 the refit equals the fixed-effect stage: (X'X)^-1, X'X = [[6, 3], [3, 3]]
    assert fit.cov_beta == pytest.approx(np.array([[1 / 3, -1 / 3], [-1 / 3, 2 / 3]]))


def test_fit_invariant_to_row_order():
    trials = [trial("a", 3.0, 1.0, x_mean=-1.0), trial("b", 7.0, 2.0, x_mean=2.0),
              trial("c", 5.0, 1.5, x_mean=0.5)]
    f1 = fit_dl(stack(trials))
    f2 = fit_dl(stack(trials[::-1]))
    assert f1.beta == pytest.approx(f2.beta)
    assert f1.tau2 == pytest.approx(f2.tau2)
    assert f1.q_stat == pytest.approx(f2.q_stat)


def test_interaction_fit_recovers_generating_coefficients():
    # arm means exactly a + b*arm + c*x + d*arm*x: Q = 0, so tau2 = 0 and beta = (a, b, c, d)
    # only if the fourth column is arm * x1_mean row by row
    a, b, c, d = 0.5, 2.0, -0.75, 1.25
    s = table(*(arm_row(tid, armv, 4, a + b * armv + c * x + d * armv * x, 4.0, (x,), (1.0,))
                for tid, x_treat, x_ctrl in (("a", -1.0, 0.5), ("b", 2.0, 1.0), ("c", 0.25, -2.0))
                for armv, x in ((1, x_treat), (0, x_ctrl))))
    fit = fit_dl(s, include_interaction=True)
    assert fit.columns == ("intercept", "arm", "x1_mean", "arm:x1_mean")
    assert fit.df == 6 - 4
    assert fit.beta == pytest.approx([a, b, c, d], rel=1e-12, abs=1e-12)
    assert fit.tau2 == 0.0


def test_build_design_rejects_degenerate_inputs():
    with pytest.raises(DataError, match="at least"):
        fit_dl(stack([trial("a", 3.0, 1.0)]))  # 2 rows for 3 columns
    one_armed = [arm_row(tid, 1, 5, y_mean, 1.0, (), ())
                 for tid, y_mean in (("a", 1.0), ("b", 2.0), ("c", 3.0))]
    with pytest.raises(DataError, match="share one arm"):
        fit_dl(table(*one_armed))
    zero_var = [arm_row("z", 1, 5, 1.0, 0.0, (), ()), arm_row("z", 0, 5, 0.0, 1.0, (), ())]
    with pytest.raises(DataError, match="^trial 'z' arm 1: zero-variance arm rejected$"):
        fit_dl(stack([zero_var, trial("a", 3.0, 1.0, p=0)]))
    empty = [arm_row("e", 1, 5, 1.0, 1.0, (), ()), arm_row("e", 0, 0, 0.0, 1.0, (), ())]
    with pytest.raises(DataError, match="^trial 'e' arm 0: empty arm in meta design$"):
        fit_dl(stack([trial("a", 3.0, 1.0, p=0), empty]))



def test_collinear_design_names_offending_columns():
    # two covariates with equal means in every arm: x2_mean repeats x1_mean
    trials = [trial("a", 3.0, 1.0, x_mean=-1.0, p=2), trial("b", 7.0, 2.0, x_mean=2.0, p=2),
              trial("c", 5.0, 1.5, x_mean=0.5, p=2)]
    with pytest.raises(NumericalError, match="dependent columns: x2_mean$"):
        fit_dl(stack(trials))


def test_singular_normal_equations_are_a_numerical_error(monkeypatch):
    # a design of full rank whose normal equations the solver still finds
    # singular (condition number squared) fails as NumericalError, not LinAlgError
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    trials = [trial("a", 3.0, 1.0, x_mean=-1.0), trial("b", 7.0, 2.0, x_mean=2.0),
              trial("c", 5.0, 1.5, x_mean=0.5)]
    s = stack(trials)
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(NumericalError, match="rank deficient"):
        fit_dl(s)


def test_non_finite_heterogeneity_is_an_error():
    # finite means of +-1e200 overflow the squared residuals: Q = inf, which must not
    # be truncated to tau2 = 0
    trials = [trial("a", 1e200, -1e200, p=0), trial("b", -1e200, 1e200, p=0),
              trial("c", 0.0, 0.0, p=0)]
    with pytest.raises(NumericalError, match="^heterogeneity estimate not finite: Q = inf"):
        fit_dl(stack(trials))


def test_non_finite_refit_is_an_error():
    # means of +-1e154 leave Q and tau2 finite (tau2 about 5e307), but the refit weights
    # 1 / (v + tau2) are so small that (X'W*X)^-1 overflows: no fit of inf and NaN
    s = table(arm_row("t0", 0, 81, 0.39170993168076196, 5.0351167462032244e-05,
                      (0.5800141961966268,), (1.0,)),
              arm_row("t0", 1, 10, 2.5977719364928278e+100, 17031.149449346387,
                      (-0.5099792040504177,), (1.0,)),
              arm_row("t1", 0, 28, -1.8054038762394023e+154, 0.00018588033105679038,
                      (-2.1227205569401995,), (1.0,)),
              arm_row("t1", 1, 59, -1.0665324803942034e+153, 9578.664378978758,
                      (1.0421487424238252,), (1.0,)))
    with pytest.raises(NumericalError, match="^meta-regression fit not finite at tau2 = "):
        fit_dl(s)


def test_meta_se_matches_covariance_diagonal():
    trials = [trial("a", 3.0, 1.0, p=0), trial("b", 7.0, 1.0, p=0)]
    fit = fit_dl(stack(trials))
    se, lo, hi = meta_se(fit, level=0.95)
    assert se == pytest.approx(np.sqrt(np.diag(fit.cov_beta)))
    assert lo == pytest.approx(fit.beta - 1.959963984540054 * se)
    assert hi == pytest.approx(fit.beta + 1.959963984540054 * se)
