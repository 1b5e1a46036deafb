"""Meta-regression: hand-checked moment-estimator oracles and design assembly."""

import numpy as np
import pytest

from metaborrow.data import ArmSummary, TrialSummary
from metaborrow.errors import DataError, NumericalError
from metaborrow.meta import MetaDesign, build_design, fit_dl, meta_se


def trial(tid, y_treat, y_ctrl, n=4, y_var=4.0, x_mean=0.0):
    # y_var = n so each arm row enters with mean-variance y_var / n = 1
    mk = lambda armv, ym: ArmSummary(tid, armv, n, ym, y_var, (x_mean,), (1.0,),
                                     ("continuous",))
    return TrialSummary(tid, (mk(1, y_treat), mk(0, y_ctrl)))


def test_intercept_only_moment_oracle():
    # y = (0, 2, 4), v = 1: FE mean 2, Q = 8, c = 2, tau2 = (8 - 2)/2 = 3,
    # refit weights 1/4 give cov = 4/3.
    design = MetaDesign(y=np.array([0.0, 2.0, 4.0]), v=np.ones(3),
                        X=np.ones((3, 1)), columns=("intercept",))
    fit = fit_dl(design)
    assert fit.beta == pytest.approx([2.0])
    assert fit.q_stat == pytest.approx(8.0)
    assert fit.tau2 == pytest.approx(3.0)
    assert fit.cov_beta[0, 0] == pytest.approx(4.0 / 3.0)
    assert fit.df == 2


def test_arm_design_moment_oracle():
    # treat means (3, 7), control means (1, 1), all row variances 1:
    # beta = (1, 4), Q = 8, tau2 = 3, cov = [[2, -2], [-2, 4]].
    trials = [trial("a", 3.0, 1.0), trial("b", 7.0, 1.0)]
    design = build_design(trials, covariate_selector=[])
    assert design.columns == ("intercept", "arm")
    assert np.allclose(design.v, 1.0)
    fit = fit_dl(design)
    assert fit.beta == pytest.approx([1.0, 4.0])
    assert fit.q_stat == pytest.approx(8.0)
    assert fit.tau2 == pytest.approx(3.0)
    assert fit.cov_beta == pytest.approx(np.array([[2.0, -2.0], [-2.0, 4.0]]))


def test_tau2_truncated_at_zero_when_homogeneous():
    design = MetaDesign(y=np.array([0.0, 0.1, -0.1]), v=np.ones(3),
                        X=np.ones((3, 1)), columns=("intercept",))
    fit = fit_dl(design)
    assert fit.tau2 == 0.0
    assert fit.q_stat < 2.0
    # with tau2 = 0 the refit equals the fixed-effect stage
    assert fit.cov_beta[0, 0] == pytest.approx(1.0 / 3.0)


def test_fit_invariant_to_row_order():
    trials = [trial("a", 3.0, 1.0, x_mean=-1.0), trial("b", 7.0, 2.0, x_mean=2.0),
              trial("c", 5.0, 1.5, x_mean=0.5)]
    f1 = fit_dl(build_design(trials))
    f2 = fit_dl(build_design(trials[::-1]))
    assert f1.beta == pytest.approx(f2.beta)
    assert f1.tau2 == pytest.approx(f2.tau2)
    assert f1.q_stat == pytest.approx(f2.q_stat)


def test_build_design_columns_and_interaction():
    trials = [trial("a", 3.0, 1.0, x_mean=-1.0), trial("b", 7.0, 2.0, x_mean=2.0),
              trial("c", 5.0, 1.5, x_mean=0.5)]
    d = build_design(trials, include_interaction=True)
    assert d.columns == ("intercept", "arm", "x1_mean", "arm:x1_mean")
    assert d.X.shape == (6, 4)
    # interaction column is arm * x1_mean row by row
    assert np.allclose(d.X[:, 3], d.X[:, 1] * d.X[:, 2])


def test_build_design_rejects_degenerate_inputs():
    with pytest.raises(DataError, match="at least"):
        build_design([trial("a", 3.0, 1.0)])  # 2 rows for 3 columns
    one_armed = TrialSummary("a", (ArmSummary("a", 1, 5, 1.0, 1.0, (), (), ()),))
    more = TrialSummary("b", (ArmSummary("b", 1, 5, 2.0, 1.0, (), (), ()),))
    third = TrialSummary("c", (ArmSummary("c", 1, 5, 3.0, 1.0, (), (), ()),))
    with pytest.raises(DataError, match="share one arm"):
        build_design([one_armed, more, third])
    zero_var = TrialSummary("z", (
        ArmSummary("z", 1, 5, 1.0, 0.0, (), (), ()),
        ArmSummary("z", 0, 5, 0.0, 1.0, (), (), ()),
    ))
    with pytest.raises(DataError, match="zero-variance"):
        build_design([zero_var, trial("a", 3.0, 1.0)])



def test_trials_of_differing_dimension_are_rejected():
    wide = TrialSummary("w", tuple(ArmSummary("w", armv, 4, 1.0, 4.0, (0.0, 1.0), (1.0, 1.0),
                                              ("continuous", "binary")) for armv in (1, 0)))
    narrow = [trial(f"t{k}", 3.0 + k, 1.0, x_mean=0.5 * k) for k in range(4)]
    for trials in ([wide, *narrow], [*narrow, wide]):
        with pytest.raises(DataError, match="covariate dimension [12] differs from dimension [12]"):
            build_design(trials)

def test_collinear_design_names_offending_columns():
    trials = [trial("a", 3.0, 1.0, x_mean=-1.0), trial("b", 7.0, 2.0, x_mean=2.0),
              trial("c", 5.0, 1.5, x_mean=0.5)]
    design = build_design(trials, covariate_selector=[0, 0])  # x1 twice
    with pytest.raises(NumericalError, match="x1_mean"):
        fit_dl(design)


def test_singular_normal_equations_are_a_numerical_error(monkeypatch):
    # a design of full rank whose normal equations the solver still finds
    # singular (condition number squared) fails as NumericalError, not LinAlgError
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    design = build_design([trial("a", 3.0, 1.0, x_mean=-1.0), trial("b", 7.0, 2.0, x_mean=2.0),
                           trial("c", 5.0, 1.5, x_mean=0.5)])
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(NumericalError, match="rank deficient"):
        fit_dl(design)


def test_non_finite_heterogeneity_is_an_error():
    # a NaN response gives Q = NaN, which must not be truncated to tau2 = 0
    design = MetaDesign(y=np.array([0.0, np.nan, 4.0]), v=np.ones(3),
                        X=np.ones((3, 1)), columns=("intercept",))
    with pytest.raises(NumericalError, match="heterogeneity estimate not finite"):
        fit_dl(design)


def test_meta_se_matches_covariance_diagonal():
    trials = [trial("a", 3.0, 1.0), trial("b", 7.0, 1.0)]
    fit = fit_dl(build_design(trials, covariate_selector=[]))
    se, lo, hi = meta_se(fit, level=0.95)
    assert se == pytest.approx(np.sqrt(np.diag(fit.cov_beta)))
    assert lo == pytest.approx(fit.beta - 1.959963984540054 * se)
    assert hi == pytest.approx(fit.beta + 1.959963984540054 * se)
