"""Reconstruction: moment restoration, substream determinism, clamping."""

import numpy as np
import pytest

from metaborrow.data import ArmSummary, TrialSummary
from metaborrow.errors import DataError
from metaborrow.meta import MetaFit
from metaborrow.reconstruct import (ReconstructionConfig, reconstruct_all,
                                    reconstruct_arm, sample_covariates)


def meta_fit(beta, columns):
    beta = np.asarray(beta, dtype=float)
    return MetaFit(beta=beta, cov_beta=np.eye(len(beta)), tau2=0.0,
                   q_stat=0.0, df=1, columns=columns)


def arm(tid="t1", armv=1, n=50, y_mean=2.0, y_var=5.0, x_mean=(1.0,),
        x_var=(2.0,), fam=("continuous",)):
    return ArmSummary(tid, armv, n, y_mean, y_var, x_mean, x_var, fam)


FIT = meta_fit([0.5, 1.5, -0.8], ("intercept", "arm", "x1_mean"))
CFG = ReconstructionConfig(rng_seed=11)


def test_moments_restored_at_large_n():
    # treated arm: mean surface 0.5 + 1.5 + (-0.8) x, residual var
    # y_var - load^2 x_var = 5 - 0.64 * 2 = 3.72
    a = arm()
    recs = reconstruct_arm(a, FIT, CFG, n_override=200_000)
    y = np.array([r.y for r in recs])
    x = np.array([r.x[0] for r in recs])
    assert abs(x.mean() - 1.0) < 0.02
    assert abs(x.var(ddof=1) - 2.0) < 0.05
    expected_mean = 0.5 + 1.5 - 0.8 * 1.0
    assert abs(y.mean() - expected_mean) < 4 * np.sqrt(5.0 / 200_000)
    assert y.var(ddof=1) == pytest.approx(5.0, rel=0.03)
    assert all(r.z == 1 and r.source == "reconstructed" for r in recs[:5])


def test_interaction_column_loads_only_on_treated_arm():
    fit = meta_fit([0.5, 1.5, -0.8, 0.3],
                   ("intercept", "arm", "x1_mean", "arm:x1_mean"))
    n = 200_000
    treated = reconstruct_arm(arm(armv=1), fit, CFG, n_override=n)
    control = reconstruct_arm(arm(armv=0, y_mean=0.5 - 0.8), fit, CFG, n_override=n)
    yt = np.array([r.y for r in treated])
    yc = np.array([r.y for r in control])
    # treated slope -0.8 + 0.3 = -0.5, control slope -0.8
    assert abs(yt.mean() - (0.5 + 1.5 - 0.5 * 1.0)) < 4 * np.sqrt(5.0 / n)
    assert abs(yc.mean() - (0.5 - 0.8 * 1.0)) < 4 * np.sqrt(5.0 / n)
    xt = np.array([r.x[0] for r in treated])
    slope = np.polyfit(xt, yt, 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.02)


@pytest.mark.parametrize("p", [0, 2])
def test_records_carry_covariate_rows(p):
    # p = 0 still gives n records with x == (), not zero rows
    a = arm(n=25, x_mean=(1.0, 0.4)[:p], x_var=(2.0, 0.24)[:p],
            fam=("continuous", "binary")[:p])
    fit = meta_fit([0.5, 1.5, -0.8, 0.2][:2 + p],
                   ("intercept", "arm", "x1_mean", "x2_mean")[:2 + p])
    recs = reconstruct_arm(a, fit, CFG, rng=np.random.default_rng(5))
    xs = sample_covariates(a, 25, CFG, np.random.default_rng(5))
    assert len(recs) == 25
    assert [r.x for r in recs] == [tuple(row) for row in xs.tolist()]
    assert all(type(r.y) is float and type(r.z) is int for r in recs)


def test_substreams_are_deterministic_and_order_free():
    trials = [TrialSummary("t1", (arm("t1", 1), arm("t1", 0, y_mean=0.0))),
              TrialSummary("t2", (arm("t2", 1, n=30), arm("t2", 0, n=20)))]
    r1 = reconstruct_all(trials, FIT, CFG).subjects
    r2 = reconstruct_all(trials[::-1], FIT, CFG).subjects
    by_key = lambda recs: {k: [r for r in recs if (r.trial_id, r.z) == k]
                           for k in {(r.trial_id, r.z) for r in recs}}
    assert by_key(r1) == by_key(r2)
    assert reconstruct_all(trials, FIT, CFG).subjects == r1  # same seed, same draws
    other = ReconstructionConfig(rng_seed=12)
    assert reconstruct_all(trials, FIT, other).subjects != r1


def test_arms_use_distinct_substreams():
    a1 = reconstruct_arm(arm("t1", 1), FIT, CFG)
    a0 = reconstruct_arm(arm("t1", 0), FIT, CFG)
    b1 = reconstruct_arm(arm("t2", 1), FIT, CFG)
    assert [r.x for r in a1] != [r.x for r in a0]
    assert [r.x for r in a1] != [r.x for r in b1]


def test_explicit_rng_overrides_substream():
    rng = np.random.default_rng(3)
    r1 = reconstruct_arm(arm(), FIT, CFG, rng=rng)
    r2 = reconstruct_arm(arm(), FIT, CFG, rng=np.random.default_rng(3))
    assert r1 == r2
    assert r1 != reconstruct_arm(arm(), FIT, CFG)  # substream differs


def test_control_only_borrow_skips_treated_arms():
    trials = [TrialSummary("t1", (arm("t1", 1), arm("t1", 0)))]
    cfg = ReconstructionConfig(rng_seed=11, borrow="control_only")
    recs = reconstruct_all(trials, FIT, cfg).subjects
    assert {r.z for r in recs} == {0}
    assert len(recs) == 50


def test_empty_arm_skipped_by_reconstruct_all():
    empty = ArmSummary("t1", 0, 0, 0.0, 1.0, (1.0,), (2.0,), ("continuous",))
    trials = [TrialSummary("t1", (arm("t1", 1), empty))]
    recs = reconstruct_all(trials, FIT, CFG).subjects
    assert {r.z for r in recs} == {1}
    with pytest.raises(DataError, match="cannot sample"):
        reconstruct_arm(empty, FIT, CFG)


def test_overexplained_variance_clamps_with_warning():
    # slope explains 0.64 * 2 = 1.28 > y_var = 1.0
    tight = arm(y_var=1.0)
    with pytest.warns(UserWarning, match="clamped"):
        recs = reconstruct_arm(tight, FIT, CFG, n_override=50_000)
    y = np.array([r.y for r in recs])
    x = np.array([r.x[0] for r in recs])
    # outcomes are nearly deterministic in x at the floor variance
    resid = y - (0.5 + 1.5 - 0.8 * x)
    assert resid.var() < 1e-6
    assert np.var(y) == pytest.approx(0.64 * 2.0, rel=0.05)


def test_degenerate_zero_covariate_variance():
    a = arm(x_var=(0.0,))
    recs = reconstruct_arm(a, FIT, CFG, n_override=10_000)
    x = np.array([r.x[0] for r in recs])
    assert np.all(x == 1.0)
    y = np.array([r.y for r in recs])
    assert y.var(ddof=1) == pytest.approx(5.0, rel=0.05)  # all variance residual


def test_binary_covariate_sampling():
    a = arm(x_mean=(0.3,), x_var=(0.21,), fam=("binary",))
    rng = np.random.default_rng(0)
    xs = sample_covariates(a, 100_000, CFG, rng)
    assert set(np.unique(xs)) == {0.0, 1.0}
    assert xs.mean() == pytest.approx(0.3, abs=0.01)


def test_meta_layout_mismatches_rejected():
    wrong_order = meta_fit([1.0, 2.0], ("arm", "intercept"))
    with pytest.raises(DataError, match="intercept, arm"):
        reconstruct_arm(arm(), wrong_order, CFG)
    stray = meta_fit([1.0, 2.0, 3.0], ("intercept", "arm", "follow_up"))
    with pytest.raises(DataError, match="unrecognized"):
        reconstruct_arm(arm(), stray, CFG)
    out_of_range = meta_fit([1.0, 2.0, 3.0], ("intercept", "arm", "x2_mean"))
    with pytest.raises(DataError, match="outside dimension"):
        reconstruct_arm(arm(), out_of_range, CFG)



def test_trials_of_differing_dimension_are_rejected():
    trials = [TrialSummary(f"t{k}", (arm(f"t{k}", 1), arm(f"t{k}", 0))) for k in range(4)]
    wide = arm("t4", x_mean=(1.0, 0.5), x_var=(2.0, 0.25), fam=("continuous", "binary"))
    with pytest.raises(DataError, match=r"covariate dimension differs across trials: \[1, 2\]"):
        reconstruct_all([*trials, TrialSummary("t4", (wide,))], FIT, CFG)

def test_config_validation():
    with pytest.raises(DataError, match="error_floor"):
        ReconstructionConfig(rng_seed=1, error_floor=-1.0)
    with pytest.raises(DataError, match="borrow"):
        ReconstructionConfig(rng_seed=1, borrow="sometimes")
