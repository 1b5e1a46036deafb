"""Reconstruction: moment restoration, substream determinism, clamping."""

import zlib

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from metaborrow.data import ArmSummary, TrialSummary, make_dataset
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


def assert_same_rows(a, b):
    """Datasets ``a`` and ``b`` hold the same rows: per-row trial ids, then every column."""
    assert [a.trial_ids[i] for i in a.trial] == [b.trial_ids[i] for i in b.trial]
    for name in ("z", "y", "X", "w", "is_target"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_moments_restored_at_large_n():
    # treated arm: mean surface 0.5 + 1.5 + (-0.8) x, residual var
    # y_var - load^2 x_var = 5 - 0.64 * 2 = 3.72
    a = arm()
    d = reconstruct_arm(a, FIT, CFG, n_override=200_000)
    y, x = d.y, d.X[:, 0]
    assert abs(x.mean() - 1.0) < 0.02
    assert abs(x.var(ddof=1) - 2.0) < 0.05
    expected_mean = 0.5 + 1.5 - 0.8 * 1.0
    assert abs(y.mean() - expected_mean) < 4 * np.sqrt(5.0 / 200_000)
    assert y.var(ddof=1) == pytest.approx(5.0, rel=0.03)
    assert np.all(d.z == 1) and not d.is_target.any() and np.all(d.w == 1.0)


def test_interaction_column_loads_only_on_treated_arm():
    fit = meta_fit([0.5, 1.5, -0.8, 0.3],
                   ("intercept", "arm", "x1_mean", "arm:x1_mean"))
    n = 200_000
    treated = reconstruct_arm(arm(armv=1), fit, CFG, n_override=n)
    control = reconstruct_arm(arm(armv=0, y_mean=0.5 - 0.8), fit, CFG, n_override=n)
    yt, yc = treated.y, control.y
    # treated slope -0.8 + 0.3 = -0.5, control slope -0.8
    assert abs(yt.mean() - (0.5 + 1.5 - 0.5 * 1.0)) < 4 * np.sqrt(5.0 / n)
    assert abs(yc.mean() - (0.5 - 0.8 * 1.0)) < 4 * np.sqrt(5.0 / n)
    xt = treated.X[:, 0]
    slope = np.polyfit(xt, yt, 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.02)


@pytest.mark.parametrize("p", [0, 2])
def test_records_carry_covariate_rows(p):
    # p = 0 still gives n rows, each with no covariates
    a = arm(n=25, x_mean=(1.0, 0.4)[:p], x_var=(2.0, 0.24)[:p],
            fam=("continuous", "binary")[:p])
    fit = meta_fit([0.5, 1.5, -0.8, 0.2][:2 + p],
                   ("intercept", "arm", "x1_mean", "x2_mean")[:2 + p])
    d = reconstruct_arm(a, fit, CFG, rng=np.random.default_rng(5))
    xs = sample_covariates(a, 25, np.random.default_rng(5))
    assert len(d) == 25 and d.X.shape == (25, p)
    assert d.X.tobytes() == xs.tobytes()
    assert d.y.dtype == float and d.z.dtype == int


def test_substreams_are_deterministic_and_order_free():
    trials = [TrialSummary("t1", (arm("t1", 1), arm("t1", 0, y_mean=0.0))),
              TrialSummary("t2", (arm("t2", 1, n=30), arm("t2", 0, n=20)))]
    d1 = reconstruct_all(trials, FIT, CFG)
    d2 = reconstruct_all(trials[::-1], FIT, CFG)
    for tid in ("t1", "t2"):
        for z in (1, 0):
            rows1 = (d1.trial == d1.trial_ids.index(tid)) & (d1.z == z)
            rows2 = (d2.trial == d2.trial_ids.index(tid)) & (d2.z == z)
            assert d1.y[rows1].tobytes() == d2.y[rows2].tobytes()
            assert d1.X[rows1].tobytes() == d2.X[rows2].tobytes()
    assert_same_rows(reconstruct_all(trials, FIT, CFG), d1)  # same seed, same draws
    other = ReconstructionConfig(rng_seed=12)
    assert not np.array_equal(reconstruct_all(trials, FIT, other).y, d1.y)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 7, 3**50])
def test_substream_is_the_one_the_key_tuple_seeds(seed):
    # each arm draws what default_rng(SeedSequence((seed, crc32(id), arm))) draws
    trials = [TrialSummary(tid, (arm(tid, 1, n=7), arm(tid, 0, n=5)))
              for tid in ("", "t1", "Prüfung-試験")]
    cfg = ReconstructionConfig(rng_seed=seed)
    got = reconstruct_all(trials, FIT, cfg)
    want = make_dataset([reconstruct_arm(
        a, FIT, cfg, rng=default_rng(SeedSequence((seed, zlib.crc32(a.trial_id.encode()),
                                                    a.arm))))
        for t in trials for a in t.arms])
    assert_same_rows(got, want)


def test_arms_use_distinct_substreams():
    a1 = reconstruct_arm(arm("t1", 1), FIT, CFG)
    a0 = reconstruct_arm(arm("t1", 0), FIT, CFG)
    b1 = reconstruct_arm(arm("t2", 1), FIT, CFG)
    assert not np.array_equal(a1.X, a0.X)
    assert not np.array_equal(a1.X, b1.X)


def test_explicit_rng_overrides_substream():
    rng = np.random.default_rng(3)
    r1 = reconstruct_arm(arm(), FIT, CFG, rng=rng)
    r2 = reconstruct_arm(arm(), FIT, CFG, rng=np.random.default_rng(3))
    assert_same_rows(r1, r2)
    assert not np.array_equal(r1.y, reconstruct_arm(arm(), FIT, CFG).y)  # substream differs


def test_control_only_borrow_skips_treated_arms():
    trials = [TrialSummary("t1", (arm("t1", 1), arm("t1", 0)))]
    cfg = ReconstructionConfig(rng_seed=11, borrow="control_only")
    d = reconstruct_all(trials, FIT, cfg)
    assert set(d.z.tolist()) == {0}
    assert len(d) == 50


def test_empty_arm_skipped_by_reconstruct_all():
    empty = ArmSummary("t1", 0, 0, 0.0, 1.0, (1.0,), (2.0,), ("continuous",))
    trials = [TrialSummary("t1", (arm("t1", 1), empty))]
    d = reconstruct_all(trials, FIT, CFG)
    assert set(d.z.tolist()) == {1}
    with pytest.raises(DataError, match="cannot sample"):
        reconstruct_arm(empty, FIT, CFG)


def test_overexplained_variance_clamps_with_warning():
    # slope explains 0.64 * 2 = 1.28 > y_var = 1.0
    tight = arm(y_var=1.0)
    with pytest.warns(UserWarning, match="clamped"):
        d = reconstruct_arm(tight, FIT, CFG, n_override=50_000)
    y, x = d.y, d.X[:, 0]
    # outcomes are nearly deterministic in x at the floor variance
    resid = y - (0.5 + 1.5 - 0.8 * x)
    assert resid.var() < 1e-6
    assert np.var(y) == pytest.approx(0.64 * 2.0, rel=0.05)


def test_degenerate_zero_covariate_variance():
    a = arm(x_var=(0.0,))
    d = reconstruct_arm(a, FIT, CFG, n_override=10_000)
    x, y = d.X[:, 0], d.y
    assert np.all(x == 1.0)
    assert y.var(ddof=1) == pytest.approx(5.0, rel=0.05)  # all variance residual


def test_binary_covariate_sampling():
    a = arm(x_mean=(0.3,), x_var=(0.21,), fam=("binary",))
    rng = np.random.default_rng(0)
    xs = sample_covariates(a, 100_000, rng)
    assert set(np.unique(xs)) == {0.0, 1.0}
    assert xs.mean() == pytest.approx(0.3, abs=0.01)


def test_meta_layout_mismatches_rejected():
    layouts = (r"for p = 1: \(intercept, arm, x1_mean\) or "
               r"\(intercept, arm, x1_mean, arm:x1_mean\)$")
    wrong_order = meta_fit([1.0, 2.0], ("arm", "intercept"))
    with pytest.raises(DataError, match=r"columns \(arm, intercept\) do not match .*" + layouts):
        reconstruct_arm(arm(), wrong_order, CFG)
    stray = meta_fit([1.0, 2.0, 3.0], ("intercept", "arm", "follow_up"))
    with pytest.raises(DataError, match=r"\(intercept, arm, follow_up\) do not match"):
        reconstruct_arm(arm(), stray, CFG)
    out_of_range = meta_fit([1.0, 2.0, 3.0], ("intercept", "arm", "x2_mean"))
    with pytest.raises(DataError, match=r"\(intercept, arm, x2_mean\) do not match"):
        reconstruct_arm(arm(), out_of_range, CFG)


def test_fit_on_fewer_covariates_is_rejected():
    # a fit made on one covariate has no slope for x2: reading it for two
    # covariates is an error naming both layouts, not a zero slope
    wide = [TrialSummary(f"t{k}", tuple(arm(f"t{k}", armv, x_mean=(1.0, 0.5 * k),
                                            x_var=(2.0, 1.0), fam=("continuous",) * 2)
                                        for armv in (1, 0))) for k in range(3)]
    for fit in (FIT, meta_fit([0.5, 1.5, -0.8, 0.3], ("intercept", "arm", "x1_mean",
                                                       "arm:x1_mean"))):
        with pytest.raises(DataError, match=r"\(intercept, arm, x1_mean.*\) do not match the "
                                            r"meta design for p = 2: "
                                            r"\(intercept, arm, x1_mean, x2_mean\) or"):
            reconstruct_all(wide, fit, CFG)



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
