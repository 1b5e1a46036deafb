"""Invariances the method promises, checked as properties over generated data.

* trial order does not change the meta-regression or any arm's
  reconstructed rows;
* reconstructing all borrowed arms in one pass gives, bit for bit, the
  rows and clamp warnings of reconstructing them one arm at a time;
* zero-weight reconstructed rows drop out of both estimators exactly;
* a converged unpenalized membership fit gives a mean weight of one,
  whatever the feature map.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaborrow.data import FAMILIES, ArmSummary, TrialSummary, dataset_from_arms, make_dataset
from metaborrow.estimate import estimate_univariate, fit_weighted_regression
from metaborrow.meta import MetaFit, build_design, fit_dl
from metaborrow.reconstruct import (BORROW_MODES, ClampWarning, ReconstructionConfig,
                                    reconstruct_all, reconstruct_arm)
from metaborrow.simulate import generate_meta_trial, generate_target_trial
from metaborrow.weights import compute_weights, fit_membership, parse_feature_spec

seeds = st.integers(0, 2**32 - 1)


@st.composite
def shuffled_trials(draw):
    """Simulated completed trials, plus the same trials in a drawn order."""
    K = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(seeds))
    trials = [generate_meta_trial(k, K, 20, "normal", rng)[-1] for k in range(1, K + 1)]
    order = draw(st.permutations(range(K)))
    return trials, [trials[i] for i in order]


def arm_rows(d):
    """Each (trial id, arm) of a dataset mapped to its (y, X) rows."""
    tids = np.asarray(d.trial_ids, dtype=object)[d.trial]
    return {(tid, arm): (d.y[(tids == tid) & (d.z == arm)], d.X[(tids == tid) & (d.z == arm)])
            for tid, arm in set(zip(tids.tolist(), d.z.tolist()))}


@settings(deadline=None, max_examples=25)
@given(shuffled_trials(), st.booleans())
def test_trial_order_does_not_change_the_meta_fit(trials, interaction):
    given_order, shuffled = trials
    a = fit_dl(build_design(given_order, include_interaction=interaction))
    b = fit_dl(build_design(shuffled, include_interaction=interaction))
    assert b.columns == a.columns and b.df == a.df
    assert b.beta == pytest.approx(a.beta, rel=1e-9, abs=1e-12)
    assert b.cov_beta == pytest.approx(a.cov_beta, rel=1e-9, abs=1e-12)
    assert b.tau2 == pytest.approx(a.tau2, rel=1e-9, abs=1e-12)
    assert b.q_stat == pytest.approx(a.q_stat, rel=1e-9, abs=1e-12)


@pytest.mark.filterwarnings("ignore::metaborrow.reconstruct.ClampWarning")
@settings(deadline=None, max_examples=25)
@given(shuffled_trials(), seeds, st.sampled_from(BORROW_MODES))
def test_trial_order_does_not_change_any_arms_rows(trials, seed, borrow):
    given_order, shuffled = trials
    meta = fit_dl(build_design(given_order, include_interaction=True))
    cfg = ReconstructionConfig(rng_seed=seed, borrow=borrow)
    a = arm_rows(reconstruct_all(given_order, meta, cfg))
    b = arm_rows(reconstruct_all(shuffled, meta, cfg))
    assert a.keys() == b.keys()
    for key, (y, X) in a.items():
        assert np.array_equal(b[key][0], y) and np.array_equal(b[key][1], X), key



@st.composite
def borrowed_trials(draw):
    """(trials, meta fit, error floor) over p in {0, 1, 3} covariates of mixed families.

    Trials may be single-arm and arms empty.  The control arm of trial
    ``tight`` is always clamped: when p > 0 its outcome variance is zero
    and its covariate variances one; at p = 0 nothing is explained, so
    the floor is raised above every arm's outcome variance instead.
    """
    p = draw(st.sampled_from((0, 1, 3)))
    slopes = st.floats(0.1, 2.0) | st.floats(-2.0, -0.1)
    beta = [draw(st.floats(-3.0, 3.0)) for _ in range(2)] + [draw(slopes) for _ in range(2 * p)]
    columns = (("intercept", "arm") + tuple(f"x{j}_mean" for j in range(1, p + 1))
               + tuple(f"arm:x{j}_mean" for j in range(1, p + 1)))
    meta = MetaFit(beta=np.array(beta), cov_beta=np.eye(len(beta)), tau2=0.0, q_stat=0.0,
                   df=1, columns=columns)

    def summary(tid, armv, n, y_var, x_var):
        families = tuple(draw(st.sampled_from(FAMILIES)) for _ in range(p))
        x_mean = tuple(draw(st.floats(0.0, 1.0) if f == "binary" else st.floats(-3.0, 3.0))
                       for f in families)
        return ArmSummary(tid, armv, n, draw(st.floats(-5.0, 5.0)), y_var, x_mean, x_var,
                          families)

    trials = []
    for k in range(draw(st.integers(1, 5))):
        arms = tuple(summary(f"t{k}", armv, draw(st.sampled_from((0, 1, 2, 9, 30))),
                             draw(st.floats(0.0, 6.0)),
                             tuple(draw(st.floats(0.0, 4.0)) for _ in range(p)))
                     for armv in draw(st.sampled_from(((0,), (1,), (0, 1), (1, 0)))))
        trials.append(TrialSummary(f"t{k}", arms))
    tight = summary("tight", 0, draw(st.integers(1, 5)), 0.0 if p else 1.0, (1.0,) * p)
    trials.insert(draw(st.integers(0, len(trials))), TrialSummary("tight", (tight,)))
    return trials, meta, 2.0 if p == 0 else draw(st.sampled_from((0.0, 1e-8, 2.0)))


def row_bits(records):
    return [(r.trial_id, r.z, r.y.hex(), tuple(v.hex() for v in r.x), r.weight, r.source)
            for r in records]


@settings(deadline=None, max_examples=40)
@given(borrowed_trials(), seeds, st.sampled_from(BORROW_MODES), st.booleans())
def test_one_pass_reconstruction_matches_arm_by_arm(case, seed, borrow, shared):
    trials, meta, floor = case
    cfg = ReconstructionConfig(rng_seed=seed, error_floor=floor, borrow=borrow)
    borrowed = [a for t in trials for a in t.arms
                if a.n and not (borrow == "control_only" and a.arm == 1)]

    def run(reconstruct):
        rng = np.random.default_rng(seed) if shared else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ClampWarning)
            rows = reconstruct(rng)
        return row_bits(rows), [(w.message.trial_id, w.message.arm) for w in caught]

    rows, clamps = run(lambda rng: reconstruct_all(trials, meta, cfg, rng=rng).subjects)
    arm_rows, arm_clamps = run(lambda rng: [r for a in borrowed
                                            for r in reconstruct_arm(a, meta, cfg, rng=rng)])
    assert rows == arm_rows
    assert ("tight", 0) in clamps
    assert clamps == arm_clamps

@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(12, 60), st.integers(1, 80), st.sampled_from(("w4", "w3", "hc0")),
       st.booleans())
def test_zero_weight_rows_drop_out(seed, n_target, n_zero, meat, interaction):
    rng = np.random.default_rng(seed)
    target = generate_target_trial(n_target, "one_to_one", "normal", rng)
    target = target.with_weights(rng.uniform(0.2, 3.0, n_target))
    arms = [(f"s{k}", k % 2, rng.normal(1.0, 2.0, (m, 1)), rng.normal(5.0, 3.0, m))
            for k, m in enumerate(np.bincount(rng.integers(0, 4, n_zero), minlength=4)) if m]
    junk = dataset_from_arms(arms, is_target=False)
    pooled = make_dataset((target, junk.with_weights(np.zeros(n_zero))),
                          target_id=target.target_id)

    alone = fit_weighted_regression(target, include_interaction=interaction, meat=meat)
    wide = fit_weighted_regression(pooled, include_interaction=interaction, meat=meat)
    assert wide.beta == pytest.approx(alone.beta, rel=1e-12)
    assert wide.cov_beta == pytest.approx(alone.cov_beta, rel=1e-12)
    alone_uni, wide_uni = estimate_univariate(target), estimate_univariate(pooled)
    assert wide_uni.delta == pytest.approx(alone_uni.delta, rel=1e-12)
    assert wide_uni.variance == pytest.approx(alone_uni.variance, rel=1e-12)


FEATURE_ATOMS = ("x1", "x2", "x1^2", "x2^2", "x1*x2", "z", "z*x1", "z*x2")


@settings(deadline=None, max_examples=30)
@given(seeds, st.lists(st.sampled_from(FEATURE_ATOMS), unique=True, max_size=5),
       st.floats(-1.0, 1.0), st.floats(0.7, 1.5))
def test_mean_weight_is_one_for_any_feature_map(seed, atoms, shift, scale):
    rng = np.random.default_rng(seed)
    n_t, n_s = rng.integers(40, 120), rng.integers(80, 240)
    target = dataset_from_arms(
        [("t", z, rng.normal(0.0, 1.0, (m, 2)), np.zeros(m))
         for z, m in ((1, n_t // 2), (0, n_t - n_t // 2))], is_target=True, target_id="t")
    source = dataset_from_arms(
        [("s", z, rng.normal(shift, scale, (m, 2)), np.zeros(m))
         for z, m in ((1, n_s // 2), (0, n_s - n_s // 2))], is_target=False)
    d = make_dataset((target, source), target_id="t")
    fit = fit_membership(d, parse_feature_spec(",".join(atoms), d.p))
    assume(fit.converged and fit.ridge_lambda == 0.0)
    assert compute_weights(d, fit).w.mean() == pytest.approx(1.0, abs=1e-6)
