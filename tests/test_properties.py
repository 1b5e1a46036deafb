"""Invariances the method promises, checked as properties over generated data.

* trial order does not change the meta-regression or any arm's
  reconstructed rows;
* zero-weight reconstructed rows drop out of both estimators exactly;
* a converged unpenalized membership fit gives a mean weight of one,
  whatever the feature map.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metaborrow.data import dataset_from_arms, make_dataset
from metaborrow.estimate import estimate_univariate, fit_weighted_regression
from metaborrow.meta import build_design, fit_dl
from metaborrow.reconstruct import BORROW_MODES, ReconstructionConfig, reconstruct_all
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
