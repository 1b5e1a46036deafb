"""Invariances the method promises, checked as properties over generated data.

* trial order does not change the meta-regression or any arm's
  reconstructed rows;
* reconstructing all borrowed arms in one pass gives, bit for bit, the
  rows and clamped arms of reconstructing them one arm at a time;
* zero-weight reconstructed rows drop out of both estimators exactly;
* a converged unpenalized membership fit gives a mean weight of one,
  whatever the feature map;
* on any subject table, small or extreme, each estimator either refuses
  the contrast with a documented error (CLI exit 2, 3 or 4) or reports a
  finite estimate, statistic and interval with a positive standard error;
* every enumerated setting refuses any value outside its choices with
  one ConfigError text (CLI exit 2).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from summary_tables import arm_row, pool, table, take

from metaborrow import reconstruct
from metaborrow.casestudy import SCENARIOS, run_case_study
from metaborrow.cli import main
from metaborrow.data import dataset_from_arms, read_subjects
from metaborrow.errors import ConfigError, MetaborrowError
from metaborrow.estimate import MEAT_KINDS, estimate_univariate, fit_weighted_regression
from metaborrow.meta import MetaFit, fit_dl
from metaborrow.pipeline import PipelineConfig
from metaborrow.reconstruct import BORROW_MODES, ReconstructionConfig, reconstruct_all
from metaborrow.simulate import (ALLOCATIONS, COVARIATE_DISTS, MODEL_SPECS, ScenarioConfig,
                                 generate_meta_trials, generate_target_trial)
from metaborrow.weights import fit_membership, parse_feature_spec

seeds = st.integers(0, 2**32 - 1)


@st.composite
def shuffled_trials(draw):
    """Simulated completed trials, plus the same trials in a drawn order."""
    K = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(seeds))
    trials = generate_meta_trials(K, 20, "normal", rng)[-1]
    order = draw(st.permutations(range(K)))
    return trials, take(trials, [2 * i + a for i in order for a in (0, 1)])


def arm_rows(d):
    """Each (trial id, arm) of a dataset mapped to its (y, X) rows."""
    tids = np.asarray(d.trial_ids, dtype=object)[d.trial]
    return {(tid, arm): (d.y[(tids == tid) & (d.z == arm)], d.X[(tids == tid) & (d.z == arm)])
            for tid, arm in set(zip(tids.tolist(), d.z.tolist()))}


@settings(deadline=None, max_examples=25)
@given(shuffled_trials(), st.booleans())
def test_trial_order_does_not_change_the_meta_fit(trials, interaction):
    given_order, shuffled = trials
    a = fit_dl(given_order, include_interaction=interaction)
    b = fit_dl(shuffled, include_interaction=interaction)
    assert b.columns == a.columns and b.df == a.df
    assert b.beta == pytest.approx(a.beta, rel=1e-9, abs=1e-12)
    assert b.cov_beta == pytest.approx(a.cov_beta, rel=1e-9, abs=1e-12)
    assert b.tau2 == pytest.approx(a.tau2, rel=1e-9, abs=1e-12)
    assert b.q_stat == pytest.approx(a.q_stat, rel=1e-9, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(shuffled_trials(), seeds, st.sampled_from(BORROW_MODES))
def test_trial_order_does_not_change_any_arms_rows(trials, seed, borrow):
    given_order, shuffled = trials
    meta = fit_dl(given_order, include_interaction=True)
    cfg = ReconstructionConfig(rng_seed=seed, borrow=borrow)
    a = arm_rows(reconstruct_all(given_order, meta, cfg)[0])
    b = arm_rows(reconstruct_all(shuffled, meta, cfg)[0])
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
        binary = tuple(draw(st.booleans()) for _ in range(p))
        x_mean = tuple(draw(st.floats(0.0, 1.0) if b else st.floats(-3.0, 3.0)) for b in binary)
        return [arm_row(tid, armv, n, draw(st.floats(-5.0, 5.0)), y_var, x_mean, x_var, binary)]

    trials = []
    for k in range(draw(st.integers(1, 5))):
        trials.append([a for armv in draw(st.sampled_from(((0,), (1,), (0, 1), (1, 0))))
                       for a in summary(f"t{k}", armv, draw(st.sampled_from((0, 1, 2, 9, 30))),
                                        draw(st.floats(0.0, 6.0)),
                                        tuple(draw(st.floats(0.0, 4.0)) for _ in range(p)))])
    tight = summary("tight", 0, draw(st.integers(1, 5)), 0.0 if p else 1.0, (1.0,) * p)
    trials.insert(draw(st.integers(0, len(trials))), tight)
    return (table(*(a for t in trials for a in t)), meta,
            2.0 if p == 0 else draw(st.sampled_from((0.0, 1e-8, 2.0))))


def row_bits(d):
    """Per-row trial ids and every column's bytes: equal exactly when the rows are."""
    return ([d.trial_ids[i] for i in d.trial],
            *(getattr(d, name).tobytes() for name in ("z", "y", "X", "w", "is_target")))


@settings(deadline=None, max_examples=40)
@given(borrowed_trials(), seeds, st.sampled_from(BORROW_MODES))
def test_one_pass_reconstruction_matches_arm_by_arm(case, seed, borrow):
    trials, meta, floor = case
    cfg = ReconstructionConfig(rng_seed=seed, borrow=borrow)
    borrowed = [i for i in range(len(trials))
                if trials.n[i] and not (borrow == "control_only" and trials.arm[i] == 1)]

    def arms(clamps):
        return [(c.trial_id, c.arm, str(c)) for c in clamps]

    with mock.patch.object(reconstruct, "ERROR_FLOOR", floor):
        whole, clamps = reconstruct_all(trials, meta, cfg)
        per_arm = [reconstruct_all(take(trials, [i]), meta, cfg) for i in borrowed]
    assert row_bits(whole) == row_bits(pool([d for d, _ in per_arm]))
    assert ("tight", 0) in [(c.trial_id, c.arm) for c in clamps]
    assert arms(clamps) == arms(c for _, arm_clamps in per_arm for c in arm_clamps)


@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(12, 60), st.integers(1, 80), st.sampled_from(("w4", "w3", "hc0")),
       st.booleans())
def test_zero_weight_rows_drop_out(seed, n_target, n_zero, meat, interaction):
    rng = np.random.default_rng(seed)
    target = generate_target_trial(n_target, "one_to_one", "normal", rng)
    target = target.with_weights(rng.uniform(0.2, 3.0, n_target))
    arms = [(k, k % 2, m)
            for k, m in enumerate(np.bincount(rng.integers(0, 4, n_zero), minlength=4)) if m]
    x, y = zip(*[(rng.normal(1.0, 2.0, (m, 1)), rng.normal(5.0, 3.0, m)) for *_, m in arms])
    junk = dataset_from_arms(("s0", "s1", "s2", "s3"), *zip(*arms), np.concatenate(x),
                             np.concatenate(y), is_target=False)
    pooled = pool((target, junk.with_weights(np.zeros(n_zero))))

    alone = fit_weighted_regression(target, include_interaction=interaction, meat=meat)
    wide = fit_weighted_regression(pooled, include_interaction=interaction, meat=meat)
    assert wide.beta == pytest.approx(alone.beta, rel=1e-12)
    assert wide.cov_beta == pytest.approx(alone.cov_beta, rel=1e-12)
    alone_uni, wide_uni = estimate_univariate(target), estimate_univariate(pooled)
    assert wide_uni.estimate == pytest.approx(alone_uni.estimate, rel=1e-12)
    assert wide_uni.se ** 2 == pytest.approx(alone_uni.se ** 2, rel=1e-12)


FEATURE_ATOMS = ("x1", "x2", "x1^2", "x2^2", "x1*x2", "z", "z*x1", "z*x2")


@settings(deadline=None, max_examples=30)
@given(seeds, st.lists(st.sampled_from(FEATURE_ATOMS), unique=True, max_size=5),
       st.floats(-1.0, 1.0), st.floats(0.7, 1.5))
def test_mean_weight_is_one_for_any_feature_map(seed, atoms, shift, scale):
    rng = np.random.default_rng(seed)
    n_t, n_s = rng.integers(40, 120), rng.integers(80, 240)
    target = dataset_from_arms(("t",), [0, 0], [1, 0], [n_t // 2, n_t - n_t // 2],
                               rng.normal(0.0, 1.0, (n_t, 2)), np.zeros(n_t),
                               is_target=True)
    source = dataset_from_arms(("s",), [0, 0], [1, 0], [n_s // 2, n_s - n_s // 2],
                               rng.normal(shift, scale, (n_s, 2)), np.zeros(n_s),
                               is_target=False)
    d = pool((target, source))
    fit = fit_membership(d, parse_feature_spec(",".join(atoms), d.p))
    assume(fit.converged and fit.ridge_lambda == 0.0)
    assert fit.weighted.w.mean() == pytest.approx(1.0, abs=1e-6)


# outcome, covariate and weight values, ordinary and extreme: the tables below draw each
# column from a pool of a few of them, so ties, one-row arms and overflow are common
EXTREMES = (0.0, 1.0, -1.0, 5e-324, 1e-300, 1e154, -1e154, 1e300, 1e308, -1e308)
WEIGHTS = (0.0, 5e-324, 1e-300, 1e-6, 0.5, 1.0, 3.0, 1e154, 1e300)


@st.composite
def subject_tables(draw):
    """The CSV text of 0-5 subject rows per arm, weights included."""
    values = st.one_of(st.sampled_from(EXTREMES), st.floats(-1e3, 1e3),
                       st.floats(allow_nan=False, allow_infinity=False))
    weights = st.one_of(st.sampled_from(WEIGHTS), st.floats(0, 1e3))
    pools = [draw(st.lists(s, min_size=1, max_size=k))
             for s, k in ((values, 4), (values, 4), (weights, 3))]
    rows = [(arm, *(draw(st.sampled_from(p)) for p in pools))
            for arm in (0, 1) for _ in range(draw(st.integers(0, 5)))]
    return "trial_id,z,y,x1,weight\n" + "".join(
        f"T,{z},{y!r},{x!r},{w!r}\n" for z, y, x, w in draw(st.permutations(rows)))


def assert_estimable(ct):
    """A contrast that was not refused: finite estimate, statistic and interval, SE > 0."""
    ct = ct if isinstance(ct, dict) else ct.to_dict()
    stat = ct.get("t_stat", ct.get("z_stat"))
    assert np.isfinite([ct["estimate"], ct["se"], stat, ct["ci_low"], ct["ci_high"]]).all(), ct
    assert ct["se"] > 0 and ct["ci_low"] <= ct["estimate"] <= ct["ci_high"], ct
    assert 0 <= ct["p_value"] <= 1, ct


@settings(deadline=None, max_examples=200)
@given(subject_tables(), st.sampled_from(MEAT_KINDS), st.booleans())
def test_every_contrast_is_refused_or_finite(text, meat, covariates):
    # the library estimators and CLI `estimate` either refuse a table with a documented
    # error (exit 2, 3 or 4) or report a finite contrast with a positive SE
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "rows.csv", Path(tmp) / "est.json"
        path.write_text(text)
        try:
            d = read_subjects(path)
        except MetaborrowError:
            d = None
        if d is not None:
            for estimate in (lambda: estimate_univariate(d),
                             lambda: fit_weighted_regression(d, include_covariates=covariates,
                                                             meat=meat).z_contrast()):
                with contextlib.suppress(MetaborrowError):
                    assert_estimable(estimate())
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(["estimate", "--subjects", str(path), "--estimator", "both",
                             "--meat", meat, "--covariates" if covariates else "--no-covariates",
                             "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        if code == 0:
            payload = json.loads(out.read_text())
            assert_estimable(payload["regression"]["contrast_z"])
            assert_estimable(payload["univariate"])
        else:
            assert code in (2, 3, 4) and err.getvalue().startswith("error: "), err.getvalue()
            assert not out.exists()


def _pipeline_config(**setting):
    return PipelineConfig(summaries="s.csv", target="t.csv", out="out", seed=1, **setting)


# every setting that takes one of a tuple of values: its name, that tuple, and a call that
# passes it a value
CHOICE_SETTINGS = {
    "ScenarioConfig.covariate_dist": ("covariate_dist", COVARIATE_DISTS,
                                      lambda v: ScenarioConfig(covariate_dist=v)),
    "ScenarioConfig.allocation": ("allocation", ALLOCATIONS,
                                  lambda v: ScenarioConfig(allocation=v)),
    "ScenarioConfig.model_spec": ("model_spec", MODEL_SPECS,
                                  lambda v: ScenarioConfig(model_spec=v)),
    "ScenarioConfig.borrow": ("borrow", BORROW_MODES, lambda v: ScenarioConfig(borrow=v)),
    "ScenarioConfig.meat": ("meat", MEAT_KINDS, lambda v: ScenarioConfig(meat=v)),
    "PipelineConfig.borrow": ("borrow", BORROW_MODES, lambda v: _pipeline_config(borrow=v)),
    "PipelineConfig.meat": ("meat", MEAT_KINDS, lambda v: _pipeline_config(meat=v)),
    "ReconstructionConfig.borrow": ("borrow", BORROW_MODES,
                                    lambda v: ReconstructionConfig(rng_seed=1, borrow=v)),
    "fit_weighted_regression.meat": ("meat", MEAT_KINDS, lambda v: fit_weighted_regression(
        generate_target_trial(8, "one_to_one", "normal", np.random.default_rng(0)), meat=v)),
    "generate_meta_trials.dist": (
        "dist", COVARIATE_DISTS, lambda v: generate_meta_trials(2, 4, v, np.random.default_rng(0))),
    "generate_target_trial.allocation": (
        "allocation", ALLOCATIONS,
        lambda v: generate_target_trial(4, v, "normal", np.random.default_rng(0))),
    "run_case_study.scenario": ("scenario", tuple(SCENARIOS), run_case_study),
}
# a choice in the wrong case, beside values of every other kind
NEAR_MISSES = st.sampled_from([c.upper() for _, choices, _ in CHOICE_SETTINGS.values()
                               for c in choices])


@pytest.mark.parametrize("site", CHOICE_SETTINGS)
@settings(deadline=None, max_examples=25)
@given(st.one_of(NEAR_MISSES, st.text(), st.none(), st.booleans(), st.integers(), st.floats(),
                 st.lists(st.text())))
def test_every_enumerated_setting_refuses_values_outside_its_choices(site, value):
    name, choices, call = CHOICE_SETTINGS[site]
    assume(value not in choices)
    with pytest.raises(ConfigError) as info:
        call(value)
    assert info.value.exit_code == 2
    assert str(info.value) == f"{name} must be one of {choices}, got {value!r}"
