"""Bundled renal example: derivations, meta stage, borrowing scenarios."""

import filecmp

import numpy as np
import pytest

from metaborrow import pipeline
from metaborrow.casestudy import (COMPLETED_TRIALS, DEFAULT_SEED, SCENARIOS,
                                  TARGET_TRIAL, EgfrTrialRow,
                                  bundled_data_path, completed_summaries,
                                  derive_arm_summaries,
                                  derive_reconstruction_summaries,
                                  run_case_study, simulate_target)
from metaborrow.data import read_summaries, write_summaries
from metaborrow.errors import ConfigError, DataError
from metaborrow.meta import fit_dl
from metaborrow.weights import IRLS_MAX_ITER

TREATED, CONTROL = 0, 1  # a derived trial's arm rows, treated first


def test_row_validation():
    with pytest.raises(DataError, match="arm sizes"):
        EgfrTrialRow("x", 0, 10, 12.0, (1.0, 0.5), (50.0, 10.0), (50.0, 10.0))
    with pytest.raises(DataError, match="SE must be positive"):
        EgfrTrialRow("x", 10, 10, 12.0, (1.0, 0.0), (50.0, 10.0), (50.0, 10.0))
    with pytest.raises(DataError, match="SDs must be positive"):
        EgfrTrialRow("x", 10, 10, 12.0, (1.0, 0.5), (50.0, 0.0), (50.0, 10.0))


def test_arm_derivation_oracle():
    yasuda = COMPLETED_TRIALS[0]
    assert yasuda.study == "Yasuda 2004"
    t = derive_arm_summaries(yasuda)
    assert t.trial_ids == ("Yasuda 2004",) and t.arm.tolist() == [1, 0]
    assert t.n.tolist() == [39, 41] and not t.binary.any()
    # 12-month follow-up loses one eGFR unit; the treated arm adds the
    # reported total change of -2.0
    assert t.y_mean[CONTROL] == pytest.approx(-1.0)
    assert t.y_mean[TREATED] == pytest.approx(-3.0)
    # change SE 0.6 split by arm size: treated share 39 * 0.36 / 80
    v_treat = 39 * 0.6**2 / 80
    assert v_treat == pytest.approx(0.1755)
    assert t.y_var[TREATED] == pytest.approx(39 * v_treat)      # subject scale
    r = derive_reconstruction_summaries(yasuda)
    assert r.y_var[TREATED] == pytest.approx(v_treat)           # mean scale
    assert r.y_mean[TREATED] == t.y_mean[TREATED]
    # baseline eGFR copied per arm
    assert t.x_mean[TREATED].tolist() == [59.0] and t.x_var[TREATED].tolist() == [25.6**2]
    assert t.x_mean[CONTROL].tolist() == [60.0]


def test_zero_change_is_symmetric():
    row = EgfrTrialRow("x", 10, 10, 12.0, (0.0, 0.5), (50.0, 10.0), (50.0, 10.0))
    t = derive_arm_summaries(row)
    assert t.y_mean[TREATED] == t.y_mean[CONTROL] == pytest.approx(-1.0)
    assert t.y_var[TREATED] == t.y_var[CONTROL]  # equal arm sizes


def test_long_follow_up_scaling():
    rahman = COMPLETED_TRIALS[2]
    assert rahman.follow_up_months == 58.0
    t = derive_arm_summaries(rahman)
    assert t.y_mean[CONTROL] == pytest.approx(-58.0 / 12.0)
    assert t.y_mean[TREATED] == pytest.approx(-58.0 / 12.0 + 0.9)


def test_meta_stage_rows_and_determinism():
    s = completed_summaries()
    fit = fit_dl(s)
    assert fit.columns == ("intercept", "arm", "x1_mean")
    assert len(s) == 8 and s.p == 1 and fit.df == 8 - 3
    # the row variance the fit weighs, y_var / n, equals the derived arm-mean variance
    v_yasuda_treat = 39 * 0.6**2 / 80
    i = [i for i, a in enumerate(s.arm) if a == 1][0]
    assert s.trial_ids[s.trial[i]] == "Yasuda 2004"
    assert s.y_var[i] / s.n[i] == pytest.approx(v_yasuda_treat, rel=1e-12)
    fit2 = fit_dl(completed_summaries())
    assert np.array_equal(fit.beta, fit2.beta)
    assert fit.tau2 == fit2.tau2


def test_bundled_csv_matches_derivation(tmp_path):
    regenerated = tmp_path / "egfr.csv"
    write_summaries(completed_summaries(), regenerated)
    assert filecmp.cmp(regenerated, str(bundled_data_path()), shallow=False)
    back = read_summaries(str(bundled_data_path()))
    derived = completed_summaries()
    assert back.trial_ids == derived.trial_ids == tuple(r.study for r in COMPLETED_TRIALS)
    for column in ("trial", "arm", "n", "y_mean", "x_mean", "binary"):
        assert np.array_equal(getattr(back, column), getattr(derived, column)), column
    assert back.y_var == pytest.approx(derived.y_var, rel=1e-12)


def test_simulated_target_moments():
    rng = np.random.default_rng(0)
    d = simulate_target(40_000, 30_000, rng)
    t = derive_arm_summaries(TARGET_TRIAL)
    y1, x0 = d.y[d.z == 1], d.X[d.z == 0, 0]
    assert len(y1) == 40_000
    assert y1.mean() == pytest.approx(t.y_mean[TREATED],
                                      abs=4 * np.sqrt(t.y_var[TREATED] / 4e4))
    assert y1.var() == pytest.approx(t.y_var[TREATED], rel=0.03)
    assert x0.mean() == pytest.approx(57.3, abs=0.5)
    assert x0.std() == pytest.approx(18.7, rel=0.03)


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError) as info:
        run_case_study("target_3to1")
    assert str(info.value) == f"scenario must be one of {tuple(SCENARIOS)}, got 'target_3to1'"


def test_single_arm_without_borrowing_is_nc():
    res = run_case_study("single_arm")
    assert not res.estimable
    row = res.to_row()
    assert row["estimate"] == "NC" and row["se"] == "NC" and row["ci"] == "NC"
    assert row["n1"] == 100 and row["n0"] == 0


def test_borrowing_restores_single_arm_scenario():
    res = run_case_study("single_arm_borrow_control")
    assert res.estimable
    assert np.isfinite(res.contrast.estimate) and res.contrast.se > 0
    assert res.tau2 is not None and res.tau2 > 0


def test_borrowing_shrinks_standard_error():
    plain = run_case_study("target")
    borrowed = run_case_study("target_borrow")
    assert plain.estimable and borrowed.estimable
    assert borrowed.contrast.se < plain.contrast.se
    # the small 22/16 trial alone cannot separate the effect from zero
    assert plain.contrast.ci_low < 0 < plain.contrast.ci_high
    assert borrowed.contrast.ci_low > 0
    assert plain.contrast.df == 38 - 3
    assert plain.tau2 is None and borrowed.tau2 is not None


def test_borrow_clamps_are_reported():
    res = run_case_study("target_borrow")
    assert res.clamped_arms == ("Yasuda 2004/arm0", "Bianchi 2003/arm1",
                                "Bianchi 2003/arm0")
    control_only = run_case_study("target_2to1_borrow_control")
    assert control_only.clamped_arms == ("Yasuda 2004/arm0", "Bianchi 2003/arm0")


def test_scenarios_are_deterministic_in_seed():
    a = run_case_study("target_borrow", seed=DEFAULT_SEED)
    b = run_case_study("target_borrow", seed=DEFAULT_SEED)
    assert a == b
    c = run_case_study("target_borrow", seed=41)
    assert c.contrast.estimate != a.contrast.estimate
    # a seed that is not an integer is refused, not truncated or read as 1
    for bad in (40.7, 41.0, True):
        with pytest.raises(ConfigError, match=f"seed must be an integer, got {bad!r}"):
            run_case_study("target", seed=bad)


def test_run_all_scenarios_order_and_rows():
    results = [run_case_study(name) for name in SCENARIOS]
    assert [r.scenario for r in results] == list(SCENARIOS)
    for r in results:
        n1, n0, _ = SCENARIOS[r.scenario]
        assert (r.n1, r.n0) == (n1, n0)
        row = r.to_row()
        assert row["scenario"] == r.scenario
        if r.estimable:
            assert row["ci"][0] == pytest.approx(r.contrast.ci_low, abs=5e-5)


def test_seed_41_membership_fit_converges_unpenalized(monkeypatch):
    # Newton from zero converges here; from the intercept-only start it diverges
    # (|eta| near 1e220 after IRLS_MAX_ITER steps), so a change of start needs a safeguard
    fits = []
    fit_membership = pipeline.fit_membership
    monkeypatch.setattr(pipeline, "fit_membership",
                        lambda d, fmap=None: fits.append(fit_membership(d, fmap)) or fits[-1])
    run_case_study("target_borrow", seed=41)
    (fit,) = fits
    assert fit.converged and fit.ridge_lambda == 0 and fit.iterations < IRLS_MAX_ITER
