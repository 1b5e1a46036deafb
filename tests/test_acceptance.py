"""Acceptance checks for the full estimator stack, one criterion per test.

Each test prints a single ``criterion NN PASS/FAIL`` line directly to the
terminal (bypassing pytest capture) and asserts the same condition.  The
three 1,000-replication Monte-Carlo cells dominate the runtime; the whole
file runs single-threaded in a few minutes.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from metaborrow import casestudy
from metaborrow.data import Dataset, make_dataset
from metaborrow.estimate import estimate_univariate, fit_weighted_regression
from metaborrow.data import Summaries
from metaborrow.reconstruct import ReconstructionConfig, clamped_arms, reconstruct_all
from metaborrow.simulate import (ALLOCATIONS, COVARIATE_DISTS, EST_POOLED,
                                 EST_POOLED_UNI, MODEL_SPECS, ScenarioConfig,
                                 read_cell_csv, run_cell, write_cell_csv)
from metaborrow.weights import compute_weights, fit_membership, linear_feature_map

BORROW_MODES = ("both_arms", "control_only")


@pytest.fixture
def report(capfd):
    """Print one criterion verdict straight to the terminal, capture or not."""
    def _report(num, ok, detail):
        line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        return line
    return _report


def trial_rows(trial_id, z, y, x, is_target):
    """One trial's rows with unit weights; ``x`` holds one covariate row per subject."""
    n = len(y)
    return Dataset((trial_id,), np.zeros(n, int), z, y, np.reshape(x, (n, -1)), np.ones(n),
                   np.full(n, is_target), trial_id if is_target else "")


@pytest.fixture(scope="module")
def identified_cell():
    return run_cell(ScenarioConfig(replications=1000))


@pytest.fixture(scope="module")
def misidentified_cell():
    return run_cell(ScenarioConfig(allocation="three_to_one",
                                   model_spec="misidentified",
                                   borrow="control_only", replications=1000))


@pytest.fixture(scope="module")
def k30_cell():
    return run_cell(ScenarioConfig(K=30, replications=1000))


def test_criterion_01_case_study_meta_fit(report):
    t0 = time.perf_counter()
    fit, design = casestudy.fit_meta()
    elapsed = time.perf_counter() - t0
    se = np.sqrt(np.diag(fit.cov_beta))
    beta_ref = np.array([-3.62, 1.42, 0.01])
    se_ref = np.array([16.45, 2.35, 0.31])
    ok = (elapsed < 1.0
          and bool(np.all(np.abs(fit.beta - beta_ref) <= 0.10))
          and bool(np.all(np.abs(se / se_ref - 1.0) <= 0.10))
          and abs(fit.tau2 - 10.92) <= 1.0
          and len(design.y) == 8)
    detail = (f"beta {np.round(fit.beta, 3).tolist()} se {np.round(se, 3).tolist()} "
              f"tau2 {fit.tau2:.3f} in {elapsed * 1e3:.1f} ms")
    line = report(1, ok, detail)
    rows = "\n".join(
        f"  y={y:+8.3f}  v={v:8.4f}  " +
        "  ".join(f"{c}={x:+.3f}" for c, x in zip(design.columns, row))
        for y, v, row in zip(design.y, design.v, design.X))
    assert ok, f"{line}\ndesign rows:\n{rows}"


def test_criterion_02_reconstruction_moments(report):
    fit, _ = casestudy.fit_meta()
    trials = [casestudy.derive_reconstruction_summaries(r)
              for r in casestudy.COMPLETED_TRIALS]
    cfg = ReconstructionConfig(rng_seed=casestudy.DEFAULT_SEED)
    n = 100000
    worst_mean = worst_var = 0.0
    clamped = set()
    arms_checked = 0
    t0 = time.perf_counter()
    for t in trials:
        for i in range(len(t)):
            # a one-row table of n subjects: the arm's own substream, drawn at n
            arm = Summaries(t.trial_ids, t.trial[i:i + 1], t.arm[i:i + 1], [n],
                            t.y_mean[i:i + 1], t.y_var[i:i + 1], t.x_mean[i:i + 1],
                            t.x_var[i:i + 1], t.binary[i:i + 1])
            y = reconstruct_all(arm, fit, cfg).y
            fitted_mean = np.array([1.0, t.arm[i], *t.x_mean[i]]) @ fit.beta
            worst_mean = max(worst_mean,
                             abs(y.mean() - fitted_mean) / np.sqrt(t.y_var[i] / n))
            if clamped_arms(arm, fit, cfg):
                clamped.add(f"{t.trial_ids[0]}/arm{t.arm[i]}")
            else:
                worst_var = max(worst_var, abs(y.var(ddof=1) / t.y_var[i] - 1.0))
            arms_checked += 1
    elapsed = time.perf_counter() - t0
    ok = (arms_checked == 8 and worst_mean <= 4.0 and worst_var <= 0.03
          and clamped == {"Yasuda 2004/arm0", "Bianchi 2003/arm1",
                          "Bianchi 2003/arm0"}
          and elapsed < 5.0)
    line = report(2, ok, f"8 arms at n={n}: worst mean dev {worst_mean:.2f} se, "
                          f"worst var dev {worst_var * 100:.2f}%, "
                          f"{len(clamped)} clamped, {elapsed:.2f} s")
    assert ok, line


def test_criterion_03_zero_weight_sources_erase_exactly(report):
    rng = np.random.default_rng(5)
    ty, tx = zip(*[(rng.normal(2.0 * (i % 2), 1.5), rng.normal()) for i in range(60)])
    jy, jx = zip(*[(rng.normal(5.0, 3.0), rng.normal(1.0, 2.0)) for _ in range(200)])
    tonly = trial_rows("t", np.arange(60) % 2, ty, tx, is_target=True)
    junk = Dataset(("s0", "s1", "s2", "s3"), np.arange(200) % 4, np.arange(200) % 2, jy,
                   np.reshape(jx, (200, 1)), np.ones(200), np.zeros(200, bool))
    pooled = make_dataset((junk, tonly), target_id="t")
    pooled = pooled.with_weights([0.0] * 200 + [1.0] * 60)

    up, ut = estimate_univariate(pooled), estimate_univariate(tonly)
    rp = fit_weighted_regression(pooled, meat="w4")
    rt = fit_weighted_regression(tonly, meat="w4")
    devs = (abs(up.delta - ut.delta) / abs(ut.delta),
            abs(up.variance - ut.variance) / ut.variance,
            float(np.max(np.abs(rp.beta - rt.beta) / np.abs(rt.beta))),
            float(np.max(np.abs(rp.cov_beta - rt.cov_beta) /
                         (np.abs(rt.cov_beta) + 1e-300))))
    ok = max(devs) <= 1e-12
    line = report(3, ok, f"pooled-with-zero-weights vs target-only: "
                          f"max relative deviation {max(devs):.2e}")
    assert ok, line


def test_criterion_04_mean_weight_identity(report):
    worst = 0.0
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        ty, tx = zip(*[(rng.normal(), rng.normal()) for _ in range(150)])
        sy, sx = zip(*[(rng.normal(), rng.normal(0.5, 1.2)) for _ in range(350)])
        d = make_dataset((trial_rows("s", np.arange(350) % 2, sy, sx, is_target=False),
                          trial_rows("t", np.arange(150) % 2, ty, tx, is_target=True)),
                         target_id="t")
        fit = fit_membership(d)
        assert fit.converged and fit.ridge_lambda == 0.0
        w = compute_weights(d, fit).w
        worst = max(worst, abs(float(w.mean()) - 1.0))
    ok = worst <= 1e-6
    line = report(4, ok, f"three converged unpenalized fits: "
                          f"max |mean weight - 1| = {worst:.2e}")
    assert ok, line


def test_criterion_05_borrowing_halves_mse(report):
    cfg = ScenarioConfig(replications=500)
    t0 = time.perf_counter()
    cell = run_cell(cfg)
    elapsed = time.perf_counter() - t0
    ratio = cell.mse_pooled / cell.mse_target
    ok = elapsed < 180.0 and cell.mse_pooled < 0.5 * cell.mse_target
    line = report(5, ok, f"{cfg.label}: mse ratio borrowing/target-only "
                          f"{ratio:.3f} in {elapsed:.1f} s")
    assert ok, line


def test_criterion_06_type1_error_in_band(report, identified_cell, misidentified_cell):
    t1 = identified_cell.summary(EST_POOLED).type1
    t2 = misidentified_cell.summary(EST_POOLED).type1
    ok = 0.02 <= t1 <= 0.07 and 0.02 <= t2 <= 0.07
    line = report(6, ok, f"type-I error: identified 1:1 {t1:.3f}, "
                          f"misidentified 3:1 control-only {t2:.3f} "
                          f"(band [0.02, 0.07], 1000 reps each)")
    assert ok, line


def test_criterion_07_k30_bias(report, k30_cell):
    means = (k30_cell.summary(EST_POOLED).mean,
             k30_cell.summary(EST_POOLED_UNI).mean)
    dev = max(abs(m - 2.0) for m in means)
    ok = dev < 0.03
    line = report(7, ok, f"K=30 borrowing means {means[0]:.4f} (regression), "
                          f"{means[1]:.4f} (univariate) vs truth 2.0 over 1000 reps")
    assert ok, line


def test_criterion_08_coverage_in_band(report, identified_cell):
    cov = identified_cell.summary(EST_POOLED).coverage
    ok = 0.93 <= cov <= 0.97
    line = report(8, ok, f"identified 1:1 coverage {cov:.3f} "
                          f"(band [0.93, 0.97], 1000 reps)")
    assert ok, line


def test_criterion_09_grid_schema_and_overnight_profile(report, tmp_path):
    labels = set()
    for K in (5, 10, 30):
        for n in (20, 40, 100):
            for dist in COVARIATE_DISTS:
                for alloc in ALLOCATIONS:
                    for model in MODEL_SPECS:
                        for borrow in BORROW_MODES:
                            cfg = ScenarioConfig(
                                K=K, n=n, covariate_dist=dist, allocation=alloc,
                                model_spec=model, borrow=borrow,
                                replications=10000)
                            assert ScenarioConfig.from_label(cfg.label) == cfg
                            labels.add(cfg.label)
    grid_ok = len(labels) == 216

    # any single results row regenerates from its scenario label alone
    cfg = ScenarioConfig(K=5, n=20, replications=5, base_seed=123)
    first, second = tmp_path / "cell.csv", tmp_path / "regen.csv"
    write_cell_csv(run_cell(cfg), first)
    (label,) = read_cell_csv(first)
    write_cell_csv(run_cell(ScenarioConfig.from_label(label)), second)
    regen_ok = first.read_text() == second.read_text()

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text() if readme.exists() else ""
    doc_ok = all(s in text for s in ("Overnight profile", "--from-label",
                                     "--append", "10,000"))
    ok = grid_ok and regen_ok and doc_ok
    line = report(9, ok, "216 grid labels round-trip at reps=10000; "
                          "desk-scale cell regenerates byte-identically from "
                          "its label; overnight full-grid profile documented "
                          "in README (full 10,000-rep grid not run here)")
    assert ok, line


def test_criterion_10_estimator_oracles(report):
    worst_beta = 0.0
    for t in range(20):
        rng = np.random.default_rng(100 + t)
        n, p = int(rng.integers(25, 41)), int(rng.integers(1, 4))
        zs, xs, ys = [], [], []
        for _ in range(n):
            z = int(rng.integers(0, 2))
            x = rng.normal(size=p)
            zs.append(z)
            xs.append(x)
            ys.append(float(1.0 + 2.0 * z + x.sum() + rng.normal()))
        d = trial_rows("t", zs, ys, xs, is_target=True)
        fit = fit_weighted_regression(d, meat="hc0")
        X = np.column_stack([np.ones(n), d.z, d.X])
        ols = np.linalg.lstsq(X, d.y, rcond=None)[0]
        worst_beta = max(worst_beta, float(np.max(np.abs(fit.beta - ols))))

    rng = np.random.default_rng(2024)
    target = trial_rows("t", np.zeros(4000), np.zeros(4000), rng.normal(0.0, 1.0, 4000),
                        is_target=True)
    source = trial_rows("s", np.zeros(4000), np.zeros(4000), rng.normal(1.0, 1.0, 4000),
                        is_target=False)
    d = make_dataset((source, target), target_id="t")
    fit = fit_membership(d, linear_feature_map(1))
    grid = np.linspace(-2.0, 2.0, 81)
    w_hat = 2.0 / (1.0 + np.exp(-(fit.alpha[0] + fit.alpha[1] * grid)))
    w_true = 2.0 / (1.0 + np.exp(-(0.5 - grid)))
    rms = float(np.sqrt(np.mean((w_hat - w_true) ** 2)))

    ok = worst_beta <= 1e-10 and rms < 0.1
    line = report(10, ok, f"unit-weight WLS vs OLS on 20 random designs: "
                           f"max |coef diff| {worst_beta:.2e}; density-ratio vs "
                           f"shifted-normal oracle: RMS {rms:.4f} on [-2, 2]")
    assert ok, line
