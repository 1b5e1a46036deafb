"""Monte-Carlo engine: seeding, parallel equality, aggregation arithmetic."""

import concurrent.futures
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaborrow import estimate, pipeline, simulate
from metaborrow.errors import ConfigError, DataError
from metaborrow.estimate import Contrast, fit_weighted_regression
from metaborrow.simulate import (COVARIATE_DISTS, CSV_HEADER, EST_POOLED, EST_POOLED_UNI,
                                 EST_TARGET, CellResult, ReplicationResult,
                                 ScenarioConfig, aggregate, covariate_location,
                                 generate_meta_trials, generate_target_trial,
                                 read_cell_csv, run_cell,
                                 run_replication, write_cell_csv)

TINY = ScenarioConfig(K=5, n=20, replications=6, base_seed=123)


def test_config_validation():
    # K = 1 or 2 gives 2 or 4 arm rows, and the meta design (1, arm, x1, arm:x1) needs 5
    for bad in (dict(K=0), dict(K=1), dict(K=2), dict(n=3), dict(replications=0),
                dict(covariate_dist="cauchy"), dict(allocation="two_to_one"),
                dict(model_spec="wrong"), dict(borrow="never"), dict(meat="w9")):
        with pytest.raises(ConfigError):
            ScenarioConfig(**bad)
    # a bool or a float would write a label from_label refuses, or fail as a TypeError
    for bad in (dict(K=True), dict(K=2.5), dict(n=20.0), dict(replications=2.0),
                dict(replications=False), dict(base_seed=1.5), dict(base_seed=True)):
        (name, value), = bad.items()
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
            ScenarioConfig(**bad)


def test_delta0_grid():
    grid = TINY.delta0_grid
    assert grid[0] == 2.0 and grid[-1] == 4.0 and len(grid) == 21
    assert np.allclose(np.diff(grid), 0.1)


def test_label_roundtrip():
    cfg = ScenarioConfig(K=30, n=40, covariate_dist="chisq2",
                         allocation="three_to_one", model_spec="misidentified",
                         borrow="control_only", replications=10_000,
                         base_seed=99, meat="w4")
    assert ScenarioConfig.from_label(cfg.label) == cfg
    with pytest.raises(ConfigError, match="cannot parse"):
        ScenarioConfig.from_label("K10-n100")
    with pytest.raises(ConfigError, match="^K must be >= 3, got 2$"):
        ScenarioConfig.from_label(cfg.label.replace("K30-", "K2-"))
    with pytest.raises(ConfigError, match="cannot parse"):
        ScenarioConfig.from_label("Kten-n100-normal-one_to_one-identified-"
                                  "both_arms-reps5-seed1-w3")


def test_covariate_location_grid():
    assert covariate_location(1, 5) == -1.0
    assert covariate_location(5, 5) == 3.0
    assert covariate_location(3, 5) == 1.0
    assert covariate_location(1, 1) == 0.0


def reference_trial(k, K, n, dist, rng):
    """Trial k drawn with the Generator calls the outcome model names: (z, x, y)."""
    nk = int(rng.uniform(n, 4 * n))
    mu = covariate_location(k, K)
    x = rng.normal(mu, 1.0, nk) if dist == "normal" else rng.chisquare(2, nk) / 2.0 + mu - 1.0
    z = np.concatenate([np.ones(nk // 2), np.zeros(nk - nk // 2)])
    return z, x, 1.0 + 2.0 * z - x + 0.5 * z * x + rng.normal(0.0, 1.0, nk)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 30), st.integers(4, 60), st.sampled_from(COVARIATE_DISTS),
       st.integers(0, 2**32 - 1))
def test_one_pass_generation_is_k_sequential_trials(K, n, dist, seed):
    batch_rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    z, x, y, trials = generate_meta_trials(K, n, dist, batch_rng)
    refs = [reference_trial(k, K, n, dist, ref_rng) for k in range(1, K + 1)]
    for got, i in ((z, 0), (x, 1), (y, 2)):
        assert np.array_equal(got, np.concatenate([r[i] for r in refs]))
    # the stream is left where K sequential draws leave it: the target trial is unchanged
    assert batch_rng.random() == ref_rng.random()

    assert trials.trial_ids == tuple(f"sim{k:02d}" for k in range(1, K + 1))
    assert trials.trial.tolist() == np.repeat(np.arange(K), 2).tolist()
    assert trials.arm.tolist() == [1, 0] * K and not trials.binary.any()
    for i, (rz, rx, ry) in enumerate(refs):
        for row in (2 * i, 2 * i + 1):
            m = rz == trials.arm[row]
            assert trials.n[row] == m.sum()
            assert trials.y_mean[row] == pytest.approx(np.mean(ry[m]), rel=1e-13, abs=1e-13)
            assert trials.y_var[row] == pytest.approx(np.var(ry[m], ddof=1), rel=1e-13)
            assert trials.x_mean[row, 0] == pytest.approx(np.mean(rx[m]), rel=1e-13, abs=1e-13)
            assert trials.x_var[row, 0] == pytest.approx(np.var(rx[m], ddof=1), rel=1e-13)


def test_chisq2_covariates_have_unit_variance():
    rng = np.random.default_rng(1)
    _, x, _, _ = generate_meta_trials(1, 100_000, "chisq2", rng)
    assert x.mean() == pytest.approx(0.0, abs=0.03)   # location 0 when K = 1
    assert x.var() == pytest.approx(1.0, abs=0.05)
    assert x.min() > -1.5  # shifted chi-square is bounded below


def test_unknown_covariate_dist_rejected():
    rng = np.random.default_rng(3)
    for generate in (lambda: generate_target_trial(10, "one_to_one", "uniform", rng),
                     lambda: generate_meta_trials(2, 10, "bogus", rng)):
        with pytest.raises(ConfigError, match="dist must be one of"):
            generate()


def test_target_trial_allocations():
    rng = np.random.default_rng(2)
    for alloc, n1, n0 in (("one_to_one", 20, 20), ("three_to_one", 30, 10),
                          ("single_arm", 40, 0)):
        d = generate_target_trial(40, alloc, "normal", rng)
        assert d.z.tolist() == [1] * n1 + [0] * n0
        assert d.is_target.all() and d.trial_ids == ("target",)


def test_replication_is_deterministic():
    r1 = run_replication(TINY, 3)
    r2 = run_replication(TINY, 3)
    assert r1 == r2
    assert r1.ok and np.isfinite(r1.pooled.estimate)
    assert run_replication(TINY, 4) != r1


def test_clamped_arms_are_counted_not_warned():
    # small trials: sampled arm variances dip below the explained part
    cfg = ScenarioConfig(K=5, n=20, allocation="three_to_one", replications=40, base_seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters = list(warnings.filters)
        results = [run_replication(cfg, r) for r in range(cfg.replications)]
        assert warnings.filters == filters
    assert all(res.ok for res in results)
    assert sum(res.clamped_arms for res in results) > 0


def test_unestimable_comparator_keeps_the_pooled_estimates():
    # a 4-subject target cannot fit the 4-column identified model alone
    cfg = ScenarioConfig(K=5, n=4, replications=20, base_seed=1)
    results = [run_replication(cfg, r) for r in range(cfg.replications)]
    assert all(res.ok and res.target is None for res in results)
    assert all(np.isfinite([res.pooled.estimate, res.pooled.se]).all() for res in results)
    cell = aggregate(cfg, results)
    assert cell.failures == 0 and EST_TARGET not in cell.summaries
    assert cell.summary(EST_POOLED).n_used == 20


def test_model_spec_selects_outcome_columns(monkeypatch):
    # model_spec sets both outcome regressions: the pooled fit and the target comparator
    fitted = {}

    def recording(module):
        def fit(d, **kw):
            fitted[module.__name__] = fit_weighted_regression(d, **kw)
            return fitted[module.__name__]
        return fit

    for module in (pipeline, simulate):
        monkeypatch.setattr(module, "fit_weighted_regression", recording(module))
    for spec, columns in (("identified", ("intercept", "z", "x1", "z:x1")),
                          ("misidentified", ("intercept", "z"))):
        fitted.clear()
        res = run_replication(ScenarioConfig(K=5, n=20, model_spec=spec, base_seed=1), 0)
        assert res.ok and res.target is not None
        assert {name: fit.columns for name, fit in fitted.items()} == {
            "metaborrow.pipeline": columns, "metaborrow.simulate": columns}
        assert res.target == fitted["metaborrow.simulate"].z_contrast()


def test_non_finite_standard_error_is_unestimable(monkeypatch):
    def negative_z_variance(d, **kw):
        # what an ill-conditioned comparator gives: its variance of z rounded below zero
        fit = fit_weighted_regression(d, **kw)
        cov = fit.cov_beta.copy()
        cov[1, 1] = -1.0
        return replace(fit, cov_beta=cov)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as m:
            m.setattr(simulate, "fit_weighted_regression", negative_z_variance)
            res = run_replication(ScenarioConfig(K=3, n=6, allocation="three_to_one",
                                                 base_seed=3), 161)
        assert res.ok and res.target is None and np.isfinite(res.pooled.se)
        # the same rounding in the pooled fit fails the replication
        pooled = run_replication(ScenarioConfig(K=3, n=4, allocation="three_to_one",
                                                covariate_dist="chisq2", base_seed=1), 35)
    assert not pooled.ok
    assert pooled.error == "NumericalError: standard error of the z contrast is nan"


def test_non_finite_univariate_standard_error_fails_the_replication(monkeypatch):
    # arm outcomes of +-1e308 overflow the weighted moments: the univariate SE is infinite,
    # and the replication fails rather than averaging a NaN interval into its cell
    def overflowing(d):
        return estimate.estimate_univariate(replace(d, y=np.where(d.z == 1, 1e308, -1e308)))

    monkeypatch.setattr(simulate, "estimate_univariate", overflowing)
    res = run_replication(TINY, 0)
    assert not res.ok and res.pooled_univariate is None
    assert res.error == "NumericalError: standard error of the z contrast is inf"


def test_replications_differ_across_base_seeds():
    other = ScenarioConfig(K=5, n=20, replications=6, base_seed=124)
    assert run_replication(other, 3) != run_replication(TINY, 3)


def test_cell_smoke_and_estimator_presence():
    cfg = ScenarioConfig(K=5, n=20, replications=3, base_seed=11)
    cell = run_cell(cfg)
    assert cell.valid and cell.failures == 0
    assert set(cell.summaries) == {EST_POOLED, EST_POOLED_UNI, EST_TARGET}
    for s in cell.summaries.values():
        assert s.n_used == 3
        assert np.isfinite(s.mean) and np.isfinite(s.mse)


def test_single_arm_cell_has_no_target_comparator():
    cfg = ScenarioConfig(K=5, n=20, allocation="single_arm", replications=3,
                         base_seed=11)
    cell = run_cell(cfg)
    assert EST_TARGET not in cell.summaries
    assert EST_POOLED in cell.summaries  # borrowing restores the control arm


def test_parallel_equals_serial():
    serial = run_cell(TINY, jobs=1)
    parallel = run_cell(TINY, jobs=2)
    assert serial == parallel


def test_serial_cell_loads_no_process_pool():
    # run_cell imports the pool only to build one, so a serial run (and every CLI stage
    # process) never loads multiprocessing; this session may have, so a fresh interpreter
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, metaborrow, metaborrow.cli\n"
            "from metaborrow.simulate import ScenarioConfig, run_cell\n"
            f"cfg = {TINY!r}\n"
            "serial = run_cell(cfg)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'\n"
            "             or m == 'concurrent.futures.process'))\n"
            "print(run_cell(cfg, jobs=2) == serial, 'concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "True True"]


class RecordingPool:
    """Stands in for concurrent.futures.ProcessPoolExecutor, the name run_cell imports when
    it pools: records its width, runs the map in-process."""

    widths = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_pool_width_is_capped_and_jobs_checked(monkeypatch):
    # the pool starts all its workers at once: never more than one per replication
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "widths", [])
    cfg = ScenarioConfig(K=5, n=20, replications=3, base_seed=123)
    serial = run_cell(cfg, jobs=1)
    assert run_cell(cfg, jobs=5000) == serial
    assert run_cell(cfg, jobs=2) == serial
    assert RecordingPool.widths == [3, 2]
    for jobs in (0, -4):
        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            run_cell(cfg, jobs=jobs)
    for jobs in (1.5, True):
        with pytest.raises(ConfigError, match=f"^jobs must be an integer, got {jobs}$"):
            run_cell(cfg, jobs=jobs)
    assert RecordingPool.widths == [3, 2]


def contrast(est, se, ci_low, ci_high):
    """A normal-reference Contrast with this interval (aggregate reads no statistic or p)."""
    return Contrast(est, se, ci_low, ci_high, est / se, 0.0)


def test_aggregate_arithmetic_oracles():
    cfg = ScenarioConfig(K=5, n=20, replications=2, base_seed=1)
    on_target = contrast(2.0, 0.05, 1.95, 2.05)
    res = [ReplicationResult(rep=r, ok=True, pooled=on_target,
                             pooled_univariate=contrast(1.0 + 2.0 * r, 0.1, 0.5 + 2.0 * r,
                                                        1.5 + 2.0 * r),
                             target=None) for r in (0, 1)]
    cell = aggregate(cfg, res)
    reg = cell.summary(EST_POOLED)
    assert reg.mse == 0.0 and reg.bias == 0.0 and reg.coverage == 1.0
    assert reg.type1 == 0.0
    assert reg.power_curve[1] == 1.0  # CI (1.95, 2.05) excludes 2.1
    uni = cell.summary(EST_POOLED_UNI)  # estimates 1 and 3, CIs miss 2
    assert uni.mse == 1.0 and uni.bias == 0.0 and uni.variance == 1.0
    assert uni.coverage == 0.0 and uni.type1 == 1.0
    assert EST_TARGET not in cell.summaries


def test_aggregate_counts_failures_and_keeps_order():
    cfg = ScenarioConfig(K=5, n=20, replications=3, base_seed=1)
    good = ReplicationResult(rep=2, ok=True,
                             pooled=contrast(2.0, 0.1, 1.8, 2.2),
                             pooled_univariate=contrast(2.0, 0.1, 1.8, 2.2),
                             target=None)
    bad = ReplicationResult(rep=0, ok=False, error="NumericalError: singular")
    cell = aggregate(cfg, [good, bad])
    assert cell.failures == 1
    assert cell.summary(EST_POOLED).n_used == 1
    empty = aggregate(cfg, [bad])
    assert not empty.valid
    with pytest.raises(DataError, match="no successful"):
        empty.summary(EST_POOLED)


def test_csv_roundtrip(tmp_path):
    cell = run_cell(TINY)
    path = tmp_path / "cells.csv"
    write_cell_csv(cell, path)
    table = read_cell_csv(path)
    assert list(table) == [TINY.label]
    rows = table[TINY.label]
    assert rows[("", "replications", None)] == 6
    assert rows[("", "failures", None)] == cell.failures
    reg = cell.summary(EST_POOLED)
    assert rows[(EST_POOLED, "mean", None)] == reg.mean
    assert rows[(EST_POOLED, "mse", None)] == reg.mse
    assert rows[(EST_POOLED, "power", 2.0)] == reg.power_curve[0]
    assert rows[(EST_POOLED, "power", 4.0)] == reg.power_curve[-1]
    # the label is enough to regenerate the cell
    assert run_cell(ScenarioConfig.from_label(TINY.label)) == cell


@pytest.mark.parametrize("first", ["header", "cell"])
def test_csv_append_ends_an_unfinished_last_line(tmp_path, first):
    # a results file whose last line lacks its line end: the appended rows start a new line
    other = ScenarioConfig(K=5, n=20, replications=2, base_seed=9)
    path, whole = tmp_path / "cut.csv", tmp_path / "whole.csv"
    cells = [run_cell(TINY), run_cell(other)] if first == "cell" else [run_cell(other)]
    for i, cell in enumerate(cells):
        write_cell_csv(cell, whole, append=i > 0)
    if first == "cell":
        write_cell_csv(cells[0], path)
        path.write_bytes(path.read_bytes().removesuffix(b"\r\n"))
    else:
        path.write_text(",".join(CSV_HEADER))
    write_cell_csv(cells[-1], path, append=True)
    assert path.read_bytes() == whole.read_bytes()
    assert set(read_cell_csv(path)) == {c.config.label for c in cells}


def test_csv_append_and_read_skip_a_byte_order_mark(tmp_path):
    # a results file saved by a spreadsheet starts with EF BB BF, ahead of its header
    other = ScenarioConfig(K=5, n=20, replications=2, base_seed=9)
    path = tmp_path / "cells.csv"
    write_cell_csv(run_cell(TINY), path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    write_cell_csv(run_cell(other), path, append=True)
    assert set(read_cell_csv(path)) == {TINY.label, other.label}


def test_csv_append_collects_cells(tmp_path):
    path = tmp_path / "cells.csv"
    other = ScenarioConfig(K=5, n=20, replications=2, base_seed=9)
    write_cell_csv(run_cell(TINY), path)
    write_cell_csv(run_cell(other), path, append=True)
    table = read_cell_csv(path)
    assert set(table) == {TINY.label, other.label}
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="expected header"):
        read_cell_csv(bad)
    # a value that is not a number, and a row cut after its metric, name the file line
    for row in ("s,pooled,mse,,abc", "s,pooled,mse"):
        bad.write_text(f"{','.join(CSV_HEADER)}\ns,pooled,bias,,0.5\n{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: line 3: cannot parse "
                                            "results row"):
            read_cell_csv(bad)
    # bytes that are not UTF-8, and a field over the csv module's size limit, name the file
    for row in (b"\xff\xfe,pooled,mse,,1", b"s,pooled,mse,," + b"1" * 200_000):
        bad.write_bytes(",".join(CSV_HEADER).encode() + b"\n" + row + b"\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: cannot read results "
                                            "file"):
            read_cell_csv(bad)
