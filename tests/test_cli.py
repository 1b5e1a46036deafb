"""CLI behavior: exit codes, help screens, and stage composition via files."""

import json
import warnings

import numpy as np
import pytest
from summary_tables import arm_row, pool, table

from metaborrow import cli, simulate
from metaborrow.cli import main
from metaborrow.data import (Dataset, read_subjects, read_summaries, write_subjects,
                             write_summaries)
from metaborrow.pipeline import borrow
from metaborrow.reconstruct import ClampWarning
from metaborrow.simulate import ScenarioConfig, run_replication

SUBCOMMANDS = ("meta", "reconstruct", "weights", "estimate", "simulate",
               "case-study", "pipeline")


def summaries_csv(tmp_path, x_means=(-1.0, 0.0, 1.0)):
    rng = np.random.default_rng(42)
    arms = [arm_row(f"trial{i + 1}", arm_val, 40 + 5 * i,
                    y_mean=1.0 + 2.0 * arm_val - mu + rng.normal(0, 0.1), y_var=2.0 + 0.1 * i,
                    x_mean=(mu,), x_var=(1.0,))
            for i, mu in enumerate(x_means) for arm_val in (1, 0)]
    path = tmp_path / "summaries.csv"
    write_summaries(table(*arms), path)
    return str(path)


def target_csv(tmp_path):
    rng = np.random.default_rng(99)
    z, xs, ys = np.arange(40) % 2, [], []
    for i in range(40):
        x = float(rng.normal())
        xs.append((x,))
        ys.append(1.0 + 2.0 * (i % 2) - x + float(rng.normal()))
    path = tmp_path / "target.csv"
    target = Dataset(("tgt",), np.zeros(40, int), z, ys, xs, np.ones(40), np.ones(40, bool))
    write_subjects(target, path, include_weight=False)
    return str(path)


def run_ok(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def run_fail(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    captured = capsys.readouterr()
    return exc_info.value.code, captured.err


def test_help_screens(capsys):
    for args in ([], *([cmd] for cmd in SUBCOMMANDS)):
        assert main([*args, "--help"]) == 0
        assert "Usage:" in capsys.readouterr().out


def test_no_args_shows_usage(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    out = capsys.readouterr()
    assert exc_info.value.code in (0, 2)
    assert "Usage:" in out.out + out.err


def test_unknown_option_is_usage_error(capsys):
    code, err = run_fail(capsys, ["meta", "--nonsense"])
    assert code == 2
    assert "nonsense" in err.lower() or "no such option" in err.lower()


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    code, err = run_fail(capsys, ["meta", "--summaries", str(tmp_path / "no.csv")])
    assert code == 2
    assert "does not exist" in err


@pytest.mark.parametrize("command", ["meta-out", "reconstruct", "estimate", "case-study",
                                     "simulate", "pipeline-out-file", "meta-summaries-dir"])
def test_refused_path_exits_2(tmp_path, capsys, command):
    spath, tpath = summaries_csv(tmp_path), target_csv(tmp_path)
    missing = str(tmp_path / "missing" / "x.json")
    argv = {
        "meta-out": ["meta", "--summaries", spath, "--out", missing],
        "reconstruct": ["reconstruct", "--summaries", spath, "--seed", "1", "--out", missing],
        "estimate": ["estimate", "--subjects", tpath, "--out", missing],
        "case-study": ["case-study", "--scenario", "meta", "--out", missing],
        "simulate": ["simulate", "--K", "3", "--n", "20", "--reps", "2", "--seed", "1",
                     "--out", missing],
        "pipeline-out-file": ["pipeline", "--summaries", spath, "--target", tpath, "--seed", "1",
                              "--out", spath],
        "meta-summaries-dir": ["meta", "--summaries", str(tmp_path)],
    }[command]
    code, err = run_fail(capsys, argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_simulate_checks_the_out_directory_before_running(tmp_path, capsys, monkeypatch):
    def run_cell(*args, **kwargs):
        raise AssertionError("run_cell called before the output path was checked")

    monkeypatch.setattr(cli, "run_cell", run_cell)
    missing = str(tmp_path / "missing" / "x.csv")
    code, err = run_fail(capsys, ["simulate", "--reps", "2", "--seed", "1", "--out", missing])
    assert code == 2
    # the text the write would fail with, after the whole run
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_simulate_append_refuses_a_file_that_is_not_a_results_file(tmp_path, capsys,
                                                                    monkeypatch):
    def run_cell(*args, **kwargs):
        raise AssertionError("run_cell called before the output file was checked")

    monkeypatch.setattr(cli, "run_cell", run_cell)
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    code, err = run_fail(capsys, ["simulate", "--reps", "2", "--seed", "1", "--K", "5",
                                  "--n", "20", "--append", "--out", str(other)])
    assert code == 3
    assert err == (f"error: {other}: cannot append, expected header "
                   "scenario,estimator,metric,delta0,value\n")
    assert other.read_text() == "a,b\n1,2\n"


def test_simulate_append_to_an_empty_file_writes_the_header(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    out.touch()
    for seed in ("1", "2"):  # the second cell's rows go after the first's
        run_ok(capsys, ["simulate", "--reps", "2", "--seed", seed, "--K", "5", "--n", "20",
                        "--append", "--out", str(out)])
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(simulate.CSV_HEADER)
    assert rows.count(",".join(simulate.CSV_HEADER)) == 1
    assert len(simulate.read_cell_csv(out)) == 2


def test_config_errors_exit_2(tmp_path, capsys):
    spath = summaries_csv(tmp_path)
    code, err = run_fail(capsys, ["simulate", "--reps", "2"])
    assert code == 2 and "error: a seed is required" in err
    code, err = run_fail(capsys, ["reconstruct", "--summaries", spath,
                                  "--seed", "1"])
    assert code == 2 and "output path is required" in err
    code, err = run_fail(capsys, ["case-study", "--scenario", "bogus"])
    assert code == 2  # click Choice rejects it before the command runs
    for jobs in ("0", "-4"):
        code, err = run_fail(capsys, ["simulate", "--reps", "2", "--seed", "1", "--jobs", jobs])
        assert code == 2 and f"error: jobs must be >= 1, got {jobs}" in err


@pytest.mark.parametrize("level", ["0", "1", "1.5", "-0.1", "nan"])
def test_level_outside_unit_interval_exits_2(tmp_path, capsys, level):
    for argv in (["meta", "--summaries", summaries_csv(tmp_path)],
                 ["estimate", "--subjects", target_csv(tmp_path)]):
        code, err = run_fail(capsys, argv + ["--level", level])
        assert code == 2 and "level must be a number in (0, 1)" in err


@pytest.mark.parametrize("command", ["reconstruct", "simulate", "case-study", "pipeline"])
def test_negative_reconstruction_seed_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv, seed_name = {
        "reconstruct": (["--summaries", summaries_csv(tmp_path), "--out", str(out)], "rng_seed"),
        "simulate": (["--K", "5", "--reps", "2", "--out", str(out)], "base_seed"),
        "case-study": (["--scenario", "target", "--out", str(out)], "seed"),
        "pipeline": (["--summaries", summaries_csv(tmp_path), "--target", target_csv(tmp_path),
                      "--out", str(out)], "seed"),
    }[command]
    code, err = run_fail(capsys, [command, *argv, "--seed", "-1"])
    assert code == 2 and f"error: {seed_name} must be nonnegative, got -1" in err
    assert "Traceback" not in err
    assert not out.exists()  # rejected before any output is written


def test_contradictory_outcome_flags_exit_2(tmp_path, capsys):
    # the z*x interaction needs the covariates; it used to fit (1, z) silently
    out = tmp_path / "est.json"
    code, err = run_fail(capsys, ["estimate", "--subjects", target_csv(tmp_path),
                                  "--no-covariates", "--interaction", "--out", str(out)])
    assert code == 2 and "interaction needs the covariates" in err
    assert not out.exists()


def test_bad_feature_spec_exits_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    for command, argv in (("weights", ["--subjects", target_csv(tmp_path), "--target-id", "tgt",
                                       "--out", str(out)]),
                          ("pipeline", ["--summaries", summaries_csv(tmp_path), "--target",
                                        target_csv(tmp_path), "--seed", "7", "--out", str(out)])):
        code, err = run_fail(capsys, [command, *argv, "--features", "x1,bogus"])
        assert code == 2 and "cannot parse feature atom 'bogus'" in err, command
        assert not out.exists() or list(out.iterdir()) == []


def test_data_error_exits_3(tmp_path, capsys):
    spath = summaries_csv(tmp_path)
    lines = (tmp_path / "summaries.csv").read_text().splitlines()
    dup = tmp_path / "dup.csv"
    dup.write_text("\n".join(lines + [lines[1]]) + "\n")
    code, err = run_fail(capsys, ["meta", "--summaries", str(dup)])
    assert code == 3
    assert "duplicate" in err


def test_meta_fit_on_other_covariates_exits_3(tmp_path, capsys):
    # a fit made on p = 1 summaries, used with p = 2 summaries
    spath = summaries_csv(tmp_path)
    fit_path = str(tmp_path / "fit.json")
    run_ok(capsys, ["meta", "--summaries", spath, "--out", fit_path])
    wide = table(*(arm_row(f"w{k}", arm_val, 30, 1.0 + arm_val + k, 2.0,
                           x_mean=(0.5 * k, 0.3 * k), x_var=(1.0, 1.0))
                   for k in range(3) for arm_val in (1, 0)))
    wide_path = tmp_path / "wide.csv"
    write_summaries(wide, wide_path)
    code, err = run_fail(capsys, ["reconstruct", "--summaries", str(wide_path), "--meta-fit",
                                  fit_path, "--seed", "1", "--out", str(tmp_path / "r.csv")])
    assert code == 3
    assert ("meta fit columns (intercept, arm, x1_mean) do not match the meta design for "
            "p = 2: (intercept, arm, x1_mean, x2_mean) or "
            "(intercept, arm, x1_mean, x2_mean, arm:x1_mean, arm:x2_mean)") in err
    assert not (tmp_path / "r.csv").exists()


def test_surrogate_trial_id_exits_3_before_any_artifact(tmp_path, capsys):
    # a JSON id escaping a lone surrogate is refused where it is read, not when
    # reconstruction hashes it or a writer encodes it
    bad = tmp_path / "bad.json"
    write_summaries(read_summaries(summaries_csv(tmp_path)), bad)
    rows = json.loads(bad.read_text())
    rows[2]["trial_id"] = "\udcff" + rows[2]["trial_id"]  # file object 3
    bad.write_text(json.dumps(rows))
    needle = "object 3: trial_id '\\udcfftrial2' is not UTF-8 text"
    for argv in (["meta", "--summaries", str(bad)],
                 ["reconstruct", "--summaries", str(bad), "--seed", "1",
                  "--out", str(tmp_path / "r.csv")],
                 ["pipeline", "--summaries", str(bad), "--target", target_csv(tmp_path),
                  "--seed", "1", "--out", str(tmp_path / "out")]):
        code, err = run_fail(capsys, argv)
        assert code == 3 and needle in err and "Traceback" not in err, argv[0]
    assert not (tmp_path / "r.csv").exists() and list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("column, value, needle", [
    ("z", "2", "arm indicator must be 0 or 1, got 2"),
    ("y", "nan", "outcome not finite"),
    ("x1", "inf", "covariate not finite"),
    ("weight", "-1.0", "weight must be finite and nonnegative"),
    ("source", "bogus", "unknown source tag 'bogus'"),
])
def test_pipeline_rejects_invalid_target_rows(tmp_path, capsys, column, value, needle):
    spath = summaries_csv(tmp_path)
    tpath = target_csv(tmp_path)
    header, *rows = [line.split(",") for line in
                     (tmp_path / "target.csv").read_text().splitlines()]
    if column not in header:
        header.append(column)
        for row in rows:
            row.append("1.0")
    rows[3][header.index(column)] = value
    (tmp_path / "target.csv").write_text(
        "".join(",".join(line) + "\n" for line in [header, *rows]))
    code, err = run_fail(capsys, ["pipeline", "--summaries", spath, "--target", tpath,
                                  "--seed", "3", "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"line 5: trial 'tgt': {needle}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["y_mean", "y_sd", "x1_mean", "x1_sd"])
def test_pipeline_rejects_non_finite_summaries(tmp_path, capsys, column, value):
    spath = summaries_csv(tmp_path)
    header, *rows = [line.split(",") for line in
                     (tmp_path / "summaries.csv").read_text().splitlines()]
    rows[1][header.index(column)] = value  # file line 3: trial1, control arm
    (tmp_path / "summaries.csv").write_text(
        "".join(",".join(line) + "\n" for line in [header, *rows]))
    code, err = run_fail(capsys, ["pipeline", "--summaries", spath,
                                  "--target", target_csv(tmp_path),
                                  "--seed", "3", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "line 3: trial 'trial1' arm 0: summary not finite" in err
    assert "Traceback" not in err


def test_numerical_error_exits_4(tmp_path, capsys):
    # one covariate mean shared by every arm: collinear with the intercept
    spath = summaries_csv(tmp_path, x_means=(0.5, 0.5, 0.5))
    code, err = run_fail(capsys, ["meta", "--summaries", spath])
    assert code == 4
    assert "x1_mean" in err


def test_nan_standard_error_exits_4(tmp_path, capsys, monkeypatch):
    # a simulated replication whose pooled z variance rounds below zero: keep its inputs
    calls = []

    def keep(*args, **kw):
        calls.append((args, borrow(*args, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(simulate, "borrow", keep)
    res = run_replication(ScenarioConfig(K=3, n=4, allocation="three_to_one",
                                         covariate_dist="chisq2", base_seed=1), 35)
    assert res.error == "NumericalError: standard error of the z contrast is nan"
    ((summaries, _, target, rcfg), done), = calls
    spath, tpath, wpath = (str(tmp_path / f) for f in ("s.csv", "t.csv", "w.csv"))
    write_summaries(summaries, spath)
    write_subjects(target, tpath, include_weight=False)
    write_subjects(done.membership.weighted, wpath)

    code, err = run_fail(capsys, ["estimate", "--subjects", wpath, "--interaction",
                                  "--meat", "w3", "--out", str(tmp_path / "est.json")])
    assert code == 4 and "standard error of the z contrast is nan" in err
    assert not (tmp_path / "est.json").exists()

    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampWarning)
        code, err = run_fail(capsys, ["pipeline", "--summaries", spath, "--target", tpath,
                                      "--seed", str(rcfg.rng_seed), "--meta-interaction",
                                      "--outcome-interaction", "--meat", "w3",
                                      "--out", str(out)])
    assert code == 4 and "stage estimate: standard error of the z contrast is nan" in err
    assert (out / "weighted.csv").exists()
    assert not (out / "estimate.json").exists() and not (out / "summary.txt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_univariate_infinite_standard_error_exits_4(tmp_path, capsys):
    # outcomes of +-1e308 overflow every arm moment, so the univariate SE is infinite and
    # the regression's NaN: no contrast, not an exit-0 interval of NaN and Infinity, and
    # no numpy overflow warning ahead of the one error line (here raised as an error)
    path = tmp_path / "huge.csv"
    path.write_text("trial_id,z,y,x1\nt,1,1e308,0.5\nt,1,1e308,-0.5\n"
                    "t,0,-1e308,0.5\nt,0,-1e308,-0.5\n")
    for estimator, se in (("univariate", "inf"), ("regression", "nan"), ("both", "nan")):
        code, err = run_fail(capsys, ["estimate", "--subjects", str(path), "--estimator",
                                      estimator, "--out", str(tmp_path / "est.json")])
        assert code == 4, estimator
        assert err == f"error: standard error of the z contrast is {se}\n", estimator
        assert not (tmp_path / "est.json").exists()


# Subject rows whose contrast is not estimable: one row per arm (outcomes +-1e308, or
# finite), and two rows per arm with one outcome each, on two covariate layouts
NON_ESTIMABLE = {
    "one_row_huge": "T,0,1e308,0.1\nT,1,-1e308,0.2\n",
    "one_row": "T,0,1.0,0.1\nT,1,2.0,0.2\n",
    "constant": "T,0,1.0,0.1\nT,0,1.0,0.3\nT,1,2.0,0.2\nT,1,2.0,0.5\n",
    "constant_x": "T,0,1.0,0.1\nT,0,1.0,0.3\nT,1,2.0,0.2\nT,1,2.0,0.4\n",
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows, estimator, error", [
    pytest.param(rows, estimator, error, id=f"{rows}-{estimator}")
    for rows, estimator, error in (
        ("one_row_huge", "univariate", "arm 0 has Kish effective size "),
        ("one_row", "univariate", "arm 0 has Kish effective size "),
        ("constant", "both", "outcome fit is exact to rounding ("),
        ("constant", "univariate", "standard error of the z contrast is 0.0\n"),
        ("constant_x", "both", "outcome fit is exact to rounding ("),
        ("constant_x", "univariate", "standard error of the z contrast is 0.0\n"))])
def test_non_estimable_contrast_exits_4(tmp_path, capsys, rows, estimator, error):
    # each printed p 0 (or a regression t near 1e15) and exited 0; an SE of 0, or of
    # rounding only, is no evidence, so nothing is printed or written but one error line
    path = tmp_path / "rows.csv"
    path.write_text("trial_id,z,y,x1\n" + NON_ESTIMABLE[rows])
    out = tmp_path / "est.json"
    code, err = run_fail(capsys, ["estimate", "--subjects", str(path), "--estimator",
                                  estimator, "--out", str(out)])
    assert code == 4
    assert err.startswith("error: " + error) and err.count("\n") == 1
    assert not out.exists()


def test_stage_composition(tmp_path, capsys):
    spath = summaries_csv(tmp_path)
    tpath = target_csv(tmp_path)
    fit_json = str(tmp_path / "fit.json")
    recon_csv = str(tmp_path / "recon.csv")
    pooled_csv = str(tmp_path / "pooled.csv")
    weighted_csv = str(tmp_path / "weighted.csv")
    est_json = str(tmp_path / "est.json")

    out = run_ok(capsys, ["meta", "--summaries", spath, "--out", fit_json])
    assert "rows: 6" in out and "tau2:" in out
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["columns"] == ["intercept", "arm", "x1_mean"]

    out = run_ok(capsys, ["reconstruct", "--summaries", spath,
                          "--meta-fit", fit_json, "--seed", "11",
                          "--out", recon_csv])
    assert "reconstructed 270 subjects from 3 trials" in out

    recon = read_subjects(recon_csv)
    target = read_subjects(tpath)
    assert not recon.is_target.any() and target.is_target.all()
    write_subjects(pool((recon, target)), pooled_csv)

    out = run_ok(capsys, ["weights", "--subjects", pooled_csv,
                          "--out", weighted_csv])
    assert "converged=True" in out
    assert "weights: mean 1.000000" in out

    out = run_ok(capsys, ["estimate", "--subjects", weighted_csv,
                          "--estimator", "both", "--out", est_json])
    assert "regression (w4): z =" in out
    assert "univariate: delta =" in out
    payload = json.loads((tmp_path / "est.json").read_text())
    assert set(payload) == {"regression", "univariate"}
    contrast = {"estimate", "se", "ci_low", "ci_high", "p_value"}
    assert set(payload["regression"]["contrast_z"]) == contrast | {"t_stat"}
    uni = payload["univariate"]
    assert set(uni) == contrast | {"z_stat", "n_eff_treated", "n_eff_control"}
    weighted = read_subjects(weighted_csv)
    assert [uni["n_eff_control"], uni["n_eff_treated"]] == [
        float(weighted.w[weighted.z == arm].sum()) for arm in (0, 1)]
    # borrowing 270 reconstructed subjects should land near the true effect 2
    assert abs(payload["regression"]["contrast_z"]["estimate"] - 2.0) < 1.0


def test_reconstruct_warns_once_per_clamped_arm(tmp_path, capsys):
    # each arm's slope of -1 on x explains 1.0 of the outcome variance: the
    # arms reporting 0.1 are clamped, the ones reporting 2.0 are not
    arms = [arm_row(f"t{k}", a, 40, y_mean=1.0 + 2.0 * a - mu,
                    y_var=0.1 if (k, a) in {(0, 0), (2, 1)} else 2.0, x_mean=(mu,),
                    x_var=(1.0,))
            for k, mu in enumerate((-1.0, 0.0, 1.0)) for a in (1, 0)]
    spath = tmp_path / "tight.csv"
    write_summaries(table(*arms), spath)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_ok(capsys, ["reconstruct", "--summaries", str(spath), "--seed", "3",
                        "--out", str(tmp_path / "recon.csv")])
    clamps = [w.message for w in caught if issubclass(w.category, ClampWarning)]
    assert [(c.trial_id, c.arm) for c in clamps] == [("t0", 0), ("t2", 1)]
    assert all(f"trial {c.trial_id!r} arm {c.arm}: residual variance" in str(c) and
               "clamped to" in str(c) for c in clamps)


def test_seed_and_out_follow_the_subcommand(tmp_path, capsys):
    spath = summaries_csv(tmp_path)
    recon_csv = tmp_path / "recon.csv"
    # the group takes only --log-level: a seed or an output path before the subcommand is
    # a usage error
    for flag, value in (("--seed", "11"), ("--out", str(recon_csv))):
        code, err = run_fail(capsys, [flag, value, "reconstruct", "--summaries", spath,
                                      "--seed", "11", "--out", str(recon_csv)])
        assert code == 2 and "No such option" in err and flag in err
    assert not recon_csv.exists()
    run_ok(capsys, ["reconstruct", "--summaries", spath, "--seed", "11",
                    "--out", str(recon_csv)])
    assert recon_csv.exists()


def test_simulate_cell_and_from_label(tmp_path, capsys):
    csv1 = tmp_path / "cell.csv"
    out = run_ok(capsys, ["simulate", "--K", "5", "--n", "20", "--reps", "4",
                          "--seed", "123", "--out", str(csv1)])
    label = next(line.split()[1] for line in out.splitlines()
                 if line.startswith("cell "))
    assert label == "K5-n20-normal-one_to_one-identified-both_arms-reps4-seed123-w3"
    assert "pooled_regression" in out and "target_regression" in out

    csv2 = tmp_path / "again.csv"
    run_ok(capsys, ["simulate", "--from-label", label, "--out", str(csv2)])
    assert csv1.read_text() == csv2.read_text()


def test_simulate_reports_pooled_rows_when_the_comparator_is_unestimable(capsys):
    out = run_ok(capsys, ["simulate", "--K", "5", "--n", "4", "--reps", "20", "--seed", "1"])
    assert "pooled_regression    n=20" in out and "pooled_univariate    n=20" in out
    assert "target_regression" not in out and "failures" not in out


def test_case_study_meta_and_nc_rows(tmp_path, capsys):
    out = run_ok(capsys, ["case-study", "--scenario", "meta"])
    assert "meta stage: 8 arm rows" in out
    assert "arm:x1_mean" not in out  # case-study design is main-effects only

    out_json = tmp_path / "cs.json"
    out = run_ok(capsys, ["case-study", "--scenario", "single_arm",
                          "--out", str(out_json)])
    assert "single_arm" in out and "NC" in out
    payload = json.loads(out_json.read_text())
    assert payload["seed"] == 40
    assert payload["scenarios"][0]["estimate"] == "NC"


def test_pipeline_command_with_config_file(tmp_path, capsys):
    spath = summaries_csv(tmp_path)
    tpath = target_csv(tmp_path)
    cfg = {"summaries": spath, "target": tpath, "seed": 7,
           "out": str(tmp_path / "run"), "meat": "w4"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = run_ok(capsys, ["pipeline", "--config", str(cfg_path),
                          "--meat", "w3"])
    assert "z contrast:" in out
    assert (tmp_path / "run" / "summary.txt").exists()
    est = json.loads((tmp_path / "run" / "estimate.json").read_text())
    assert est["meat"] == "w3"  # the flag overrides the config file


def test_pipeline_config_with_interaction_but_no_covariates_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = {"summaries": summaries_csv(tmp_path), "target": target_csv(tmp_path), "seed": 7,
           "out": str(out_dir), "outcome_covariates": False, "outcome_interaction": True}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, err = run_fail(capsys, ["pipeline", "--config", str(cfg_path)])
    assert code == 2 and "outcome_interaction needs outcome_covariates" in err
    assert not out_dir.exists()
