"""End-to-end pipeline: artifacts, determinism, staged error reporting."""

import filecmp
import json
import math
import warnings

import numpy as np
import pytest

from summary_tables import arm_row, table

from metaborrow.data import (Dataset, read_subjects, read_summaries, write_subjects,
                             write_summaries)
from metaborrow import pipeline
from metaborrow.errors import ConfigError, NumericalError
from metaborrow.meta import MetaFit
from metaborrow.pipeline import (PipelineConfig, meta_from_dict, meta_to_dict,
                                 read_config, run_pipeline)
from metaborrow.reconstruct import ClampWarning

ARTIFACTS = ("meta_fit.json", "reconstructed.csv", "weighted.csv",
             "estimate.json", "summary.txt")


def write_inputs(tmp_path, p=1, tight=()):
    """Summaries and target files; the (trial id, arm) pairs in ``tight`` report an outcome
    variance of 0.1, less than the covariate slope explains, so they are clamped."""
    rng = np.random.default_rng(42)
    arms = [arm_row(f"trial{i + 1}", arm_val, 40 + 5 * i,
                    y_mean=1.0 + 2.0 * arm_val - mu + rng.normal(0, 0.1),
                    y_var=0.1 if (f"trial{i + 1}", arm_val) in tight else 2.0 + 0.1 * i,
                    x_mean=(mu,) * p, x_var=(1.0,) * p)
            for i, mu in enumerate((-1.0, 0.0, 1.0)) for arm_val in (1, 0)]
    spath = tmp_path / "summaries.csv"
    write_summaries(table(*arms), spath)

    z, xs, ys = np.arange(40) % 2, [], []
    for i in range(40):
        x = rng.normal(0.0, 1.0, p)
        xs.append(x)
        ys.append(1.0 + 2.0 * (i % 2) - x[0] + rng.normal())
    tpath = tmp_path / "target.csv"
    target = Dataset(("tgt",), np.zeros(40, int), z, ys, xs, np.ones(40), np.ones(40, bool),
                     "tgt")
    write_subjects(target, tpath)
    return str(spath), str(tpath)


def config(tmp_path, out="run", tight=(), **kw):
    spath, tpath = write_inputs(tmp_path, tight=tight)
    base = dict(summaries=spath, target=tpath, out=str(tmp_path / out), seed=7)
    base.update(kw)
    return PipelineConfig(**base)


def test_pipeline_writes_all_artifacts(tmp_path):
    cfg = config(tmp_path)
    result = run_pipeline(cfg)
    outdir = tmp_path / "run"
    for name in ARTIFACTS:
        assert (outdir / name).exists()
    assert result["artifacts"] == [str(outdir / name) for name in ARTIFACTS]

    est = json.loads((outdir / "estimate.json").read_text())
    assert est["stamp"] == {"config_hash": cfg.config_hash(), "seed": 7}
    assert est["columns"] == ["intercept", "z", "x1"]
    assert np.isfinite(est["contrast_z"]["estimate"])
    assert est["membership"]["converged"] is True
    assert est["tau2"] >= 0.0
    summary = (outdir / "summary.txt").read_text()
    assert cfg.config_hash() in summary
    # the CSV artifacts are stamped with the same hash
    head = (outdir / "weighted.csv").read_text().splitlines()[0]
    assert head == f"# config_hash={cfg.config_hash()}"
    # weighted.csv reuses reconstructed.csv's text for its last rows: they are
    # those rows, and a fresh write of the rows read back gives the same bytes
    weighted = read_subjects(outdir / "weighted.csv")
    recon = read_subjects(outdir / "reconstructed.csv")
    k = weighted.n_target()
    assert len(weighted) == est["n"] == k + len(recon)
    assert ([weighted.trial_ids[i] for i in weighted.trial[k:]]
            == [recon.trial_ids[i] for i in recon.trial])
    for name in ("z", "y", "X"):
        assert np.array_equal(getattr(weighted, name)[k:], getattr(recon, name))
    rewritten = tmp_path / "rewritten.csv"
    write_subjects(weighted, rewritten, stamp=result["stamp"])
    assert rewritten.read_bytes() == (outdir / "weighted.csv").read_bytes()


def test_pipeline_reruns_byte_identical(tmp_path):
    cfg1 = config(tmp_path, out="run1")
    cfg2 = config(tmp_path, out="run2")
    assert cfg1.config_hash() == cfg2.config_hash()  # out path excluded
    run_pipeline(cfg1)
    run_pipeline(cfg2)
    for name in ARTIFACTS:
        assert filecmp.cmp(tmp_path / "run1" / name, tmp_path / "run2" / name,
                           shallow=False), name


def test_pipeline_seed_changes_artifacts(tmp_path):
    cfg1 = config(tmp_path, out="run1")
    cfg2 = config(tmp_path, out="run2", seed=8)
    assert cfg1.config_hash() != cfg2.config_hash()
    r1 = run_pipeline(cfg1)
    r2 = run_pipeline(cfg2)
    assert r1["estimate"]["contrast_z"]["estimate"] != \
        r2["estimate"]["contrast_z"]["estimate"]
    # the meta stage is deterministic, only reconstruction shifts
    assert r1["meta"]["beta"] == r2["meta"]["beta"]


def test_missing_input_fails_before_any_artifact(tmp_path):
    cfg = config(tmp_path)
    missing = PipelineConfig(summaries=str(tmp_path / "absent.csv"),
                             target=cfg.target, out=str(tmp_path / "never"),
                             seed=7)
    with pytest.raises(ConfigError, match="not found"):
        run_pipeline(missing)
    assert not (tmp_path / "never").exists()


def test_stage_errors_carry_stage_name_and_keep_partials(tmp_path, monkeypatch):
    run_pipeline(config(tmp_path))  # a complete earlier run into the same directory
    cfg = config(tmp_path)

    def fail(*args):
        raise NumericalError("membership model did not converge")

    monkeypatch.setattr(pipeline, "fit_membership", fail)
    with pytest.raises(NumericalError, match="^stage weights: membership model did not"):
        run_pipeline(cfg)
    outdir = tmp_path / "run"
    # this run's completed stages, and none of the earlier run's later artifacts
    assert sorted(p.name for p in outdir.iterdir()) == ["meta_fit.json", "reconstructed.csv"]
    assert json.loads((outdir / "meta_fit.json").read_text())["stamp"]["config_hash"] == \
        cfg.config_hash()
    assert (outdir / "meta_fit.json").exists()
    # reconstructed.csv is complete: a row per reconstructed subject, the last one ended
    reconstructed = outdir / "reconstructed.csv"
    assert len(read_subjects(reconstructed)) == read_summaries(cfg.summaries).n.sum()
    assert reconstructed.read_bytes().endswith(b"\r\n")
    assert not (outdir / "weighted.csv").exists()
    assert not (outdir / "estimate.json").exists()
    assert not (outdir / "summary.txt").exists()


@pytest.mark.parametrize("spec", ["x1,x2", "x1,bogus"])  # p = 1: x2 does not exist
def test_bad_feature_spec_fails_before_any_artifact(tmp_path, spec):
    run_pipeline(config(tmp_path))  # a complete earlier run into the same directory
    with pytest.raises(ConfigError, match="^feature atom 'x2' outside|^cannot parse feature"):
        run_pipeline(config(tmp_path, features=spec))
    assert list((tmp_path / "run").iterdir()) == []


@pytest.mark.parametrize("level,label", [(0.95, "95% CI"), (0.57, "57% CI"),
                                         (0.975, "97.5% CI")])
def test_summary_labels_the_interval_with_its_level(tmp_path, level, label):
    run_pipeline(config(tmp_path, level=level))
    summary = (tmp_path / "run" / "summary.txt").read_text()
    assert f" {label} [" in summary


def test_each_clamped_arm_warns_once(tmp_path):
    cfg = config(tmp_path, tight={("trial1", 0), ("trial3", 1)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_pipeline(cfg)
    clamps = [w.message for w in caught if issubclass(w.category, ClampWarning)]
    assert [(c.trial_id, c.arm) for c in clamps] == [("trial1", 0), ("trial3", 1)]
    assert all(str(c).startswith(f"trial {c.trial_id!r} arm {c.arm}: residual variance ")
               for c in clamps)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_pipeline(config(tmp_path, out="plain"))
    assert not [w for w in caught if issubclass(w.category, ClampWarning)]


def test_dimension_mismatch_reported_at_reconstruct_stage(tmp_path):
    spath, _ = write_inputs(tmp_path)
    sub2 = tmp_path / "sub2"
    sub2.mkdir()
    _, tpath2 = write_inputs(sub2, p=2)
    cfg = PipelineConfig(summaries=spath, target=tpath2,
                         out=str(tmp_path / "run"), seed=7)
    with pytest.raises(ConfigError, match="stage reconstruct: .*dimension"):
        run_pipeline(cfg)


def test_config_mapping_and_file(tmp_path):
    spath, tpath = write_inputs(tmp_path)
    payload = {"summaries": spath, "target": tpath,
               "out": str(tmp_path / "run"), "seed": 3, "meat": "w3"}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(payload))
    cfg = PipelineConfig.from_mapping(read_config(cpath))
    assert cfg.meat == "w3" and cfg.seed == 3

    with pytest.raises(ConfigError, match="unknown pipeline config keys"):
        PipelineConfig.from_mapping({**payload, "meta": True})
    with pytest.raises(ConfigError, match="missing required"):
        PipelineConfig.from_mapping({"summaries": spath})
    with pytest.raises(ConfigError, match="not found"):
        read_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        read_config(bad)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        read_config(broken)


def test_config_validation(tmp_path):
    spath, tpath = write_inputs(tmp_path)
    base = dict(summaries=spath, target=tpath, out=str(tmp_path / "o"), seed=1)
    with pytest.raises(ConfigError, match="borrow"):
        PipelineConfig(**{**base, "borrow": "half"})
    with pytest.raises(ConfigError, match="meat"):
        PipelineConfig(**{**base, "meat": "rare"})
    with pytest.raises(ConfigError, match="level"):
        PipelineConfig(**{**base, "level": 1.5})
    with pytest.raises(ConfigError, match="seed is required"):
        PipelineConfig(**{**base, "seed": None})
    with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$"):
        PipelineConfig(**{**base, "seed": -1})
    # values of the wrong type, as a JSON config file can hold them
    for key, value in [("seed", "abc"), ("seed", 1.5), ("seed", True), ("seed", math.nan),
                       ("seed", []), ("seed", {}), ("summaries", tmp_path / "s.csv"),
                       ("out", None), ("meta_interaction", "yes"), ("outcome_covariates", 1),
                       ("outcome_interaction", None), ("features", ["x1"]), ("level", "0.9"),
                       ("level", math.nan), ("level", math.inf), ("level", [])]:
        with pytest.raises(ConfigError, match=key):
            PipelineConfig(**{**base, key: value})
    # valid configs keep their hash
    fixed = dict(summaries="s.csv", target="t.csv", out="o", seed=7)
    assert PipelineConfig(**fixed).config_hash() == "9c897b8ad8ac"
    assert PipelineConfig(**fixed, features="x1,z", level=0.9,
                          meta_interaction=True).config_hash() == "d3aa6fc65a5b"


def test_meta_fit_json_roundtrip():
    fit = MetaFit(beta=np.array([1.0, -0.5]), cov_beta=np.eye(2) * 0.25,
                  tau2=1.5, q_stat=9.0, df=4, columns=("intercept", "arm"))
    back = meta_from_dict(meta_to_dict(fit))
    assert np.array_equal(back.beta, fit.beta)
    assert np.array_equal(back.cov_beta, fit.cov_beta)
    assert (back.tau2, back.q_stat, back.df, back.columns) == \
        (fit.tau2, fit.q_stat, fit.df, fit.columns)
    with pytest.raises(ConfigError, match="malformed meta-fit"):
        meta_from_dict({"beta": [1.0]})
