"""The borrowing chain, and the end-to-end pipeline that writes its artifacts.

:func:`borrow` wires the stages after the meta fit (reconstruct,
weights, estimate) for every caller: the simulation harness, the case
study and :func:`run_pipeline`, which reads an arm-summary file and a
target-trial IPD file, fits the meta stage, runs :func:`borrow`, and
writes one artifact per stage into the output directory:

    meta_fit.json          coefficients, covariance, tau2
    reconstructed.csv      reconstructed subject rows
    weighted.csv           pooled rows with importance weights attached
    estimate.json          weighted-regression fit for the z contrast
    summary.txt            human-readable recap of all stages

Every artifact carries the configuration hash and seed, and nothing else
varies between runs, so a rerun with the same config is byte-identical.
A run first removes these five names from the output directory, so a
failed rerun never leaves the previous run's later artifacts beside its
own.  Stage failures propagate with the stage name prefixed; artifacts
from stages that already completed stay on disk to aid debugging.
"""

from __future__ import annotations

import hashlib
import json
import logging
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from numbers import Real
from pathlib import Path

import numpy as np

from .data import Dataset, make_dataset, read_subjects, read_summaries, write_subjects
from .errors import ConfigError, MetaborrowError
from .estimate import MEAT_KINDS, WeightedFit, fit_weighted_regression
from .meta import MetaFit, build_design, fit_dl, meta_se
from .reconstruct import BORROW_MODES, ReconstructionConfig, clamped_arms, reconstruct_all
from .weights import LogisticFit, compute_weights, fit_membership, parse_feature_spec

log = logging.getLogger("metaborrow")

ARTIFACTS = ("meta_fit.json", "reconstructed.csv", "weighted.csv", "estimate.json",
             "summary.txt")


def check_level(level):
    """Raise ConfigError (exit 2) unless ``level`` is a real number in (0, 1); NaN is not."""
    if not (isinstance(level, Real) and 0 < level < 1):
        raise ConfigError(f"level must be a number in (0, 1), got {level!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative pipeline run: inputs, modelling switches, seed, outputs.

    ``features`` is a feature-spec string (see
    :func:`metaborrow.weights.parse_feature_spec`) or None for the
    default quadratic map.  ``meta_interaction`` adds arm-by-mean
    columns to the meta design; ``outcome_interaction`` adds z*x columns
    to the final regression and needs ``outcome_covariates``.

    Every field is checked on construction, its type included, so a
    config file's wrong-typed value is a ConfigError (exit 2): paths are
    strings, ``seed`` a nonnegative int (not a bool), the switches bools, and
    ``level`` a real number in (0, 1).
    """

    summaries: str
    target: str
    out: str
    seed: int
    borrow: str = "both_arms"
    features: str = None
    meat: str = "w4"
    meta_interaction: bool = False
    outcome_covariates: bool = True
    outcome_interaction: bool = False
    level: float = 0.95

    def __post_init__(self):
        for name, kind in (("summaries", str), ("target", str), ("out", str),
                           ("meta_interaction", bool), ("outcome_covariates", bool),
                           ("outcome_interaction", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if self.seed is None:
            raise ConfigError("seed is required (reconstruction is stochastic)")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.borrow not in BORROW_MODES:
            raise ConfigError(f"borrow must be one of {BORROW_MODES}, got {self.borrow!r}")
        if not (self.features is None or isinstance(self.features, str)):
            raise ConfigError(f"features must be a feature spec string, got {self.features!r}")
        if self.meat not in MEAT_KINDS:
            raise ConfigError(f"meat must be one of {MEAT_KINDS}, got {self.meat!r}")
        check_level(self.level)

    @classmethod
    def from_mapping(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown pipeline config keys: {sorted(unknown)}")
        missing = {"summaries", "target", "out", "seed"} - set(d)
        if missing:
            raise ConfigError(f"pipeline config missing required keys: {sorted(missing)}")
        return cls(**d)

    def config_hash(self):
        """Hash of the analysis-relevant fields (output location excluded)."""
        payload = asdict(self)
        payload.pop("out")
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:12]


def _read_json(path, kind):
    """The JSON value in ``path``; ConfigError for a missing file or invalid JSON."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{kind} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def read_config(path):
    """The JSON object in a pipeline config file; ConfigError when it is not one."""
    payload = _read_json(path, "config")
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return payload


def read_meta(path):
    """Rebuild a MetaFit from a meta-fit JSON file; ConfigError when malformed."""
    return meta_from_dict(_read_json(path, "meta-fit"))


def meta_to_dict(fit, level=0.95):
    se, lo, hi = meta_se(fit, level)
    return {
        "columns": list(fit.columns),
        "beta": [float(b) for b in fit.beta],
        "se": [float(s) for s in se],
        "ci_low": [float(v) for v in lo],
        "ci_high": [float(v) for v in hi],
        "cov_beta": [[float(v) for v in row] for row in fit.cov_beta],
        "tau2": float(fit.tau2),
        "q_stat": float(fit.q_stat),
        "df": int(fit.df),
    }


def meta_from_dict(d):
    """Rebuild a MetaFit from its JSON form (for composing CLI stages)."""
    try:
        fit = MetaFit(
            beta=np.array(d["beta"], dtype=float),
            cov_beta=np.array(d["cov_beta"], dtype=float),
            tau2=float(d["tau2"]),
            q_stat=float(d["q_stat"]),
            df=int(d["df"]),
            columns=tuple(d["columns"]),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed meta-fit JSON: {exc}") from exc
    q = len(fit.columns)
    if (fit.beta.shape != (q,) or fit.cov_beta.shape != (q, q)
            or not all(isinstance(c, str) for c in fit.columns)):
        raise ConfigError(f"malformed meta-fit JSON: beta of shape {fit.beta.shape} and "
                          f"cov_beta of shape {fit.cov_beta.shape} for columns {fit.columns}")
    if not np.isfinite([*fit.beta, *fit.cov_beta.ravel(), fit.tau2, fit.q_stat]).all():
        raise ConfigError("malformed meta-fit JSON: beta, cov_beta, tau2 and q_stat "
                          "must be finite")
    return fit


def weighted_fit_to_dict(fit, level=0.95):
    ct = fit.z_contrast(level)
    return {
        "columns": list(fit.columns),
        "beta": [float(b) for b in fit.beta],
        "se": [fit.coef(name)[1] for name in fit.columns],
        "n": fit.n,
        "df": fit.df,
        "meat": fit.meat,
        "n_eff_treated": fit.n_eff_treated,
        "n_eff_control": fit.n_eff_control,
        "level": level,
        "contrast_z": ct,
    }


def write_json(payload, path):
    """Write ``payload`` as JSON: keys sorted, indented by 2, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _stage(name):
    """Prefix a library error raised inside with the stage name."""
    try:
        yield
    except MetaborrowError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


@dataclass(frozen=True)
class Borrowed:
    """What :func:`borrow` made, a stage not yet run leaving its fields None; ``clamps``
    holds an unraised :class:`metaborrow.ClampWarning` per arm drawn at its floor."""

    reconstructed: Dataset
    clamps: tuple
    membership: LogisticFit = None
    weighted: Dataset = None
    fit: WeightedFit = None


def borrow(summaries, meta, target, rcfg, features=None, on_stage=None, **outcome):
    """Borrow the arms of ``summaries`` into the ``target`` Dataset; returns Borrowed.

    Stage ``reconstruct`` draws the borrowed arms under ``rcfg`` from
    the fit ``meta``; ``weights`` pools them behind the target rows and
    weights every row by a membership model on the FeatureMap
    ``features`` (default: each covariate and its square); ``estimate``
    fits the weighted regression, passing ``outcome`` on to
    :func:`metaborrow.estimate.fit_weighted_regression`.  Each stage
    ends by calling ``on_stage(name, borrowed)`` when it is given, and a
    library error raised in a stage, the hook included, names the stage.
    """
    report = on_stage or (lambda stage, done: None)
    with _stage("reconstruct"):
        if target.p != summaries.p:
            raise ConfigError(
                f"target covariate dimension {target.p} differs from summaries {summaries.p}")
        done = Borrowed(reconstruct_all(summaries, meta, rcfg),
                        clamped_arms(summaries, meta, rcfg))
        report("reconstruct", done)
    with _stage("weights"):
        pooled = make_dataset((target, done.reconstructed), target_id=target.target_id)
        mfit = fit_membership(pooled, features)
        done = replace(done, membership=mfit, weighted=compute_weights(mfit))
        report("weights", done)
    with _stage("estimate"):
        done = replace(done, fit=fit_weighted_regression(done.weighted, **outcome))
        report("estimate", done)
    return done


def run_pipeline(cfg):
    """Run all four stages; returns a result dict mirroring summary.txt.

    ``meta`` and ``estimate`` are the payloads written to meta_fit.json
    and estimate.json, without their stamp.

    Raises ConfigError before any computation if an input path is
    missing, and before any artifact if the feature spec does not parse
    against the summaries' covariates.  Artifacts are written as each
    stage completes, and each clamped arm is warned once, as a
    :class:`metaborrow.ClampWarning`.
    """
    for label, p in (("summaries", cfg.summaries), ("target", cfg.target)):
        if not Path(p).exists():
            raise ConfigError(f"{label} file not found: {p}")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in ARTIFACTS:
        (outdir / name).unlink(missing_ok=True)
    stamp = {"config_hash": cfg.config_hash(), "seed": cfg.seed}

    with _stage("meta"):
        summaries = read_summaries(cfg.summaries)
    # the spec is a setting, not a stage's product: a bad one names no stage
    features = parse_feature_spec(cfg.features, summaries.p) if cfg.features else None
    with _stage("meta"):
        meta = fit_dl(build_design(summaries, include_interaction=cfg.meta_interaction))
        meta_payload = meta_to_dict(meta, cfg.level)
        write_json({"stamp": stamp, **meta_payload}, outdir / "meta_fit.json")
    log.info("stage meta: done")
    with _stage("reconstruct"):
        target = read_subjects(cfg.target)
        rcfg = ReconstructionConfig(rng_seed=cfg.seed, borrow=cfg.borrow)

    recon_text = payload = None

    def write_artifact(stage, done):
        nonlocal recon_text, payload
        if stage == "reconstruct":
            for clamp in done.clamps:
                warnings.warn(clamp)
            # the numeric text of the reconstructed rows, which end the pooled dataset
            recon_text = write_subjects(done.reconstructed, outdir / "reconstructed.csv",
                                        include_weight=False, stamp=stamp)
        elif stage == "weights":
            write_subjects(done.weighted, outdir / "weighted.csv", stamp=stamp, known=recon_text)
        else:
            m = done.membership
            payload = {**weighted_fit_to_dict(done.fit, cfg.level), "tau2": float(meta.tau2),
                       "membership": {"converged": m.converged, "iterations": m.iterations,
                                      "ridge_lambda": m.ridge_lambda, "deviance": m.deviance}}
            write_json({"stamp": stamp, **payload}, outdir / "estimate.json")
        log.info("stage %s: done", stage)

    done = borrow(summaries, meta, target, rcfg, features=features,
                  on_stage=write_artifact, include_covariates=cfg.outcome_covariates,
                  include_interaction=cfg.outcome_interaction, meat=cfg.meat)
    summary = _render_summary(cfg, stamp, summaries, meta, done.weighted, payload)
    (outdir / "summary.txt").write_text(summary, encoding="utf-8")
    log.info("pipeline complete: %s", outdir)
    return {"stamp": stamp, "meta": meta_payload, "estimate": payload,
            "artifacts": [str(outdir / name) for name in ARTIFACTS]}


def _render_summary(cfg, stamp, summaries, meta, weighted, estimate):
    """summary.txt's text; ``estimate`` is the payload written to estimate.json."""
    ct = estimate["contrast_z"]
    n_rec = len(weighted) - weighted.n_target()
    w = weighted.w
    lines = [
        "treatment-effect estimate via aggregate-data borrowing",
        f"config {stamp['config_hash']}  seed {stamp['seed']}",
        "",
        f"completed trials: {len(summaries.trial_ids)} ({len(summaries)} arms)",
        f"meta coefficients ({', '.join(meta.columns)}):",
        "  " + "  ".join(f"{b:+.4f}" for b in meta.beta),
        f"between-trial variance tau2 = {meta.tau2:.4f}",
        "",
        f"pooled subjects: {len(weighted)} ({weighted.n_target()} target, {n_rec} reconstructed)",
        f"weights: mean {np.mean(w):.6f}, max {np.max(w):.4f}",
        "",
        f"weighted regression ({', '.join(estimate['columns'])}), meat {estimate['meat']}:",
        f"  z contrast: {ct['estimate']:+.4f}  se {ct['se']:.4f}  "
        f"{cfg.level * 100:g}% CI [{ct['ci_low']:+.4f}, {ct['ci_high']:+.4f}]",
        f"  t = {ct['t_stat']:.3f} on {estimate['df']} df, p = {ct['p_value']:.4g}",
        "",
    ]
    return "\n".join(lines)
