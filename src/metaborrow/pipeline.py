"""End-to-end pipeline: meta-fit, reconstruct, weight, estimate, with artifacts.

Given an arm-summary file and a target-trial IPD file, runs the four
stages in order and writes one artifact per stage into the output
directory:

    meta_fit.json          coefficients, covariance, tau2
    reconstructed.csv      reconstructed subject rows
    weighted.csv           pooled rows with importance weights attached
    estimate.json          weighted-regression fit for the z contrast
    summary.txt            human-readable recap of all stages

Every artifact carries the configuration hash and seed, and nothing else
varies between runs, so a rerun with the same config is byte-identical.
Stage failures propagate with the stage name prefixed; artifacts from
stages that already completed stay on disk to aid debugging.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, fields
from numbers import Real
from pathlib import Path

import numpy as np

from .data import make_dataset, read_subjects, read_summaries, write_subjects
from .errors import ConfigError, MetaborrowError
from .estimate import MEAT_KINDS, fit_weighted_regression
from .meta import MetaFit, build_design, fit_dl, meta_se
from .reconstruct import BORROW_MODES, ReconstructionConfig, reconstruct_all
from .weights import compute_weights, fit_membership, parse_feature_spec

log = logging.getLogger("metaborrow")


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
    to the final regression.

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
    ct = fit.contrast("z", level=level)
    return {
        "columns": list(fit.columns),
        "beta": [float(b) for b in fit.beta],
        "se": [float(np.sqrt(fit.cov_beta[i, i])) for i in range(len(fit.beta))],
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


class _Stage:
    """Context manager prefixing library errors with the failing stage."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        log.info("stage %s: start", self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, MetaborrowError):
            raise type(exc)(f"stage {self.name}: {exc}") from exc
        if exc is None:
            log.info("stage %s: done", self.name)
        return False


def run_pipeline(cfg):
    """Run all four stages; returns a result dict mirroring summary.txt.

    ``meta`` and ``estimate`` are the payloads written to meta_fit.json
    and estimate.json, without their stamp.

    Raises ConfigError before any computation if an input path is
    missing.  Artifacts are written as each stage completes.
    """
    for label, p in (("summaries", cfg.summaries), ("target", cfg.target)):
        if not Path(p).exists():
            raise ConfigError(f"{label} file not found: {p}")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stamp = {"config_hash": cfg.config_hash(), "seed": cfg.seed}

    with _Stage("meta"):
        summaries = read_summaries(cfg.summaries)
        design = build_design(summaries, include_interaction=cfg.meta_interaction)
        meta = fit_dl(design)
        meta_payload = meta_to_dict(meta, cfg.level)
        write_json({"stamp": stamp, **meta_payload}, outdir / "meta_fit.json")

    with _Stage("reconstruct"):
        target = read_subjects(cfg.target)
        rcfg = ReconstructionConfig(rng_seed=cfg.seed, borrow=cfg.borrow)
        recon = reconstruct_all(summaries, meta, rcfg)
        if target.p != summaries.p:
            raise ConfigError(
                f"target covariate dimension {target.p} differs from summaries {summaries.p}"
            )
        # the numeric text of the reconstructed rows, which end the pooled dataset
        recon_text = write_subjects(recon, outdir / "reconstructed.csv", include_weight=False,
                                    stamp=stamp)

    with _Stage("weights"):
        pooled = make_dataset((target, recon), target_id=target.target_id)
        mfit = fit_membership(
            pooled, parse_feature_spec(cfg.features, pooled.p) if cfg.features else None)
        weighted = compute_weights(pooled, mfit)
        write_subjects(weighted, outdir / "weighted.csv", stamp=stamp, known=recon_text)

    with _Stage("estimate"):
        fit = fit_weighted_regression(
            weighted, include_covariates=cfg.outcome_covariates,
            include_interaction=cfg.outcome_interaction, meat=cfg.meat)
        payload = weighted_fit_to_dict(fit, cfg.level)
        payload["membership"] = {
            "converged": mfit.converged, "iterations": mfit.iterations,
            "ridge_lambda": mfit.ridge_lambda, "deviance": mfit.deviance,
        }
        payload["tau2"] = float(meta.tau2)
        write_json({"stamp": stamp, **payload}, outdir / "estimate.json")

    summary = _render_summary(cfg, stamp, summaries, meta, weighted, payload)
    (outdir / "summary.txt").write_text(summary, encoding="utf-8")
    log.info("pipeline complete: %s", outdir)
    return {"stamp": stamp, "meta": meta_payload, "estimate": payload,
            "artifacts": [str(outdir / name) for name in
                          ("meta_fit.json", "reconstructed.csv", "weighted.csv",
                           "estimate.json", "summary.txt")]}


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
        f"{int(cfg.level * 100)}% CI [{ct['ci_low']:+.4f}, {ct['ci_high']:+.4f}]",
        f"  t = {ct['t_stat']:.3f} on {estimate['df']} df, p = {ct['p_value']:.4g}",
        "",
    ]
    return "\n".join(lines)
