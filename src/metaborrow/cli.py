"""Command-line interface.

One subcommand per pipeline stage (``meta``, ``reconstruct``,
``weights``, ``estimate``) so stages compose through files, plus the
orchestrated ``pipeline``, the Monte-Carlo ``simulate`` engine, and the
bundled ``case-study``.  Exit codes: 0 success, 2 configuration error,
3 data error, 4 numerical error.
"""

from __future__ import annotations

import logging
import sys
import warnings

import click

from . import casestudy, pipeline as pl
from .data import read_subjects, read_summaries, write_subjects
from .errors import ConfigError, MetaborrowError
from .estimate import (MEAT_KINDS, estimate_univariate, fit_weighted_regression)
from .meta import build_design, fit_dl
from .reconstruct import BORROW_MODES, ReconstructionConfig, clamped_arms, reconstruct_all
from .simulate import (ALLOCATIONS, COVARIATE_DISTS, MODEL_SPECS,
                       EST_POOLED, ScenarioConfig, run_cell, write_cell_csv)
from .weights import compute_weights, fit_membership, parse_feature_spec

log = logging.getLogger("metaborrow")

_LOG_LEVELS = ("debug", "info", "warning", "error")


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--seed", type=int, default=None,
              help="Default seed for any subcommand that does not set one.")
@click.option("--out", type=click.Path(), default=None,
              help="Default output path for any subcommand that does not set one.")
@click.option("--log-level", type=click.Choice(_LOG_LEVELS), default="warning",
              show_default=True, help="Logging verbosity (stderr).")
@click.pass_context
def cli(ctx, seed, out, log_level):
    """Borrow completed-trial aggregates into a target-trial analysis."""
    logging.basicConfig(level=getattr(logging, log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")
    ctx.obj = {"seed": seed, "out": out}


def _fallback(ctx, value, key):
    return value if value is not None else ctx.obj.get(key)


def _need_seed(ctx, value):
    seed = _fallback(ctx, value, "seed")
    if seed is None:
        raise ConfigError("a seed is required: pass --seed")
    return int(seed)


@cli.command()
@click.option("--summaries", required=True, type=click.Path(exists=True),
              help="Arm-level summary CSV/JSON.")
@click.option("--interaction/--no-interaction", default=False, show_default=True,
              help="Add arm-by-covariate-mean columns to the design.")
@click.option("--level", type=float, default=0.95, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the fit as JSON.")
@click.pass_context
def meta(ctx, summaries, interaction, level, out_path):
    """Fit the random-effects meta-regression on arm-level rows."""
    pl.check_level(level)
    design = build_design(read_summaries(summaries), include_interaction=interaction)
    fit = fit_dl(design)
    payload = pl.meta_to_dict(fit, level)
    click.echo(f"rows: {len(design.y)}   tau2: {fit.tau2:.4f}   Q: {fit.q_stat:.4f} "
               f"on {fit.df} df")
    for name, b, s, lo, hi in zip(payload["columns"], payload["beta"], payload["se"],
                                  payload["ci_low"], payload["ci_high"]):
        click.echo(f"  {name:<16s} {b:+10.4f}  se {s:8.4f}  "
                   f"[{lo:+.4f}, {hi:+.4f}]")
    out_path = _fallback(ctx, out_path, "out")
    if out_path:
        pl.write_json(payload, out_path)
        click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--summaries", required=True, type=click.Path(exists=True))
@click.option("--meta-fit", "meta_path", type=click.Path(exists=True), default=None,
              help="Meta fit JSON from the meta subcommand; refit when omitted.")
@click.option("--interaction/--no-interaction", default=False, show_default=True,
              help="Design used when refitting (ignored with --meta-fit).")
@click.option("--borrow", type=click.Choice(BORROW_MODES), default="both_arms",
              show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Subject CSV/JSON for the reconstructed rows.")
@click.pass_context
def reconstruct(ctx, summaries, meta_path, interaction, borrow, seed, out_path):
    """Reconstruct subject-level rows from arm summaries."""
    seed = _need_seed(ctx, seed)
    out_path = _fallback(ctx, out_path, "out")
    if out_path is None:
        raise ConfigError("an output path is required: pass --out")
    s = read_summaries(summaries)
    if meta_path:
        fit = pl.read_meta(meta_path)
    else:
        fit = fit_dl(build_design(s, include_interaction=interaction))
    rcfg = ReconstructionConfig(rng_seed=seed, borrow=borrow)
    recon = reconstruct_all(s, fit, rcfg)
    for clamp in clamped_arms(s, fit, rcfg):
        warnings.warn(clamp)
    write_subjects(recon, out_path, include_weight=False)
    click.echo(f"reconstructed {len(recon)} subjects from "
               f"{len(s.trial_ids)} trials -> {out_path}")


@cli.command()
@click.option("--subjects", required=True, type=click.Path(exists=True),
              help="Pooled subject rows with a source column (or use --target-id).")
@click.option("--target-id", default=None,
              help="Trial id marking target rows when no source column exists.")
@click.option("--features", default=None,
              help='Feature spec like "x1,x1^2"; default: all covariates + squares.')
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Weighted subject CSV/JSON.")
@click.pass_context
def weights(ctx, subjects, target_id, features, out_path):
    """Estimate importance weights from the target-membership model."""
    d = read_subjects(subjects, target_id=target_id)
    fit = fit_membership(d, parse_feature_spec(features, d.p) if features else None)
    weighted = compute_weights(d, fit)
    w = weighted.w
    click.echo(f"membership fit: converged={fit.converged} iterations={fit.iterations} "
               f"ridge={fit.ridge_lambda:g}")
    click.echo(f"weights: mean {w.mean():.6f} over {len(w)} subjects "
               f"(target rows mean {w[weighted.is_target].mean():.4f})")
    out_path = _fallback(ctx, out_path, "out")
    if out_path:
        write_subjects(weighted, out_path)
        click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--subjects", required=True, type=click.Path(exists=True),
              help="Weighted subject rows (weight column used as-is).")
@click.option("--estimator", type=click.Choice(["regression", "univariate", "both"]),
              default="regression", show_default=True)
@click.option("--covariates/--no-covariates", default=True, show_default=True)
@click.option("--interaction/--no-interaction", default=False, show_default=True)
@click.option("--meat", type=click.Choice(MEAT_KINDS), default="w4", show_default=True)
@click.option("--level", type=float, default=0.95, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the fit(s) as JSON.")
@click.pass_context
def estimate(ctx, subjects, estimator, covariates, interaction, meat, level, out_path):
    """Estimate the treatment contrast on weighted subject rows."""
    pl.check_level(level)
    d = read_subjects(subjects)
    payload = {}
    if estimator in ("regression", "both"):
        fit = fit_weighted_regression(d, include_covariates=covariates,
                                      include_interaction=interaction, meat=meat)
        payload["regression"] = pl.weighted_fit_to_dict(fit, level)
        ct = payload["regression"]["contrast_z"]
        click.echo(f"regression ({meat}): z = {ct['estimate']:+.4f}  se {ct['se']:.4f}  "
                   f"CI [{ct['ci_low']:+.4f}, {ct['ci_high']:+.4f}]  "
                   f"t {ct['t_stat']:.3f}  p {ct['p_value']:.4g}")
    if estimator in ("univariate", "both"):
        uni = estimate_univariate(d, level)
        payload["univariate"] = {
            "estimate": uni.delta, "se": uni.se, "ci_low": uni.ci_low,
            "ci_high": uni.ci_high, "z_stat": uni.z_stat, "p_value": uni.p_value,
            "n_eff_treated": uni.n_eff_treated, "n_eff_control": uni.n_eff_control,
        }
        click.echo(f"univariate: delta = {uni.delta:+.4f}  se {uni.se:.4f}  "
                   f"CI [{uni.ci_low:+.4f}, {uni.ci_high:+.4f}]  p {uni.p_value:.4g}")
    out_path = _fallback(ctx, out_path, "out")
    if out_path:
        pl.write_json(payload, out_path)
        click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--K", "K", type=int, default=10, show_default=True)
@click.option("--n", type=int, default=100, show_default=True)
@click.option("--dist", type=click.Choice(COVARIATE_DISTS), default="normal",
              show_default=True)
@click.option("--alloc", type=click.Choice(ALLOCATIONS), default="one_to_one",
              show_default=True)
@click.option("--model", type=click.Choice(MODEL_SPECS), default="identified",
              show_default=True)
@click.option("--borrow", type=click.Choice(BORROW_MODES), default="both_arms",
              show_default=True)
@click.option("--reps", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--meat", type=click.Choice(MEAT_KINDS), default="w3", show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Process-pool width; results are identical at any value.")
@click.option("--from-label", default=None,
              help="Run the cell encoded by a results-CSV scenario label "
                   "(overrides the other cell flags).")
@click.option("--append/--no-append", default=False, show_default=True,
              help="Append to an existing results CSV instead of overwriting.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Long-format results CSV.")
@click.pass_context
def simulate(ctx, K, n, dist, alloc, model, borrow, reps, seed, meat, jobs,
             from_label, append, out_path):
    """Run one Monte-Carlo cell and summarize every estimator."""
    if from_label:
        cfg = ScenarioConfig.from_label(from_label)
    else:
        cfg = ScenarioConfig(K=K, n=n, covariate_dist=dist, allocation=alloc,
                             model_spec=model, borrow=borrow, replications=reps,
                             base_seed=_need_seed(ctx, seed), meat=meat)
    click.echo(f"cell {cfg.label}")
    cell = run_cell(cfg, jobs=jobs,
                    progress=lambda i: log.info("replications done: %d", i))
    if not cell.valid:
        raise ConfigError(f"all {cfg.replications} replications failed "
                          f"({cell.failures} failures); cell invalid")
    for name, s in cell.summaries.items():
        click.echo(f"  {name:<20s} n={s.n_used:<5d} mean {s.mean:+.4f}  "
                   f"mse {s.mse:.5f}  coverage {s.coverage:.3f}  type1 {s.type1:.3f}")
    if cell.failures:
        click.echo(f"  failures: {cell.failures}")
    out_path = _fallback(ctx, out_path, "out")
    if out_path:
        write_cell_csv(cell, out_path, append=append)
        click.echo(f"wrote {out_path}")


@cli.command("case-study")
@click.option("--scenario", default="all", show_default=True,
              type=click.Choice(["all", "meta", *casestudy.SCENARIOS]),
              help='"meta" prints only the deterministic meta-regression stage.')
@click.option("--seed", type=int, default=None,
              help=f"Default {casestudy.DEFAULT_SEED}.")
@click.option("--meat", type=click.Choice(MEAT_KINDS), default="w4", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the emitted rows as JSON.")
@click.pass_context
def case_study(ctx, scenario, seed, meat, out_path):
    """Run the bundled renal-trial example (meta stage and six scenarios)."""
    seed = _fallback(ctx, seed, "seed")
    seed = casestudy.DEFAULT_SEED if seed is None else int(seed)
    payload = {}
    if scenario in ("all", "meta"):
        fit, design = casestudy.fit_meta()
        payload["meta"] = pl.meta_to_dict(fit)
        click.echo(f"meta stage: {len(design.y)} arm rows, tau2 {fit.tau2:.4f}")
        for name, b, s in zip(payload["meta"]["columns"], payload["meta"]["beta"],
                              payload["meta"]["se"]):
            click.echo(f"  {name:<16s} {b:+10.4f}  se {s:8.4f}")
    if scenario != "meta":
        names = list(casestudy.SCENARIOS) if scenario == "all" else [scenario]
        rows = []
        for name in names:
            res = casestudy.run_case_study(name, seed=seed, meat=meat)
            row = res.to_row()
            rows.append(row)
            if res.estimable:
                click.echo(f"  {name:<28s} n={res.n1}/{res.n0:<4d} "
                           f"{res.estimate:+.2f} ({res.se:.2f})  "
                           f"CI [{res.ci_low:+.2f}, {res.ci_high:+.2f}]  t {res.t_stat:.2f}")
                if res.clamped_arms:
                    log.info("%s: clamped residual variance in %s", name,
                             ", ".join(res.clamped_arms))
            else:
                click.echo(f"  {name:<28s} n={res.n1}/{res.n0:<4d} NC")
        payload["scenarios"] = rows
        payload["seed"] = seed
    out_path = _fallback(ctx, out_path, "out")
    if out_path:
        pl.write_json(payload, out_path)
        click.echo(f"wrote {out_path}")


@cli.command("pipeline")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config mirroring these flags.")
@click.option("--summaries", type=click.Path(), default=None)
@click.option("--target", type=click.Path(), default=None,
              help="Target-trial subject CSV/JSON.")
@click.option("--borrow", type=click.Choice(BORROW_MODES), default=None)
@click.option("--features", default=None)
@click.option("--meat", type=click.Choice(MEAT_KINDS), default=None)
@click.option("--meta-interaction/--no-meta-interaction", default=None)
@click.option("--outcome-interaction/--no-outcome-interaction", default=None)
@click.option("--level", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Artifact directory.")
@click.pass_context
def pipeline(ctx, config_path, summaries, target, borrow, features, meat,
             meta_interaction, outcome_interaction, level, seed, out_path):
    """Run meta -> reconstruct -> weights -> estimate, writing artifacts."""
    base = pl.read_config(config_path) if config_path else {}
    overrides = {
        "summaries": summaries, "target": target, "borrow": borrow,
        "features": features, "meat": meat, "meta_interaction": meta_interaction,
        "outcome_interaction": outcome_interaction, "level": level,
        "seed": _fallback(ctx, seed, "seed"),
        "out": _fallback(ctx, out_path, "out"),
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    cfg = pl.PipelineConfig.from_mapping(base)
    result = pl.run_pipeline(cfg)
    ct = result["estimate"]["contrast_z"]
    click.echo(f"z contrast: {ct['estimate']:+.4f}  se {ct['se']:.4f}  "
               f"CI [{ct['ci_low']:+.4f}, {ct['ci_high']:+.4f}]")
    for a in result["artifacts"]:
        click.echo(f"  artifact: {a}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except MetaborrowError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        click.echo("aborted", err=True)
        sys.exit(130)
    return 0


if __name__ == "__main__":
    main()
