"""Command-line interface.

One subcommand per pipeline stage (``meta``, ``reconstruct``,
``weights``, ``estimate``) so stages compose through files, plus the
orchestrated ``pipeline``, the Monte-Carlo ``simulate`` engine, and the
bundled ``case-study``.  The group takes only ``--log-level``; a seed
and an output path are options of the subcommand that reads them, so
they follow its name (``metaborrow reconstruct ... --seed 7 --out r.csv``).
Exit codes: 0 success, 2 configuration error (a path the system refuses
included), 3 data error, 4 numerical error.
"""

from __future__ import annotations

import errno
import logging
import os
import sys
import warnings

import click

from . import casestudy, pipeline as pl
from .data import read_subjects, read_summaries, write_subjects
from .errors import ConfigError, MetaborrowError, check_int
from .estimate import (MEAT_KINDS, _arm_weights, check_level, estimate_univariate,
                       fit_weighted_regression)
from .meta import fit_dl
from .reconstruct import BORROW_MODES, ReconstructionConfig, reconstruct_all
from .simulate import (ALLOCATIONS, COVARIATE_DISTS, MODEL_SPECS, ScenarioConfig, _write_mode,
                       run_cell, write_cell_csv)
from .weights import fit_membership, parse_feature_spec

log = logging.getLogger("metaborrow")

_LOG_LEVELS = ("debug", "info", "warning", "error")


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--log-level", type=click.Choice(_LOG_LEVELS), default="warning",
              show_default=True, help="Logging verbosity (stderr).")
def cli(log_level):
    """Borrow completed-trial aggregates into a target-trial analysis."""
    logging.basicConfig(level=getattr(logging, log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")


def _need_seed(seed):
    if seed is None:
        raise ConfigError("a seed is required: pass --seed")


@cli.command()
@click.option("--summaries", required=True, type=click.Path(exists=True),
              help="Arm-level summary CSV/JSON.")
@click.option("--interaction/--no-interaction", default=False, show_default=True,
              help="Add arm-by-covariate-mean columns to the design.")
@click.option("--level", type=float, default=0.95, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the fit as JSON.")
def meta(summaries, interaction, level, out_path):
    """Fit the random-effects meta-regression on arm-level rows."""
    check_level(level)
    s = read_summaries(summaries)
    fit = fit_dl(s, include_interaction=interaction)
    payload = pl.meta_to_dict(fit, level)
    click.echo(f"rows: {len(s)}   tau2: {fit.tau2:.4f}   Q: {fit.q_stat:.4f} "
               f"on {fit.df} df")
    for name, b, se, lo, hi in zip(payload["columns"], payload["beta"], payload["se"],
                                   payload["ci_low"], payload["ci_high"]):
        click.echo(f"  {name:<16s} {b:+10.4f}  se {se:8.4f}  "
                   f"[{lo:+.4f}, {hi:+.4f}]")
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
def reconstruct(summaries, meta_path, interaction, borrow, seed, out_path):
    """Reconstruct subject-level rows from arm summaries."""
    _need_seed(seed)
    if out_path is None:
        raise ConfigError("an output path is required: pass --out")
    s = read_summaries(summaries)
    if meta_path:
        fit = pl.read_meta(meta_path)
    else:
        fit = fit_dl(s, include_interaction=interaction)
    rcfg = ReconstructionConfig(rng_seed=seed, borrow=borrow)
    recon, clamps = reconstruct_all(s, fit, rcfg)
    for clamp in clamps:
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
def weights(subjects, target_id, features, out_path):
    """Estimate importance weights from the target-membership model."""
    d = read_subjects(subjects, target_id=target_id)
    fit = fit_membership(d, parse_feature_spec(features, d.p) if features else None)
    weighted = fit.weighted
    w = weighted.w
    click.echo(f"membership fit: converged={fit.converged} iterations={fit.iterations} "
               f"ridge={fit.ridge_lambda:g}")
    click.echo(f"weights: mean {w.mean():.6f} over {len(w)} subjects "
               f"(target rows mean {w[weighted.is_target].mean():.4f})")
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
def estimate(subjects, estimator, covariates, interaction, meat, level, out_path):
    """Estimate the treatment contrast on weighted subject rows."""
    check_level(level)
    d = read_subjects(subjects)
    # every requested contrast is computed before any is printed: a refused one prints none
    payload, lines = {}, []
    if estimator in ("regression", "both"):
        fit = fit_weighted_regression(d, include_covariates=covariates,
                                      include_interaction=interaction, meat=meat)
        payload["regression"] = pl.weighted_fit_to_dict(fit, level)
        ct = payload["regression"]["contrast_z"]
        lines.append(f"regression ({meat}): z = {ct['estimate']:+.4f}  se {ct['se']:.4f}  "
                     f"CI [{ct['ci_low']:+.4f}, {ct['ci_high']:+.4f}]  "
                     f"t {ct['t_stat']:.3f}  p {ct['p_value']:.4g}")
    if estimator in ("univariate", "both"):
        uni = estimate_univariate(d, level)
        n_eff_control, n_eff_treated = _arm_weights(d.z, d.w)
        payload["univariate"] = {**uni.to_dict(), "n_eff_treated": n_eff_treated,
                                 "n_eff_control": n_eff_control}
        lines.append(f"univariate: delta = {uni.estimate:+.4f}  se {uni.se:.4f}  "
                     f"CI [{uni.ci_low:+.4f}, {uni.ci_high:+.4f}]  p {uni.p_value:.4g}")
    for line in lines:
        click.echo(line)
    if out_path:
        pl.write_json(payload, out_path)
        click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--K", "K", type=int, default=10, show_default=True)
@click.option("--n", type=int, default=100, show_default=True)
@click.option("--dist", "covariate_dist", type=click.Choice(COVARIATE_DISTS), default="normal",
              show_default=True)
@click.option("--alloc", "allocation", type=click.Choice(ALLOCATIONS), default="one_to_one",
              show_default=True)
@click.option("--model", "model_spec", type=click.Choice(MODEL_SPECS), default="identified",
              show_default=True)
@click.option("--borrow", type=click.Choice(BORROW_MODES), default="both_arms",
              show_default=True)
@click.option("--reps", "replications", type=int, default=500, show_default=True)
@click.option("--seed", "base_seed", type=int, default=None)
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
def simulate(jobs, from_label, append, out_path, **cell):
    """Run one Monte-Carlo cell and summarize every estimator."""
    if from_label:
        cfg = ScenarioConfig.from_label(from_label)
    else:
        _need_seed(cell["base_seed"])
        cfg = ScenarioConfig(**cell)
    check_int("jobs", jobs, 1)  # before the cell line, so a refused run prints nothing
    if out_path and not os.path.isdir(os.path.dirname(out_path) or os.curdir):  # fail first
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_path)
    if out_path:
        _write_mode(out_path, append)  # a file that is not a results file fails first too
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
    if out_path:
        write_cell_csv(cell, out_path, append=append)
        click.echo(f"wrote {out_path}")


@cli.command("case-study")
@click.option("--scenario", default="all", show_default=True,
              type=click.Choice(["all", "meta", *casestudy.SCENARIOS]),
              help='"meta" prints only the deterministic meta-regression stage.')
@click.option("--seed", type=int, default=casestudy.DEFAULT_SEED, show_default=True)
@click.option("--meat", type=click.Choice(MEAT_KINDS), default="w4", show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the emitted rows as JSON.")
def case_study(scenario, seed, meat, out_path):
    """Run the bundled renal-trial example (meta stage and six scenarios)."""
    payload = {}
    if scenario in ("all", "meta"):
        s = casestudy.completed_summaries()
        fit = fit_dl(s)
        payload["meta"] = pl.meta_to_dict(fit)
        click.echo(f"meta stage: {len(s)} arm rows, tau2 {fit.tau2:.4f}")
        for name, b, se in zip(payload["meta"]["columns"], payload["meta"]["beta"],
                               payload["meta"]["se"]):
            click.echo(f"  {name:<16s} {b:+10.4f}  se {se:8.4f}")
    if scenario != "meta":
        names = list(casestudy.SCENARIOS) if scenario == "all" else [scenario]
        rows = []
        for name in names:
            res = casestudy.run_case_study(name, seed=seed, meat=meat)
            row = res.to_row()
            rows.append(row)
            if res.estimable:
                ct = res.contrast
                click.echo(f"  {name:<28s} n={res.n1}/{res.n0:<4d} "
                           f"{ct.estimate:+.2f} ({ct.se:.2f})  "
                           f"CI [{ct.ci_low:+.2f}, {ct.ci_high:+.2f}]  t {ct.stat:.2f}")
                if res.clamped_arms:
                    log.info("%s: clamped residual variance in %s", name,
                             ", ".join(res.clamped_arms))
            else:
                click.echo(f"  {name:<28s} n={res.n1}/{res.n0:<4d} NC")
        payload["scenarios"] = rows
        payload["seed"] = seed
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
@click.option("--out", type=click.Path(), default=None, help="Artifact directory.")
def pipeline(config_path, **flags):
    """Run meta -> reconstruct -> weights -> estimate, writing artifacts."""
    base = pl.read_config(config_path) if config_path else {}
    base.update({k: v for k, v in flags.items() if v is not None})
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
    except OSError as exc:  # a path the system refuses is a setting, so ConfigError's code
        click.echo(f"error: {exc}", err=True)
        sys.exit(ConfigError.exit_code)
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
