"""Monte-Carlo harness for the full borrowing pipeline.

Each replication generates K completed trials plus one target trial from
a linear outcome model with a treatment-by-covariate interaction,
exposes only arm-level summaries of the completed trials, and runs the
borrowing chain (meta-regression -> reconstruction -> importance
weights -> weighted regression) next to an unweighted target-only
comparator.  Replications are independently seeded, so a cell
aggregates to the same result at any parallelism level.

Truth used everywhere: Y = 1 + 2 z - x + 0.5 z x + Normal(0, 1), so the
target-population average treatment effect is exactly 2.

A replication generates its K completed trials in one pass
(:func:`generate_meta_trials`) into one
:class:`metaborrow.data.Summaries` table of two rows per trial (treated
arm first), and runs the meta fit and :func:`metaborrow.pipeline.borrow`
on it.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from itertools import accumulate, repeat
from pathlib import Path

import numpy as np
from numpy.random import SeedSequence, default_rng

from .data import Summaries, dataset_from_arms
from .errors import ConfigError, DataError, MetaborrowError, _check_choice, check_int
from .estimate import MEAT_KINDS, Contrast, estimate_univariate, fit_weighted_regression
from .meta import fit_dl
from .pipeline import borrow
from .reconstruct import BORROW_MODES, ReconstructionConfig

TRUE_DELTA = 2.0
TRUE_BETA0 = 1.0
TRUE_BETA1 = -1.0
TRUE_BETA2 = 0.5

COVARIATE_DISTS = ("normal", "chisq2")
ALLOCATIONS = ("one_to_one", "three_to_one", "single_arm")
# the outcome-design options of each model_spec
OUTCOME_MODELS = {"identified": {"include_covariates": True, "include_interaction": True},
                  "misidentified": {"include_covariates": False, "include_interaction": False}}
MODEL_SPECS = tuple(OUTCOME_MODELS)

# Estimator labels used in results and CSV output.
EST_POOLED = "pooled_regression"      # weighted regression on target + reconstructed
EST_POOLED_UNI = "pooled_univariate"  # weighted difference of arm means
EST_TARGET = "target_regression"      # unweighted regression on the target alone


# A label's parts, in order: (field, prefix); a prefixed part is an int.  Listed, not read
# from fields(), so that a field added later leaves every existing label as it was.
_LABEL = (("K", "K"), ("n", "n"), ("covariate_dist", ""), ("allocation", ""),
          ("model_spec", ""), ("borrow", ""), ("replications", "reps"), ("base_seed", "seed"),
          ("meat", ""))


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell.

    ``model_spec`` governs only the final outcome regressions (both the
    pooled and the target-only fit): ``identified`` fits
    (1, z, x, z*x), ``misidentified`` fits (1, z).  The meta-regression
    and reconstruction always use the full covariate model.  ``K`` is at
    least 3: that meta design, (1, arm, x1, arm:x1), needs at least 5 arm
    rows, and two trials have 4.
    """

    K: int = 10
    n: int = 100
    covariate_dist: str = "normal"
    allocation: str = "one_to_one"
    model_spec: str = "identified"
    borrow: str = "both_arms"
    replications: int = 500
    base_seed: int = 7
    meat: str = "w3"

    def __post_init__(self):
        for name, least in (("K", 3), ("n", 4), ("replications", 1), ("base_seed", 0)):
            check_int(name, getattr(self, name), least)
        for name, choices in (("covariate_dist", COVARIATE_DISTS), ("allocation", ALLOCATIONS),
                              ("model_spec", MODEL_SPECS), ("borrow", BORROW_MODES),
                              ("meat", MEAT_KINDS)):
            _check_choice(name, getattr(self, name), choices)

    @property
    def delta0_grid(self):
        """Null values delta0 = 2.0, 2.1, ..., 4.0 for the power curve."""
        return tuple(round(TRUE_DELTA + 0.1 * i, 1) for i in range(21))

    @property
    def label(self):
        return "-".join(f"{prefix}{getattr(self, name)}" for name, prefix in _LABEL)

    @classmethod
    def from_label(cls, label):
        """Invert :attr:`label`; lets a CSV row identify its cell exactly."""
        parts = label.split("-")
        if len(parts) != len(_LABEL):
            raise ConfigError(f"cannot parse scenario label {label!r}")
        try:
            return cls(**{name: int(part.removeprefix(prefix)) if prefix else part
                          for (name, prefix), part in zip(_LABEL, parts)})
        except ValueError as exc:
            raise ConfigError(f"cannot parse scenario label {label!r}: {exc}") from exc


def _draw_rows(rng, mu, dist, x, e):
    """Draw one trial's covariates into ``x``, then its outcome noise into ``e``.

    ``mu + z`` is what ``rng.normal(mu, 1.0)`` computes, and a
    ``chisquare(2)`` draw is ``2 E`` for a standard exponential E, so
    every value is the one those calls draw.  A ``dist`` outside
    COVARIATE_DISTS is a ConfigError.
    """
    _check_choice("dist", dist, COVARIATE_DISTS)
    if dist == "normal":
        rng.standard_normal(out=x)
        x += mu
    else:
        # chi-square(2)/2 = E has mean 1 and variance 1; shift to mean mu
        rng.standard_exponential(out=x)
        x += mu
        x -= 1.0
    rng.standard_normal(out=e)


def _outcome(z, x, e, out=None):
    """Y = 1 + 2 z - x + 0.5 z x + e, row by row."""
    return np.add(TRUE_BETA0 + TRUE_DELTA * z + TRUE_BETA1 * x + TRUE_BETA2 * z * x, e, out=out)


def covariate_location(k, K):
    """Completed-trial covariate mean: 4(k-1)/(K-1) - 1, or 0 when K = 1."""
    return 4.0 * (k - 1) / (K - 1) - 1.0 if K > 1 else 0.0


def generate_meta_trials(K, n, dist, rng):
    """Generate completed trials 1..K in one pass; returns (z, x, y, Summaries).

    Trial k enrolls floor(Uniform(n, 4n)) subjects split evenly; only the
    Summaries table (treated arm first) reaches the downstream pipeline,
    the subject-level draws exist for diagnostics.  Each trial draws, in
    order, its size as ``n + 3n u``, its covariates and its noise, into
    shared buffers; ``y`` is then computed over all rows at once, and the
    2K arms' means and variances of ``y`` and ``x`` are two segmented
    sums over the stacked ``(y, x)`` rows, which become the table's
    columns.  Those sums add in sequence where ``ndarray.mean`` adds
    pairwise, so a summary can differ from ``np.mean``/``np.var(ddof=1)``
    in the last bits.
    """
    ks = range(1, K + 1)
    yx = np.empty((2, 4 * n * K))  # a trial has at most 4n subjects
    e = np.empty(yx.shape[1])
    sizes = []
    lo = 0
    for k in ks:
        nk = int(n + 3 * n * rng.random())
        _draw_rows(rng, covariate_location(k, K), dist, yx[1, lo:lo + nk], e[lo:lo + nk])
        sizes += (nk // 2, nk - nk // 2)  # treated rows come first
        lo += nk
    yx = yx[:, :lo]
    z = np.repeat(np.tile([1.0, 0.0], K), sizes)
    y, x = yx
    _outcome(z, x, e[:lo], out=y)

    starts = list(accumulate(sizes[:-1], initial=0))
    counts = np.array(sizes)
    mean = np.add.reduceat(yx, starts, axis=1) / counts
    d = yx - np.repeat(mean, sizes, axis=1)
    var = np.add.reduceat(np.multiply(d, d, out=d), starts, axis=1) / (counts - 1)
    row = np.arange(len(sizes))  # arm rows: trial i's treated arm is row 2i, its control 2i + 1
    summaries = Summaries(tuple(f"sim{k:02d}" for k in ks), row // 2, 1 - row % 2, counts,
                          mean[0], var[0], mean[1:].T, var[1:].T,
                          np.zeros((len(sizes), 1), dtype=bool))
    return z, x, y, summaries


def generate_target_trial(n, allocation, dist, rng):
    """Generate the target trial, id ``target``, as a Dataset.

    Covariate mean 0; arm split per allocation: (n/2, n/2), (3n/4, n/4),
    or (n, 0) treated/control.
    """
    _check_choice("allocation", allocation, ALLOCATIONS)
    n1 = {"one_to_one": n // 2, "three_to_one": 3 * n // 4, "single_arm": n}[allocation]
    n0 = n - n1
    x, e = np.empty((n, 1)), np.empty(n)
    _draw_rows(rng, 0.0, dist, x[:, 0], e)
    y = _outcome(np.repeat([1.0, 0.0], (n1, n0)), x[:, 0], e)  # treated rows first
    return dataset_from_arms(("target",), [0, 0], [1, 0], [n1, n0], x, y, is_target=True)


@dataclass(frozen=True)
class ReplicationResult:
    """One replication: each estimator's Contrast, or the error that failed it."""

    rep: int
    ok: bool
    error: str = ""
    pooled: Contrast = None
    pooled_univariate: Contrast = None
    target: Contrast = None  # None when the comparator is unestimable
    clamped_arms: int = 0

    def record(self, estimator):
        return {EST_POOLED: self.pooled, EST_POOLED_UNI: self.pooled_univariate,
                EST_TARGET: self.target}[estimator]


def run_replication(cfg, r):
    """Run one seeded replication; estimation failures are captured.

    The data stream is seeded by (base_seed, r, 0) and the
    reconstruction substreams by a child of (base_seed, r, 1), so a
    replication depends only on (cfg, r).  A failure of the borrowing
    chain, or a pooled or univariate standard error that is not finite,
    fails the replication; a target-only comparator that cannot be
    fitted, or whose standard error is not finite, only leaves ``target``
    None.
    """
    rng = default_rng(SeedSequence((cfg.base_seed, r, 0)))
    trials = generate_meta_trials(cfg.K, cfg.n, cfg.covariate_dist, rng)[-1]
    target = generate_target_trial(cfg.n, cfg.allocation, cfg.covariate_dist, rng)
    model = OUTCOME_MODELS[cfg.model_spec]

    try:
        meta = fit_dl(trials, include_interaction=True)
        recon_seed = int(SeedSequence((cfg.base_seed, r, 1)).generate_state(1)[0])
        rcfg = ReconstructionConfig(rng_seed=recon_seed, borrow=cfg.borrow)
        done = borrow(trials, meta, target, rcfg, meat=cfg.meat, **model)
        pooled = done.fit.z_contrast()
        uni = estimate_univariate(done.membership.weighted)
    except (MetaborrowError, np.linalg.LinAlgError) as exc:
        return ReplicationResult(rep=r, ok=False, error=f"{type(exc).__name__}: {exc}")
    target_rec = None
    if cfg.allocation != "single_arm":
        try:
            target_rec = fit_weighted_regression(target, meat="hc0", **model).z_contrast()
        except (MetaborrowError, np.linalg.LinAlgError):
            pass
    return ReplicationResult(rep=r, ok=True, pooled=pooled, pooled_univariate=uni,
                             target=target_rec, clamped_arms=len(done.clamps))


@dataclass(frozen=True)
class EstimatorSummary:
    """Aggregates for one estimator over the successful replications."""

    n_used: int
    mean: float
    bias: float
    variance: float
    mse: float
    coverage: float
    power_curve: tuple

    @property
    def type1(self):
        return self.power_curve[0]


@dataclass(frozen=True)
class CellResult:
    """Aggregated cell: per-estimator summaries plus failure accounting."""

    config: ScenarioConfig
    failures: int
    clamped_arms: int = 0
    summaries: dict = field(default_factory=dict)

    @property
    def valid(self):
        return EST_POOLED in self.summaries

    def summary(self, estimator):
        if estimator not in self.summaries:
            raise DataError(f"estimator {estimator!r} has no successful replications")
        return self.summaries[estimator]


def _summarize_estimator(records, grid):
    est = np.array([rec.estimate for rec in records])
    lo = np.array([rec.ci_low for rec in records])
    hi = np.array([rec.ci_high for rec in records])
    power = tuple(float(np.mean((d0 < lo) | (d0 > hi))) for d0 in grid)
    return EstimatorSummary(
        n_used=len(records),
        mean=float(est.mean()), bias=float(est.mean() - TRUE_DELTA),
        variance=float(est.var()), mse=float(np.mean((est - TRUE_DELTA) ** 2)),
        coverage=float(np.mean((lo <= TRUE_DELTA) & (TRUE_DELTA <= hi))),
        power_curve=power,
    )


def aggregate(cfg, results):
    """Fold replication results (ordered by index) into a CellResult."""
    results = sorted(results, key=lambda o: o.rep)
    failures = sum(1 for o in results if not o.ok)
    clamped = sum(o.clamped_arms for o in results)
    grid = cfg.delta0_grid
    summaries = {}
    for name in (EST_POOLED, EST_POOLED_UNI, EST_TARGET):
        records = [o.record(name) for o in results if o.ok and o.record(name) is not None]
        if records:
            summaries[name] = _summarize_estimator(records, grid)
    return CellResult(config=cfg, failures=failures, clamped_arms=clamped,
                      summaries=summaries)


def run_cell(cfg, jobs=1, progress=None):
    """Run every replication of a cell and aggregate.

    ``jobs > 1`` fans replications out to a process pool of
    ``min(jobs, replications)`` workers (the pool starts all its workers
    at once, and more than one per replication would sit idle); because
    each replication is seeded independently by its index, the aggregate
    is identical at any ``jobs``.  A ``jobs`` that is not an int, is a
    bool or is below 1 is a ConfigError.  The pool class is imported
    only when a pool is built: ``concurrent.futures.process`` loads
    ``multiprocessing``, ``socket`` and ``queue`` (about 1.2 MB of
    resident memory), which a serial run and every CLI stage process
    would otherwise load for nothing.
    ``progress`` (callable taking the count of completed replications)
    is invoked occasionally when given.
    """
    check_int("jobs", jobs, 1)
    reps = range(cfg.replications)
    workers = min(jobs, cfg.replications)
    parallel = workers > 1
    if parallel:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        outs = (pool.map(run_replication, repeat(cfg), reps,
                         chunksize=max(1, cfg.replications // (workers * 8)))
                if parallel else map(run_replication, repeat(cfg), reps))
        results = []
        for i, out in enumerate(outs, start=1):
            results.append(out)
            if progress and i % 50 == 0:
                progress(i)
    return aggregate(cfg, results)


CSV_HEADER = ("scenario", "estimator", "metric", "delta0", "value")


def _write_mode(path, append):
    """``"a"`` to append to the results file ``path``, else ``"w"``; DataError for another file."""
    if not (append and Path(path).exists() and Path(path).stat().st_size):
        return "w"
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        if tuple(next(csv.reader(fh), ())) != CSV_HEADER:
            raise DataError(f"{path}: cannot append, expected header {','.join(CSV_HEADER)}")
    return "a"


def _ends_line(path):
    """Whether the nonempty file ``path`` ends in a newline."""
    with open(path, "rb") as fh:
        fh.seek(-1, 2)
        return fh.read(1) == b"\n"


def write_cell_csv(cell, path, append=False):
    """Write a cell as long-format rows: scenario,estimator,metric,delta0,value.

    Scalar metrics leave ``delta0`` empty; power rows carry the null
    value being tested.  The scenario label round-trips through
    :meth:`ScenarioConfig.from_label`, so any cell in a results file can
    be regenerated from its rows alone.  ``append`` adds to a results file.
    """
    path = Path(path)
    mode = _write_mode(path, append)
    with open(path, mode, newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        if mode == "w":
            wr.writerow(CSV_HEADER)
        elif not _ends_line(path):
            fh.write(wr.dialect.lineterminator)
        label = cell.config.label
        wr.writerow([label, "", "failures", "", cell.failures])
        wr.writerow([label, "", "replications", "", cell.config.replications])
        wr.writerow([label, "", "clamped_arms", "", cell.clamped_arms])
        for name, s in cell.summaries.items():
            for metric in (f.name for f in fields(s) if f.name != "power_curve"):
                wr.writerow([label, name, metric, "", repr(float(getattr(s, metric)))])
            for d0, p in zip(cell.config.delta0_grid, s.power_curve):
                wr.writerow([label, name, "power", repr(d0), repr(p)])
    return path


def read_cell_csv(path):
    """Parse a long-format results file back into {label: {(est, metric, delta0): value}}.

    A row whose ``delta0`` or ``value`` is not a number, or that is cut
    short, is a DataError naming the file and its line; bytes that are
    not UTF-8, or text the csv module cannot split, a DataError naming
    the file.
    """
    out = {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rd = csv.DictReader(fh)
            if rd.fieldnames is None or tuple(rd.fieldnames) != CSV_HEADER:
                raise DataError(f"{path}: expected header {','.join(CSV_HEADER)}")
            for row in rd:
                try:
                    key = (row["estimator"], row["metric"],
                           float(row["delta0"]) if row["delta0"] else None)
                    out.setdefault(row["scenario"], {})[key] = float(row["value"])
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{path}: line {rd.line_num}: cannot parse results row "
                                    f"({exc})") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read results file ({exc})") from exc
    return out
