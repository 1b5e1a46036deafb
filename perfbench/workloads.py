"""The benchmark workloads: inputs from a seed, one op, and its output check.

An op is one ``simulate.run_replication(cfg, i)`` call in the sim
workloads and one ``pipeline.run_pipeline(cfg)`` call in
``pipeline-egfr``.  Op ``i`` depends only on (workload seed, i), so no
op can reuse another's work.

Output check: for ``DEFAULT_SEED`` the first ops are compared with the
reference values stored in ``reference/<workload>.json`` (written at the
commit that defined the benchmark).  Every op, with any seed, must also
pass the invariants: estimates and SEs finite, ``ci_low <= estimate <=
ci_high``.  ``REL_TOL`` admits the last-digit differences a reordered
sum or a QR solve in place of ``inv`` causes; a wrong answer misses by
far more.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path

from numpy.random import SeedSequence, default_rng

from metaborrow import casestudy, pipeline, simulate
from metaborrow.data import write_subjects
from metaborrow.errors import MetaborrowError

DEFAULT_SEED = 1
REL_TOL = 1e-8
ABS_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WARMUP_BASE = 1_000_000  # op indices of warm-up ops; timed ops count up from 0
ARTIFACTS = ("meta_fit.json", "reconstructed.csv", "weighted.csv", "estimate.json",
             "summary.txt")  # what run_pipeline writes


class CheckFailure(Exception):
    """An op's output broke an invariant."""


def _check_interval(label, est, se, lo, hi):
    if not (math.isfinite(est) and math.isfinite(se)):
        raise CheckFailure(f"{label}: estimate {est!r} or se {se!r} not finite")
    if not lo <= est <= hi:
        raise CheckFailure(f"{label}: estimate {est!r} outside CI [{lo!r}, {hi!r}]")


def compare(fields, values, reference):
    """Return '' when ``values`` match ``reference`` within tolerance, else why not."""
    if len(values) != len(reference):
        return f"{len(values)} values, reference has {len(reference)}"
    for name, v, r in zip(fields, values, reference):
        if not abs(v - r) <= ABS_TOL + REL_TOL * abs(r):
            return f"{name} = {v!r}, reference {r!r}"
    return ""


class Workload:
    """Common check logic; subclasses define ``fields``, ``run`` and ``values``."""

    root_span = ""
    fields = ()

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.reference = []
        if seed == DEFAULT_SEED:
            path = REFERENCE_DIR / f"{name}.json"
            if path.exists():
                self.reference = json.loads(path.read_text())["values"]

    def setup(self, workdir):
        """Generate the inputs the ops read."""

    def check(self, i, result):
        """'' when op ``i`` produced a correct result, else the reason it failed."""
        try:
            values = self.values(result)
        except CheckFailure as exc:
            return str(exc)
        if i < len(self.reference):
            return compare(self.fields, values, self.reference[i])
        return ""


class SimWorkload(Workload):
    root_span = "simulate.run_replication"

    def __init__(self, name, seed, **scenario):
        super().__init__(name, seed)
        self.cfg = simulate.ScenarioConfig(base_seed=seed, **scenario)
        self.estimators = ("pooled", "pooled_univariate")
        if self.cfg.allocation != "single_arm":
            self.estimators += ("target",)
        self.fields = tuple(f"{e}.{v}" for e in self.estimators for v in ("estimate", "se"))

    def run(self, i):
        return simulate.run_replication(self.cfg, i)

    def values(self, res):
        if not res.ok:
            raise CheckFailure(f"replication {res.rep} failed: {res.error}")
        out = []
        for name in self.estimators:
            rec = getattr(res, name)
            if rec is None:
                raise CheckFailure(f"{name}: no estimate")
            _check_interval(name, rec.estimate, rec.se, rec.ci_low, rec.ci_high)
            out += [rec.estimate, rec.se]
        return out

    def counters(self, res):
        return {"reconstruct.clamped_arms": res.clamped_arms,
                "simulate.failed_reps": float(not res.ok)}


class PipelineWorkload(Workload):
    """``run_pipeline`` on the bundled eGFR summaries and a simulated 22/16 target.

    The target CSV is drawn at set-up from the workload seed; op ``i``
    reconstructs with a seed derived from (workload seed, i) and writes
    all five artifacts into one output directory.  The check removes them
    (outside the per-op timer), so each op must write them again.
    """

    root_span = "pipeline.run_pipeline"
    fields = ("contrast_z.estimate", "contrast_z.se", "tau2", "mean_weight")

    def setup(self, workdir):
        self.summaries = str(casestudy.bundled_data_path())
        self.target = Path(workdir) / "target.csv"
        self.out = Path(workdir) / "out"
        rng = default_rng(SeedSequence((self.seed, 0)))
        write_subjects(casestudy.simulate_target(22, 16, rng), self.target)

    def run(self, i):
        cfg = pipeline.PipelineConfig(
            summaries=self.summaries, target=str(self.target), out=str(self.out),
            seed=int(SeedSequence((self.seed, 1, i)).generate_state(1)[0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = pipeline.run_pipeline(cfg)
            except MetaborrowError as exc:
                out = exc
        return out, sum(issubclass(w.category, UserWarning) for w in caught)

    def values(self, result):
        out, _ = result
        if isinstance(out, Exception):
            raise CheckFailure(f"pipeline failed: {type(out).__name__}: {out}")
        est = out["estimate"]
        ct = est["contrast_z"]
        _check_interval("contrast_z", ct["estimate"], ct["se"], ct["ci_low"], ct["ci_high"])
        absent = [name for name in ARTIFACTS if not (self.out / name).is_file()]
        if absent:
            raise CheckFailure(f"artifacts not written: {absent}")
        # every op writes into the same directory: remove what this op wrote,
        # so that the next op's check sees only files the next op wrote
        for name in ARTIFACTS:
            (self.out / name).unlink()
        mean_weight = (est["n_eff_treated"] + est["n_eff_control"]) / est["n"]
        return [ct["estimate"], ct["se"], out["meta"]["tau2"], mean_weight]

    def counters(self, result):
        return {"reconstruct.clamped_arms": result[1]}


def make(name, seed):
    """Build the named workload for ``seed``; raise KeyError for an unknown name."""
    if name == "sim-k30":
        return SimWorkload(name, seed, K=30, n=100, covariate_dist="normal",
                           allocation="one_to_one", model_spec="identified",
                           borrow="both_arms", meat="w3")
    if name == "sim-k5-ctrl":
        return SimWorkload(name, seed, K=5, n=100, covariate_dist="chisq2",
                           allocation="single_arm", model_spec="misidentified",
                           borrow="control_only", meat="w3")
    if name == "pipeline-egfr":
        return PipelineWorkload(name, seed)
    raise KeyError(name)


NAMES = ("sim-k30", "sim-k5-ctrl", "pipeline-egfr")


# ---------------------------------------------------------------------------
# traced names: (module, attribute path, span name, counter)


def _count_len(counter):
    def count(tracer, args, kwargs, result):
        tracer.count(counter, len(result))
    return count


def _count_arm_rows(tracer, args, kwargs, result):
    tracer.count("meta.arm_rows", len(result.y))


def _count_membership(tracer, args, kwargs, result):
    tracer.count("weights.irls_iterations", result.iterations)
    tracer.count("weights.ridge_fits", float(result.ridge_lambda > 0))


def _count_written_bytes(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.count("data.write_subjects.bytes", os.path.getsize(path))


# names both orchestrators import and call
_SHARED = (
    ("build_design", "meta.build_design", _count_arm_rows),
    ("fit_dl", "meta.fit_dl", None),
    ("reconstruct_all", "reconstruct.reconstruct_all", _count_len("reconstruct.subjects")),
    ("make_dataset", "data.make_dataset", _count_len("data.rows")),
    ("fit_membership", "weights.fit_membership", _count_membership),
    ("compute_weights", "weights.compute_weights", None),
    ("fit_weighted_regression", "estimate.fit_weighted_regression", None),
)

TRACE_TARGETS = tuple(
    [("metaborrow.simulate", a, s, c) for a, s, c in _SHARED]
    + [("metaborrow.pipeline", a, s, c) for a, s, c in _SHARED]
    + [
        ("metaborrow.simulate", "generate_meta_trial", "simulate.generate", None),
        ("metaborrow.simulate", "generate_target_trial", "simulate.generate", None),
        ("metaborrow.simulate", "estimate_univariate", "estimate.estimate_univariate", None),
        ("metaborrow.pipeline", "read_summaries", "data.read_summaries", None),
        ("metaborrow.pipeline", "read_subjects", "data.read_subjects", None),
        ("metaborrow.pipeline", "write_subjects", "data.write_subjects", _count_written_bytes),
        ("metaborrow.data", "Dataset.with_weights", "data.with_weights",
         _count_len("data.with_weights.rows")),
        ("metaborrow.weights", "FeatureMap.matrix", "weights.feature_matrix", None),
    ]
)

# spans whose self time is reported even when a workload never enters them
SPAN_NAMES = tuple(sorted({t[2] for t in TRACE_TARGETS}
                          | {"simulate.run_replication", "pipeline.run_pipeline"}))
COUNTER_NAMES = ("reconstruct.subjects", "reconstruct.clamped_arms", "data.rows",
                 "data.with_weights.rows", "data.write_subjects.bytes",
                 "weights.irls_iterations", "weights.ridge_fits", "meta.arm_rows",
                 "simulate.failed_reps")
