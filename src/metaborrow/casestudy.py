"""Worked example: borrowing four completed renal trials into a small trial.

Four published trials of intensified blood-pressure/RAS-blockade therapy
report, per arm: sample size, total change in eGFR (mean and SE of the
between-arm difference), and baseline eGFR (mean and SD).  A fifth small
trial plays the target.  Arm-level outcome summaries are derived from
the reported quantities as follows:

* annualized spontaneous decline: control mean change = -follow_up/12
  (one eGFR unit lost per year), treatment mean change adds the reported
  total change;
* the reported SE of the change is split between arms in proportion to
  arm size: v_j = n_j * se^2 / (n1 + n0).

``v_j`` is used on two scales.  The meta-regression weights each arm row
by the precision of its mean, i.e. treats v_j as the variance of the arm
mean (equivalently a subject-level variance of n_j * v_j, the scale the
bundled CSV records).  Reconstruction, by contrast, draws its residual
noise at the v_j scale itself, keeping borrowed outcomes tight around
the fitted regression surface — the completed trials' means are treated
as precisely estimated.  The simulated target trial draws subjects at
the subject-level scale n_j * v_j.

Both scales are :class:`metaborrow.data.Summaries` tables with two arm
rows per trial, treated arm first: the four completed trials make one
table for each stage, and the target trial's own table gives the arm
statistics its subjects are drawn from.

Baseline eGFR is the single covariate; follow-up duration is not used.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.random import SeedSequence, default_rng

from .data import Summaries, dataset_from_arms
from .errors import DataError, _check_choice, check_int
from .estimate import Contrast, fit_ols
from .meta import fit_dl
from .pipeline import borrow
from .reconstruct import ReconstructionConfig

DEFAULT_SEED = 40


@dataclass(frozen=True)
class EgfrTrialRow:
    """One published trial: reported eGFR quantities.

    ``total_change`` is (mean, se) of the between-arm difference in
    total eGFR change over follow-up; ``baseline_treat``/``baseline_ctrl``
    are (mean, sd) of baseline eGFR per arm.
    """

    study: str
    n1: int
    n0: int
    follow_up_months: float
    total_change: tuple
    baseline_treat: tuple
    baseline_ctrl: tuple

    def __post_init__(self):
        if self.n1 < 1 or self.n0 < 1:
            raise DataError(f"{self.study}: arm sizes must be >= 1")
        if self.total_change[1] <= 0:
            raise DataError(f"{self.study}: change SE must be positive")
        if self.baseline_treat[1] <= 0 or self.baseline_ctrl[1] <= 0:
            raise DataError(f"{self.study}: baseline SDs must be positive")


COMPLETED_TRIALS = (
    EgfrTrialRow("Yasuda 2004", 39, 41, 12.0, (-2.0, 0.6), (59.0, 25.6), (60.0, 31.2)),
    EgfrTrialRow("Bianchi 2003", 28, 28, 12.0, (4.6, 0.2), (50.8, 10.1), (50.0, 9.5)),
    EgfrTrialRow("Rahman 2008", 779, 778, 58.0, (0.9, 0.7), (50.8, 8.4), (50.6, 8.2)),
    EgfrTrialRow("Koren 2009", 286, 293, 54.0, (2.1, 0.2), (51.3, 8.5), (51.1, 7.8)),
)

TARGET_TRIAL = EgfrTrialRow("Sawara 2008", 22, 16, 12.0, (4.8, 2.7), (50.7, 16.2), (57.3, 18.7))


def _derive(rows, subject_scale):
    """One Summaries table of the published ``rows``: two arm rows per trial, treated first."""
    arms = []
    for row in rows:
        base = -row.follow_up_months / 12.0
        total = row.n1 + row.n0
        for arm, nj, (xm, xsd) in ((1, row.n1, row.baseline_treat),
                                   (0, row.n0, row.baseline_ctrl)):
            v_j = nj * row.total_change[1] ** 2 / total
            arms.append((arm, nj, base + (row.total_change[0] if arm == 1 else 0.0),
                         nj * v_j if subject_scale else v_j, (xm,), (xsd ** 2,)))
    arm, n, y_mean, y_var, x_mean, x_var = zip(*arms)
    return Summaries(tuple(row.study for row in rows), np.arange(len(arms)) // 2, arm, n,
                     y_mean, y_var, x_mean, x_var, np.zeros((len(arms), 1), dtype=bool))


def derive_arm_summaries(row):
    """Arm summaries at the subject-level outcome scale (y_var = n_j v_j).

    This is the view the meta-regression consumes: each row enters with
    variance y_var / n_j = v_j, the precision of the arm mean.
    """
    return _derive((row,), subject_scale=True)


def derive_reconstruction_summaries(row):
    """Arm summaries with y_var = v_j, the scale reconstruction noise uses."""
    return _derive((row,), subject_scale=False)


def completed_summaries():
    """The four completed trials' arm summaries at the subject-level scale, as one table."""
    return _derive(COMPLETED_TRIALS, subject_scale=True)


def simulate_target(n1, n0, rng):
    """Simulate target-trial IPD from the derived arm statistics.

    Outcomes and the baseline covariate are drawn as independent normals
    matched to the derived arm mean/variance (subject scale) and the
    reported baseline mean/SD, treated arm first.
    """
    t = derive_arm_summaries(TARGET_TRIAL)
    xs, ys = [], []
    for (x_mean,), (x_var,), y_mean, y_var, nj in zip(
            t.x_mean.tolist(), t.x_var.tolist(), t.y_mean.tolist(), t.y_var.tolist(), (n1, n0)):
        xs.append(rng.normal(x_mean, x_var ** 0.5, nj))
        ys.append(rng.normal(y_mean, y_var ** 0.5, nj))
    return dataset_from_arms(t.trial_ids, t.trial, t.arm, [n1, n0], np.concatenate(xs)[:, None],
                             np.concatenate(ys), is_target=True)


# scenario -> (n1, n0, borrow); borrow None means no external data.
SCENARIOS = {
    "target": (22, 16, None),
    "target_borrow": (22, 16, "both_arms"),
    "target_2to1": (100, 50, None),
    "target_2to1_borrow_control": (100, 50, "control_only"),
    "single_arm": (100, 0, None),
    "single_arm_borrow_control": (100, 0, "control_only"),
}


@dataclass(frozen=True)
class CaseStudyResult:
    """One scenario's analysis row.

    ``contrast`` is the treatment Contrast, t-based on its fit's ``df``.
    It is None, and ``estimable`` False, only for the single-arm scenario
    without borrowing, where no within-trial contrast exists.  ``tau2``
    and ``clamped_arms`` describe the borrowing scenarios' meta fit and
    reconstruction.
    """

    scenario: str
    n1: int
    n0: int
    contrast: Contrast = None
    tau2: float = None
    clamped_arms: tuple = ()

    @property
    def estimable(self):
        return self.contrast is not None

    def to_row(self):
        """JSON-ready dict; unestimable cells carry "NC"."""
        if not self.estimable:
            return {"scenario": self.scenario, "n1": self.n1, "n0": self.n0,
                    "estimate": "NC", "se": "NC", "ci": "NC", "t": "NC", "p": "NC"}
        ct = self.contrast
        return {
            "scenario": self.scenario, "n1": self.n1, "n0": self.n0,
            "estimate": round(ct.estimate, 4), "se": round(ct.se, 4),
            "ci": [round(ct.ci_low, 4), round(ct.ci_high, 4)],
            "t": round(ct.stat, 4), "p": round(ct.p_value, 6),
        }


def run_case_study(scenario, seed=DEFAULT_SEED, meat="w4"):
    """Run one borrowing scenario end to end; intervals are 95%.

    The target IPD draws from a stream keyed by (``seed``, 99) and
    reconstruction from per-arm substreams keyed by ``seed``.  Borrowing
    scenarios run :func:`metaborrow.pipeline.borrow` with the quadratic
    weight feature map and, by default, the conservative ``w4``
    sandwich.  A ``seed`` other than a nonnegative int is a ConfigError.
    """
    _check_choice("scenario", scenario, tuple(SCENARIOS))
    check_int("seed", seed, 0)
    n1, n0, borrow_mode = SCENARIOS[scenario]
    target = simulate_target(n1, n0, default_rng(SeedSequence((seed, 99))))

    if borrow_mode is None:
        if n0 == 0:
            return CaseStudyResult(scenario, n1, n0)
        return CaseStudyResult(scenario, n1, n0, fit_ols(target).z_contrast())

    meta = fit_dl(completed_summaries())
    done = borrow(_derive(COMPLETED_TRIALS, subject_scale=False), meta, target,
                  ReconstructionConfig(rng_seed=seed, borrow=borrow_mode), meat=meat)
    clamped = tuple(f"{c.trial_id}/arm{c.arm}" for c in done.clamps)
    return CaseStudyResult(scenario, n1, n0, done.fit.z_contrast(), tau2=meta.tau2,
                           clamped_arms=clamped)


def bundled_data_path():
    """Path of the packaged arm-summary CSV (8 derived rows)."""
    return resources.files("metaborrow").joinpath("data/egfr_summaries.csv")

