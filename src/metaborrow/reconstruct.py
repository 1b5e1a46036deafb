"""Pseudo-IPD reconstruction from arm-level summaries.

For each trial arm, covariates are drawn i.i.d. from moment-matched
families (Normal for continuous, Bernoulli for binary), the outcome mean
is the fitted arm-level linear predictor, and the residual variance is
chosen so the reconstructed outcomes restore the arm's reported outcome
variance:

    s2 = y_var - sum_j load_j**2 * x_var_j,

where ``load_j`` is the total slope on covariate j for this arm
(main-effect coefficient plus, for treated arms, the arm-interaction
coefficient when the meta design carries one).  A negative ``s2`` is
clamped to ``error_floor * y_var`` with a warning, never silently.

Randomness is drawn from per-arm substreams keyed by (seed, crc32 of
trial id, arm), so results do not depend on trial order and arms can be
reconstructed in parallel.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .data import dataset_from_arms, subject_records
from .errors import DataError

BORROW_MODES = ("both_arms", "control_only")


@dataclass(frozen=True)
class ReconstructionConfig:
    """Reconstruction settings.

    Attributes
    ----------
    rng_seed : int
    error_floor : float
        Lower bound on the residual variance, relative to the arm's
        outcome variance (default 1e-8).
    borrow : str
        ``both_arms`` reconstructs every arm; ``control_only`` skips
        treatment arms.
    family_overrides : dict
        Optional per-covariate family overrides, index -> family.
    """

    rng_seed: int
    error_floor: float = 1e-8
    borrow: str = "both_arms"
    family_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.error_floor < 0:
            raise DataError("error_floor must be nonnegative")
        if self.borrow not in BORROW_MODES:
            raise DataError(f"borrow must be one of {BORROW_MODES}, got {self.borrow!r}")


def _arm_stream(seed, trial_id, arm):
    tag = zlib.crc32(str(trial_id).encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag, int(arm))))


def sample_covariates(arm, n, cfg, rng):
    """Draw an (n, p) covariate matrix matching the arm's reported moments.

    Continuous covariates are Normal(x_mean, x_var); binary covariates
    are Bernoulli(x_mean).  Distinct covariates are independent.
    """
    if n < 1:
        raise DataError(f"trial {arm.trial_id!r} arm {arm.arm}: cannot sample {n} subjects")
    cols = []
    for j, (m, v, fam) in enumerate(zip(arm.x_mean, arm.x_var, arm.x_family)):
        fam = cfg.family_overrides.get(j, fam)
        if fam == "continuous":
            cols.append(rng.normal(m, np.sqrt(v), n))
        elif fam == "binary":
            if not 0.0 <= m <= 1.0:
                raise DataError(f"trial {arm.trial_id!r}: binary x{j + 1} mean {m} outside [0, 1]")
            cols.append((rng.random(n) < m).astype(float))
        else:
            raise DataError(f"unknown covariate family {fam!r}")
    if not cols:
        return np.empty((n, 0))
    return np.column_stack(cols)


def _slope_layout(meta, p):
    """Map meta design columns onto (intercept, arm, slopes, interaction slopes).

    Returns (idx_intercept, idx_arm, slope index per covariate or None,
    interaction index per covariate or None).  Raises DataError when the
    design does not follow the ``(intercept, arm, x*_mean...)`` layout or
    references covariates the arm does not have.
    """
    cols = list(meta.columns)
    if cols[:2] != ["intercept", "arm"]:
        raise DataError(f"meta design {cols} does not start with (intercept, arm)")
    slope_idx = [None] * p
    inter_idx = [None] * p
    for i, name in enumerate(cols[2:], start=2):
        inter = name.startswith("arm:")
        base = name[4:] if inter else name
        if not (base.startswith("x") and base.endswith("_mean")):
            raise DataError(f"unrecognized meta design column {name!r}")
        j = int(base[1:-5]) - 1
        if not 0 <= j < p:
            raise DataError(f"meta design column {name!r} references covariate outside dimension {p}")
        (inter_idx if inter else slope_idx)[j] = i
    return slope_idx, inter_idx


def reconstruct_arm(arm, meta, cfg, rng=None, n_override=None):
    """Reconstruct one arm; returns a list of SubjectRecord.

    Parameters
    ----------
    arm : ArmSummary
    meta : MetaFit
        Must have been fit on a design laid out as (intercept, arm,
        covariate means, optional arm-interactions) over the same
        covariates.
    cfg : ReconstructionConfig
    rng : numpy Generator or None
        When None, the per-arm substream derived from ``cfg.rng_seed``
        is used.
    n_override : int or None
        Draw this many subjects instead of ``arm.n`` (useful for
        moment-restoration checks at large n).
    """
    n = int(n_override) if n_override is not None else arm.n
    if rng is None:
        rng = _arm_stream(cfg.rng_seed, arm.trial_id, arm.arm)
    X, y = _draw_arm(arm, meta, cfg, rng, n)
    return subject_records(arm.trial_id, repeat(arm.arm), y, X.T, "reconstructed")


def _draw_arm(arm, meta, cfg, rng, n):
    """Draw n pseudo-subjects of one arm: returns (X, y), covariates drawn first."""
    slope_idx, inter_idx = _slope_layout(meta, arm.p)
    xs = sample_covariates(arm, n, cfg, rng)

    loads = np.zeros(arm.p)
    for j in range(arm.p):
        b = meta.beta[slope_idx[j]] if slope_idx[j] is not None else 0.0
        if arm.arm == 1 and inter_idx[j] is not None:
            b += meta.beta[inter_idx[j]]
        loads[j] = b
    mean = meta.beta[0] + meta.beta[1] * arm.arm + xs @ loads

    explained = float(np.sum(loads**2 * np.asarray(arm.x_var)))
    s2_raw = arm.y_var - explained
    floor = cfg.error_floor * arm.y_var
    if s2_raw < floor:
        warnings.warn(
            f"trial {arm.trial_id!r} arm {arm.arm}: residual variance "
            f"{s2_raw:.6g} below floor; clamped to {floor:.6g} "
            "(covariate slopes explain more variance than the arm reports)",
            stacklevel=3,
        )
        s2 = floor
    else:
        s2 = s2_raw
    return xs, mean + rng.normal(0.0, np.sqrt(s2), n)


def reconstruct_all(trials, meta, cfg, rng=None):
    """Reconstruct every borrowed arm across trials; returns a Dataset.

    The rows are tagged reconstructed and carry unit weights.  Treatment
    arms are skipped when ``cfg.borrow == "control_only"``, and empty
    arms always.  Rows follow (trial, arm) input order.  Each arm draws
    from its own substream keyed by (seed, trial_id, arm), so its values
    do not depend on trial order; when ``rng`` is given, every arm draws
    from that one stream instead, in input order.
    """
    arms = []
    for t in trials:
        for a in t.arms:
            if (cfg.borrow == "control_only" and a.arm == 1) or a.n == 0:
                continue
            arm_rng = rng if rng is not None else _arm_stream(cfg.rng_seed, a.trial_id, a.arm)
            arms.append((a.trial_id, a.arm, *_draw_arm(a, meta, cfg, arm_rng, a.n)))
    return dataset_from_arms(arms, is_target=False)
