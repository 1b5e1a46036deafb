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
clamped to ``error_floor * y_var`` with a :class:`ClampWarning` naming
the arm, never silently.

Randomness is drawn from per-arm substreams keyed by (seed, crc32 of
trial id, arm), so results do not depend on trial order and arms can be
reconstructed in parallel.

All borrowed arms are reconstructed in one pass over arrays.  The meta
design's slope layout is parsed once, giving one load vector for control
arms and one for treated arms; the residual variances and clamp tests
of all arms are one array operation.  A single loop over the arms then
only draws: from each arm's substream (the key above, unchanged), or
from one shared generator in (trial, arm) order, each covariate's
standard normals (continuous) or uniforms (binary) and then the outcome
noise, into one ``(p + 1, N)`` buffer whose row slices are the arms.
The location and scale are applied to whole columns afterwards:
``x_mean + sqrt(x_var) * z`` and ``mean + sd * z`` are what
``Generator.normal`` computes element by element, so every value is the
one a per-arm ``normal`` call draws.  Only the covariate term of the
mean, ``X @ load``, is one product per arm.  ``reconstruct_arm`` and
``sample_covariates`` run the same pass on one arm, so an arm drawn from
its substream has the same rows alone as among others.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .data import _owned, trial_dimension
from .errors import DataError

BORROW_MODES = ("both_arms", "control_only")


class ClampWarning(UserWarning):
    """An arm's residual variance fell below its floor and was clamped.

    ``trial_id`` and ``arm`` name the arm, so callers can report it
    without parsing the message.
    """

    def __init__(self, message, trial_id, arm):
        super().__init__(message)
        self.trial_id = trial_id
        self.arm = arm


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
    """

    rng_seed: int
    error_floor: float = 1e-8
    borrow: str = "both_arms"

    def __post_init__(self):
        if self.error_floor < 0:
            raise DataError("error_floor must be nonnegative")
        if self.borrow not in BORROW_MODES:
            raise DataError(f"borrow must be one of {BORROW_MODES}, got {self.borrow!r}")


def _arm_stream(seed, trial_id, arm):
    tag = zlib.crc32(str(trial_id).encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag, int(arm))))


def _require_subjects(arm, n):
    if n < 1:
        raise DataError(f"trial {arm.trial_id!r} arm {arm.arm}: cannot sample {n} subjects")


def _draw_covariates(rng, arm, out):
    """Fill row j of ``out`` with covariate j's raw draws, in covariate order.

    Standard normals for a continuous covariate, uniforms on [0, 1) for a
    binary one (ArmSummary admits no other family); :func:`_covariates`
    turns them into values.
    """
    for row, fam in zip(out, arm.x_family):
        if fam == "continuous":
            rng.standard_normal(out=row)
        else:
            rng.random(out=row)


def _covariates(raw, arms, sizes):
    """The (N, p) covariate matrix from the (p, N) raw draws of ``arms``.

    Arm k owns the next ``sizes[k]`` columns of ``raw``.  A continuous
    value is ``x_mean + sqrt(x_var) * z``, a binary one ``u < x_mean``.
    """
    p = len(raw)

    def per_row(values, dtype=float):
        return np.repeat(np.array(values, dtype=dtype).reshape(len(arms), p).T, sizes, axis=1)

    mean = per_row([a.x_mean for a in arms])
    x = mean + np.sqrt(per_row([a.x_var for a in arms])) * raw
    np.copyto(x, raw < mean, where=per_row([[f == "binary" for f in a.x_family] for a in arms],
                                           bool))
    return np.ascontiguousarray(x.T)


def sample_covariates(arm, n, cfg, rng):
    """Draw an (n, p) covariate matrix matching the arm's reported moments.

    Continuous covariates are Normal(x_mean, x_var); binary covariates
    are Bernoulli(x_mean).  Distinct covariates are independent.  No
    setting of ``cfg`` changes the draw: the families and moments are
    the arm's own.
    """
    _require_subjects(arm, n)
    raw = np.empty((arm.p, n))
    _draw_covariates(rng, arm, raw)
    return _covariates(raw, [arm], [n])


def _slope_layout(meta, p):
    """Map meta design columns onto (intercept, arm, slopes, interaction slopes).

    Returns (slope index per covariate or None, interaction index per
    covariate or None).  Raises DataError when the design does not
    follow the ``(intercept, arm, x*_mean...)`` layout or references
    covariates outside dimension ``p``.
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


def _loads(meta, p):
    """Total slope per covariate: (control arm, treated arm) vectors of length p."""
    slope_idx, inter_idx = _slope_layout(meta, p)
    beta = meta.beta
    control = np.array([beta[i] if i is not None else 0.0 for i in slope_idx], dtype=float)
    treated = np.array([b + beta[i] if i is not None else b
                        for b, i in zip(control, inter_idx)], dtype=float)
    return control, treated


def _reconstruct(arms, sizes, p, meta, cfg, rng):
    """Reconstruct ``sizes[k]`` subjects of each ``arms[k]``; returns a Dataset.

    The one reconstruction pass (see the module docstring).  Warns one
    ClampWarning per clamped arm, in the order of ``arms``.
    """
    control, treated = _loads(meta, p)
    arm_of = np.array([a.arm for a in arms], dtype=int)
    loads = np.where(arm_of[:, None] == 1, treated, control)
    y_var = np.array([a.y_var for a in arms], dtype=float)
    x_var = np.array([a.x_var for a in arms], dtype=float).reshape(len(arms), p)
    s2 = y_var - (loads**2 * x_var).sum(axis=1)
    floor = cfg.error_floor * y_var
    clamped = s2 < floor
    for k in np.flatnonzero(clamped).tolist():
        a = arms[k]
        warnings.warn(ClampWarning(
            f"trial {a.trial_id!r} arm {a.arm}: residual variance "
            f"{s2[k]:.6g} below floor; clamped to {floor[k]:.6g} "
            "(covariate slopes explain more variance than the arm reports)",
            a.trial_id, a.arm,
        ), stacklevel=3)
    sd = np.sqrt(np.where(clamped, floor, s2))

    bounds = list(accumulate(sizes, initial=0))
    raw = np.empty((p + 1, bounds[-1]))
    for a, lo, hi in zip(arms, bounds, bounds[1:]):
        arm_rng = rng if rng is not None else _arm_stream(cfg.rng_seed, a.trial_id, a.arm)
        _draw_covariates(arm_rng, a, raw[:p, lo:hi])
        arm_rng.standard_normal(out=raw[p, lo:hi])

    X = _covariates(raw[:p], arms, sizes)
    # one BLAS product per arm keeps an arm's values independent of the
    # arms around it: at p > 1, a product over several arms' rows can round
    # a row differently in the last bit, and so can a sum of column products
    xl = np.empty(bounds[-1])
    for load, lo, hi in zip(loads, bounds, bounds[1:]):
        np.dot(X[lo:hi], load, out=xl[lo:hi])
    mean = np.repeat(meta.beta[0] + meta.beta[1] * arm_of, sizes) + xl
    y = mean + np.repeat(sd, sizes) * raw[p]

    index = {}
    trial = np.repeat(np.array([index.setdefault(a.trial_id, len(index)) for a in arms],
                               dtype=int), sizes)
    n = len(y)
    return _owned(tuple(index), trial, np.repeat(arm_of, sizes), y, X, np.ones(n),
                  np.zeros(n, dtype=bool))


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
    _require_subjects(arm, n)
    return list(_reconstruct([arm], [n], arm.p, meta, cfg, rng).subjects)


def reconstruct_all(trials, meta, cfg, rng=None):
    """Reconstruct every borrowed arm across trials; returns a Dataset.

    The rows are tagged reconstructed and carry unit weights.  Treatment
    arms are skipped when ``cfg.borrow == "control_only"``, and empty
    arms always.  Rows follow (trial, arm) input order.  Each arm draws
    from its own substream keyed by (seed, trial_id, arm), so its values
    do not depend on trial order; when ``rng`` is given, every arm draws
    from that one stream instead, in input order.

    Raises DataError when the trials differ in covariate dimension or
    the meta design does not fit their covariates.
    """
    p = trial_dimension(trials)
    arms = [a for t in trials for a in t.arms
            if a.n > 0 and not (cfg.borrow == "control_only" and a.arm == 1)]
    return _reconstruct(arms, [a.n for a in arms], p, meta, cfg, rng)
