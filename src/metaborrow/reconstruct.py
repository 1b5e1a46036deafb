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

The meta fit must have one of the two column layouts that
:func:`metaborrow.meta.design_columns` gives for the trials' covariate
count p; any other fit is a DataError, so a fit made on fewer
covariates is never read as a zero slope on the rest.

Randomness is drawn from per-arm substreams keyed by (seed, crc32 of
trial id, arm), so results do not depend on trial order and arms can be
reconstructed in parallel.  The keys of all arms are built once per call
as one uint32 matrix, a row per arm holding the words of the seed, the
tag and the arm; ``SeedSequence(row)`` hashes exactly the words that
``SeedSequence((seed, tag, arm))`` converts its tuple to, so each arm's
stream is the one the tuple keys.

All borrowed arms are reconstructed in one pass over arrays.  The meta
fit's layout is checked once, and two slices of its coefficients give
one load vector for control arms and one for treated arms (main slopes
plus arm-interaction slopes); the residual variances and clamp tests
of all arms are one array operation.  A single loop over the arms then
only draws: from each arm's substream (the key above, unchanged), or
from one shared generator in (trial, arm) order, each covariate's
standard normals (continuous) or uniforms (binary) and then the outcome
noise, into one ``(p + 1, N)`` buffer whose row slices are the arms.
The location and scale are applied to whole columns afterwards:
``x_mean + sqrt(x_var) * z`` and ``mean + sd * z`` are what
``Generator.normal`` computes element by element, so every value is the
one a per-arm ``normal`` call draws.  Only the covariate term of the
mean, ``X @ load``, is one product per arm.  The stacked ``X`` and ``y``
become a Dataset through :func:`metaborrow.data.dataset_from_arms`,
without a copy.  ``reconstruct_arm`` and ``sample_covariates`` run the
same pass on one arm, so an arm drawn from its substream has the same
rows alone as among others.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .data import dataset_from_arms, trial_dimension
from .errors import ConfigError, DataError
from .meta import design_columns

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
        Nonnegative; keys the per-arm substreams (ConfigError when negative).
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


def _seed_words(seed):
    """``seed`` as the uint32 words, least significant first, that SeedSequence hashes."""
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"rng_seed must be nonnegative, got {seed}")
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return words


def _arm_keys(seed, arms):
    """One uint32 row per arm: the words of (seed, crc32 of trial id, arm).

    ``SeedSequence(row)`` hashes exactly the words ``SeedSequence((seed,
    tag, arm))`` converts its tuple to, so each arm's substream is the
    one that tuple keys; building all rows at once skips that per-arm
    conversion.
    """
    words = _seed_words(seed)
    keys = np.empty((len(arms), len(words) + 2), dtype=np.uint32)
    keys[:, :-2] = words
    tags = {}
    keys[:, -2] = [tags.setdefault(a.trial_id, zlib.crc32(str(a.trial_id).encode("utf-8")))
                   for a in arms]
    keys[:, -1] = [a.arm for a in arms]
    return keys


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


def sample_covariates(arm, n, rng):
    """Draw an (n, p) covariate matrix matching the arm's reported moments.

    Continuous covariates are Normal(x_mean, x_var); binary covariates
    are Bernoulli(x_mean).  Distinct covariates are independent.
    """
    _require_subjects(arm, n)
    raw = np.empty((arm.p, n))
    _draw_covariates(rng, arm, raw)
    return _covariates(raw, [arm], [n])


def _loads(meta, p):
    """Total slope per covariate: (control arm, treated arm) vectors of length p.

    Raises DataError unless the fit's columns are one of the two layouts
    :func:`metaborrow.meta.design_columns` gives for ``p`` covariates.
    """
    layouts = dict.fromkeys((design_columns(p), design_columns(p, True)))
    if tuple(meta.columns) not in layouts:
        raise DataError(f"meta fit columns ({', '.join(meta.columns)}) do not match the meta "
                        f"design for p = {p}: "
                        + " or ".join(f"({', '.join(cols)})" for cols in layouts))
    control = meta.beta[2:2 + p]
    treated = control + meta.beta[2 + p:] if len(meta.columns) > 2 + p else control
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
    keys = _arm_keys(cfg.rng_seed, arms) if rng is None else [None] * len(arms)
    for a, key, lo, hi in zip(arms, keys, bounds, bounds[1:]):
        arm_rng = rng if key is None else Generator(PCG64(SeedSequence(key)))
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

    return dataset_from_arms([(a.trial_id, a.arm, n) for a, n in zip(arms, sizes)], X, y,
                             is_target=False)


def reconstruct_arm(arm, meta, cfg, rng=None, n_override=None):
    """Reconstruct one arm; returns a Dataset of its rows, tagged reconstructed.

    The pass of :func:`reconstruct_all` on this arm alone: at ``arm.n``
    rows from the arm's substream, the rows are the ones
    ``reconstruct_all`` gives it, with unit weights, and a clamped
    residual variance warns the same ClampWarning.

    Parameters
    ----------
    arm : ArmSummary
    meta : MetaFit
        Its columns must be :func:`metaborrow.meta.design_columns` for
        ``arm.p`` covariates, with or without the interaction columns.
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
    return _reconstruct([arm], [n], arm.p, meta, cfg, rng)


def reconstruct_all(trials, meta, cfg, rng=None):
    """Reconstruct every borrowed arm across trials; returns a Dataset.

    The rows are tagged reconstructed and carry unit weights.  Treatment
    arms are skipped when ``cfg.borrow == "control_only"``, and empty
    arms always.  Rows follow (trial, arm) input order.  Each arm draws
    from its own substream keyed by (seed, trial_id, arm), so its values
    do not depend on trial order; when ``rng`` is given, every arm draws
    from that one stream instead, in input order.

    Raises DataError when the trials differ in covariate dimension or
    the meta fit's columns are not a layout for their covariate count
    (see :func:`metaborrow.meta.design_columns`).
    """
    p = trial_dimension(trials)
    arms = [a for t in trials for a in t.arms
            if a.n > 0 and not (cfg.borrow == "control_only" and a.arm == 1)]
    return _reconstruct(arms, [a.n for a in arms], p, meta, cfg, rng)
