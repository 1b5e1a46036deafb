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
clamped to ``ERROR_FLOOR * y_var``, never silently:
:func:`clamped_arms` returns one unraised :class:`ClampWarning` per
clamped arm, from the same residual-variance rule, and the library's
edges (``run_pipeline``, the CLI ``reconstruct`` command) warn with
them.

The meta fit must have one of the two column layouts that
:func:`metaborrow.meta.design_columns` gives for the trials' covariate
count p; any other fit is a DataError, so a fit made on fewer
covariates is never read as a zero slope on the rest.

Randomness is drawn from per-arm substreams keyed by (seed, crc32 of
trial id, arm), so results do not depend on trial order and an arm has
the same rows alone, as a one-row table, as among others.

Each arm's generator is ``Generator(PCG64(SeedSequence(key)))``, seeded
in two steps.  numpy mixes each key into its 4-word entropy pool
(``SeedSequence(key).pool``), and the output hash that
``SeedSequence.generate_state(4, np.uint64)`` applies to the pools is
copied here as three uint32 array operations over all arms at once; a
private seed sequence then hands each arm's four words to ``PCG64``.
The hash is the per-arm cost worth batching: numpy runs it as a Python
loop, about 2.3 us of the 4.3 us that seeding an arm took (numpy 2.4,
one AMD EPYC core), and batched seeding of 60 arms takes about half the
time.  The pool mixing is left to numpy: batching it too saved about
50 us more at 60 arms but cost about 35 us whatever the arm count, so
a five-arm replication got slower.

All borrowed arms are reconstructed in one pass over arrays: the arms
are rows of a :class:`metaborrow.data.Summaries` table, so the loads,
residual variances and clamp tests of all arms are one array operation.
A single loop over the arms then only draws, from each arm's substream,
each covariate's standard normals (continuous) or uniforms (binary) and
then the outcome noise, into one ``(p + 1, N)`` buffer whose row slices
are the arms.  Location and scale are applied to whole columns
afterwards: ``x_mean + sqrt(x_var) * z`` and ``mean + sd * z`` are what
``Generator.normal`` computes element by element, so every value is the
one a per-arm ``normal`` call draws, written behind a head's rows if given.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .data import Dataset, _owned
from .errors import ConfigError, DataError, check_int
from .meta import design_columns

BORROW_MODES = ("both_arms", "control_only")
ERROR_FLOOR = 1e-8  # lower bound on a residual variance, relative to the arm's y_var
# SeedSequence.generate_state's hash constants: word i of the output state is
# pool[i % 4] ^ _HASH[i], times _HASH[i + 1], xor'd with itself shifted right 16
_HASH = np.array(list(accumulate(range(8), lambda h, _: h * 0x58F38DED & 0xFFFFFFFF,
                                 initial=0x8B51F9DD)), dtype=np.uint32)


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
        Nonnegative; keys the per-arm substreams (ConfigError when it is
        negative, a bool or not an int).
    borrow : str
        ``both_arms`` reconstructs every arm; ``control_only`` skips
        treatment arms.
    """

    rng_seed: int
    borrow: str = "both_arms"

    def __post_init__(self):
        check_int("rng_seed", self.rng_seed, 0)
        if self.borrow not in BORROW_MODES:
            raise ConfigError(f"borrow must be one of {BORROW_MODES}, got {self.borrow!r}")


def _seed_words(seed):
    """``seed`` as the uint32 words, least significant first, that SeedSequence hashes."""
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return words


def _arm_keys(seed, s, rows):
    """One uint32 row per arm ``rows`` of ``s``: the words of (seed, crc32 of trial id, arm).

    ``SeedSequence(row)`` hashes exactly the words ``SeedSequence((seed,
    tag, arm))`` converts its tuple to, so each arm's substream is the
    one that tuple keys; building all rows at once skips that per-arm
    conversion.
    """
    words = _seed_words(seed)
    keys = np.empty((len(rows), len(words) + 2), dtype=np.uint32)
    keys[:, :-2] = words
    tags = np.array([zlib.crc32(t.encode("utf-8")) for t in s.trial_ids], dtype=np.uint32)
    keys[:, -2] = tags[s.trial[rows]]
    keys[:, -1] = s.arm[rows]
    return keys


def _pcg64_words(keys):
    """Row k: ``SeedSequence(keys[k]).generate_state(4, np.uint64)``, all rows hashed at once.

    numpy mixes each key into its pool; the 8-word output hash runs here
    on the (R, 8) array of pools, each repeated as ``generate_state``
    cycles it, and numpy's own little-endian pairing of uint32 words
    into uint64 ones makes each row the four C-contiguous words.
    """
    state = np.tile(np.array([SeedSequence(key).pool for key in keys], dtype=np.uint32)
                    .reshape(len(keys), 4), 2)
    state ^= _HASH[:-1]
    state *= _HASH[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence that gives ``PCG64`` one row of :func:`_pcg64_words`, as its own
    ``SeedSequence`` would; ValueError for any other request."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words are 4 uint64, not {n_words} {np.dtype(dtype)}")
        return self.words


def _draw_covariates(rng, binary, out):
    """Fill row j of ``out`` with covariate j's raw draws, in covariate order.

    Uniforms on [0, 1) for a covariate flagged ``binary``, standard
    normals otherwise; :func:`_covariates` turns them into values.
    """
    for row, is_binary in zip(out, binary):
        if is_binary:
            rng.random(out=row)
        else:
            rng.standard_normal(out=row)


def _covariates(raw, s, rows, sizes):
    """The (p, N) covariate values of the (p, N) raw draws of arms ``rows`` of ``s``.

    Arm k owns the next ``sizes[k]`` columns of ``raw``.  A continuous
    value is ``x_mean + sqrt(x_var) * z``, a binary one ``u < x_mean``.
    """
    def per_row(column):
        return np.repeat(column[rows].T, sizes, axis=1)

    mean = per_row(s.x_mean)
    x = mean + np.sqrt(per_row(s.x_var)) * raw
    np.copyto(x, raw < mean, where=per_row(s.binary))
    return x


def _arms(s, meta, cfg):
    """The arms ``cfg`` borrows from ``s``: (rows, loads, residual variances, floors).

    Nonempty arms are borrowed, treated ones only under ``both_arms``.
    An arm's load is its total slope per covariate, the arm-interaction
    slopes added for a treated arm; an arm whose residual variance is
    below its floor is clamped to it.  Raises DataError unless the fit's
    columns are one of the two layouts
    :func:`metaborrow.meta.design_columns` gives for the table's p.
    """
    p = s.p
    layouts = dict.fromkeys((design_columns(p), design_columns(p, True)))
    if tuple(meta.columns) not in layouts:
        raise DataError(f"meta fit columns ({', '.join(meta.columns)}) do not match the meta "
                        f"design for p = {p}: "
                        + " or ".join(f"({', '.join(cols)})" for cols in layouts))
    control = meta.beta[2:2 + p]
    treated = control + meta.beta[2 + p:] if len(meta.columns) > 2 + p else control
    rows = np.flatnonzero((s.n > 0) & ((s.arm == 0) | (cfg.borrow != "control_only")))
    loads = np.where(s.arm[rows][:, None] == 1, treated, control)
    y_var = s.y_var[rows]
    return rows, loads, y_var - (loads**2 * s.x_var[rows]).sum(axis=1), ERROR_FLOOR * y_var


def reconstruct_all(s, meta, cfg, head=None):
    """Reconstruct every borrowed arm of Summaries ``s``; returns a Dataset.

    The rows are tagged reconstructed and carry unit weights.  Treatment
    arms are skipped when ``cfg.borrow == "control_only"``, and empty
    arms always.  Rows follow the table's row order.  Each arm draws
    from its own substream keyed by (seed, trial_id, arm), so its values
    do not depend on trial order.  A clamped arm is drawn at its floor
    without a warning; :func:`clamped_arms` names it.

    A Dataset ``head`` comes first, its rows unchanged, and the borrowed
    rows are drawn straight behind them; trial ids are the head's, then
    the table's, each kept at its first appearance.

    Raises ConfigError when ``head``'s covariate dimension is not the
    table's, and DataError when the meta fit's columns are not a layout
    for it (see :func:`metaborrow.meta.design_columns`).
    """
    p = s.p
    head = Dataset((), [], [], [], np.empty((0, p)), [], []) if head is None else head
    if head.p != p:
        raise ConfigError(f"target covariate dimension {head.p} differs from summaries {p}")
    rows, loads, s2, floor = _arms(s, meta, cfg)
    arm_of, sizes = s.arm[rows], s.n[rows]
    sd = np.sqrt(np.where(s2 < floor, floor, s2))

    bounds = list(accumulate(sizes.tolist(), initial=0))
    raw = np.empty((p + 1, bounds[-1]))
    words = _pcg64_words(_arm_keys(cfg.rng_seed, s, rows))
    for binary, seed, lo, hi in zip(s.binary[rows].tolist(), words, bounds, bounds[1:]):
        rng = Generator(PCG64(_SeedWords(seed)))
        _draw_covariates(rng, binary, raw[:p, lo:hi])
        rng.standard_normal(out=raw[p, lo:hi])

    m, N = len(head), len(head) + bounds[-1]
    X, y = np.concatenate((head.X, _covariates(raw[:p], s, rows, sizes).T)), np.empty(N)
    y[:m] = head.y
    # one BLAS product per arm keeps an arm's values independent of the
    # arms around it: at p > 1, a product over several arms' rows can round
    # a row differently in the last bit, and so can a sum of column products
    for load, lo, hi in zip(loads, bounds, bounds[1:]):
        np.dot(X[m + lo:m + hi], load, out=y[m + lo:m + hi])
    y[m:] += np.repeat(meta.beta[0] + meta.beta[1] * arm_of, sizes)
    y[m:] += np.repeat(sd, sizes) * raw[p]

    index = {}
    head_trial, tail_trial = (np.array([index.setdefault(t, len(index)) for t in ids], dtype=int)
                              for ids in (head.trial_ids, s.trial_ids))
    return _owned(tuple(index), np.concatenate((head_trial[head.trial],
                                                np.repeat(tail_trial[s.trial[rows]], sizes))),
                  np.concatenate((head.z, np.repeat(arm_of, sizes))), y, X,
                  np.concatenate((head.w, np.ones(N - m))),
                  np.concatenate((head.is_target, np.zeros(N - m, dtype=bool))))


def clamped_arms(s, meta, cfg):
    """The arms :func:`reconstruct_all` draws at the residual-variance floor.

    One unraised :class:`ClampWarning` per clamped arm, in table row
    order, for the caller to count, report or ``warnings.warn``.  Raises
    DataError as :func:`reconstruct_all` does.
    """
    rows, _, s2, floor = _arms(s, meta, cfg)
    clamps = []
    for k in np.flatnonzero(s2 < floor).tolist():
        trial_id, arm = s.trial_ids[s.trial[rows[k]]], int(s.arm[rows[k]])
        clamps.append(ClampWarning(
            f"trial {trial_id!r} arm {arm}: residual variance "
            f"{s2[k]:.6g} below floor; clamped to {floor[k]:.6g} "
            "(covariate slopes explain more variance than the arm reports)",
            trial_id, arm,
        ))
    return tuple(clamps)
