"""Core domain types, validation, and file I/O.

Arm-level aggregate summaries are one Summaries table held column by
column, one row per trial arm: the arm indicator, sample size, outcome
mean and variance, the R x p covariate means and variances, which
covariates are binary, and each row's index into a tuple of trial ids.
A trial's arms are adjacent rows and trials come in order of first
appearance.  The meta-regression and reconstruction read these columns
directly; :func:`read_summaries` builds the table from a file and
:func:`write_summaries` writes it back.

Subject-level data, observed in the target trial or reconstructed from
summaries, is a Dataset held column by column: arm indicators ``z``,
outcomes ``y``, the N x p covariate matrix ``X``, weights ``w``, a
target-membership flag ``is_target`` (the only record of which rows are
the target trial's), and each row's index into a tuple of trial ids.
Every stage from reconstruction on works on these arrays, and this
module assembles them: ``Dataset`` from columns, :func:`dataset_from_arms`
from rows stacked arm by arm, and :func:`read_subjects` from a file;
:func:`metaborrow.reconstruct.reconstruct_all` pools the target rows with
the reconstructed ones, drawn straight behind them.

Variances in input files are variances of individual observations.  A
summary file may instead carry the standard error of the arm mean in a
``y_se_mean`` column, which is converted on read via ``var = n * se**2``.
Covariate dispersion is diagonal: one variance per covariate, no
covariances.

Files are CSV, or JSON (a list of objects keyed like the CSV columns)
when the path ends in ``.json``: the suffix alone picks the format.  One
writer, :func:`_write_table`, writes both tables from named columns,
numbers as ``repr`` spells them, so means, outcomes, and weights
round-trip bit-for-bit; variances pass through their SD column (sqrt on
write, square on read) and may move by an ulp.  Both readers parse every
cell one way, for CSV and JSON alike, and refuse a row that lacks a cell.

All types are immutable values; their arrays are read-only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from itertools import chain, count, takewhile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import DataError

FAMILIES = ("continuous", "binary")  # a covariate's family tag, indexed by its binary flag

_SUMMARY_COLUMNS = (("trial", int), ("arm", int), ("n", int), ("y_mean", float),
                    ("y_var", float), ("x_mean", float), ("x_var", float), ("binary", bool))


def _summary_column(value, name, dtype):
    try:
        return _read_only(value, dtype)
    except (OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"summary column {name}: {exc}") from None


def _first_bad_arm(trial_ids, trial, arm, n, y_mean, y_var, x_mean, x_var, binary):
    """The first arm row that breaks an invariant, as ``(row, message)``; None if none does.

    Row i belongs to trial ``trial_ids[trial[i]]``; rows whose ids are
    equal count as one trial even under two indices.  A row's checks run
    in a fixed order and the first failing one names it.
    """
    first = {}
    key = np.array([first.setdefault(t, k) for k, t in enumerate(trial_ids)], dtype=int)[trial]
    arm_ok = (arm == 0) | (arm == 1)
    key = np.where(arm_ok, 2 * key + arm, -1 - np.arange(len(arm)))  # a bad arm matches nothing
    duplicate = np.ones(len(arm), dtype=bool)
    duplicate[np.unique(key, return_index=True)[1]] = False
    covariate = (x_var < 0) | (binary & ~((x_mean >= 0) & (x_mean <= 1)))
    checks = (~(np.isfinite(y_mean) & np.isfinite(y_var) & np.isfinite(x_mean).all(axis=1)
                & np.isfinite(x_var).all(axis=1)), ~arm_ok, n < 0, y_var < 0,
              covariate.any(axis=1), duplicate)
    bad = np.flatnonzero(np.logical_or.reduce(checks))
    if not len(bad):
        return None
    i = int(bad[0])
    tid, a = trial_ids[trial[i]], int(arm[i])
    j = int(covariate[i].argmax()) if covariate.shape[1] else 0
    messages = (
        lambda: (f"trial {tid!r} arm {a}: summary not finite (y_mean {y_mean[i]}, "
                 f"y_var {y_var[i]}, x_mean {tuple(x_mean[i].tolist())}, "
                 f"x_var {tuple(x_var[i].tolist())})"),
        lambda: f"trial {tid!r}: arm must be 0 or 1, got {a}",
        lambda: f"trial {tid!r}: n must be nonnegative, got {n[i]}",
        lambda: f"trial {tid!r} arm {a}: negative outcome variance",
        lambda: (f"trial {tid!r} arm {a}: x{j + 1} variance negative" if x_var[i, j] < 0 else
                 f"trial {tid!r} arm {a}: binary x{j + 1} mean {x_mean[i, j]} outside [0, 1]"),
        lambda: f"duplicate (trial_id, arm) pair: ({tid!r}, {a})",
    )
    return i, next(message() for mask, message in zip(checks, messages) if mask[i])


@dataclass(frozen=True, eq=False)
class Summaries:
    """Arm-level aggregate summaries held as columns, one row per trial arm.

    Attributes
    ----------
    trial_ids : tuple of str
        Distinct trial ids, in order of first appearance; ``trial``
        indexes into it.
    trial : ndarray of int, shape (R,)
        Each arm's position in ``trial_ids``.  A trial's arms are
        adjacent rows, and every trial has one or two (single-arm
        trials allowed).
    arm : ndarray of int, shape (R,)
        1 = treatment, 0 = control.
    n : ndarray of int, shape (R,)
        Number of subjects in the arm.
    y_mean, y_var : ndarray of float, shape (R,)
        Mean and variance of individual outcomes.
    x_mean, x_var : ndarray of float, shape (R, p)
        Per-covariate means and variances (diagonal dispersion).
    binary : ndarray of bool, shape (R, p)
        True for a binary covariate, False for a continuous one.

    Construction checks every row in one vectorised pass and raises
    DataError naming the first bad row: every mean and variance finite,
    ``arm`` 0 or 1, ``n`` and the variances nonnegative, a binary mean
    in [0, 1], and no ``(trial_id, arm)`` pair twice.  Then it checks
    the layout: distinct ids, each trial's arms adjacent, and no trial
    without arms.  The arrays are read-only, held as :class:`Dataset`
    holds its columns, and tables compare by identity.
    """

    trial_ids: tuple
    trial: np.ndarray
    arm: np.ndarray
    n: np.ndarray
    y_mean: np.ndarray
    y_var: np.ndarray
    x_mean: np.ndarray
    x_var: np.ndarray
    binary: np.ndarray

    def __post_init__(self):
        ids = tuple(self.trial_ids)
        object.__setattr__(self, "trial_ids", ids)
        for name, dtype in _SUMMARY_COLUMNS:
            object.__setattr__(self, name, _summary_column(getattr(self, name), name, dtype))
        R = len(self.arm)
        if any(getattr(self, name).shape != (R,) for name in ("trial", "n", "y_mean", "y_var")):
            raise DataError("summary columns differ in length")
        if not (self.x_mean.ndim == 2 and len(self.x_mean) == R
                and self.x_mean.shape == self.x_var.shape == self.binary.shape):
            raise DataError("covariate field lengths differ")
        if np.any((self.trial < 0) | (self.trial >= len(ids))):
            raise DataError(f"trial index outside 0..{len(ids) - 1}")
        bad = _first_bad_arm(ids, self.trial, self.arm, self.n, self.y_mean, self.y_var,
                             self.x_mean, self.x_var, self.binary)
        if bad:
            raise DataError(bad[1])
        if len(set(ids)) < len(ids):
            raise DataError(f"trial {next(t for k, t in enumerate(ids) if t in ids[:k])!r}: "
                            "arm rows not adjacent")
        # each row's trial index is its predecessor's or the next one, ending at the last id
        previous = np.concatenate(([-1], self.trial))
        step = np.diff(np.concatenate((previous, [len(ids)])))
        wrong = np.flatnonzero((step != 0) & (step != 1))
        if len(wrong):
            i = wrong[0]
            if step[i] > 1:
                raise DataError(f"trial {ids[previous[i] + 1]!r}: no arms")
            raise DataError(f"trial {ids[self.trial[i]]!r}: arm rows not adjacent")

    @property
    def p(self):
        return self.x_mean.shape[1]

    def __len__(self):
        return len(self.arm)


_SOURCES = ("reconstructed", "target")  # a row's source tag, indexed by its is_target flag

_COLUMNS = (("trial", int), ("z", int), ("y", float), ("X", float), ("w", float),
            ("is_target", bool))


def _read_only(value, dtype):
    if isinstance(value, np.ndarray) and value.dtype == dtype and not value.flags.writeable:
        return value
    # a copy: an array the caller still holds must not change under the dataset
    a = np.array(value, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Dataset:
    """Subject rows held as columns, with a fixed covariate dimension.

    Attributes
    ----------
    trial_ids : tuple of str
        Distinct trial ids; ``trial`` indexes into it.
    trial : ndarray of int, shape (N,)
        Each row's position in ``trial_ids``.
    z : ndarray of int, shape (N,)
        Arm indicator, 1 = treatment, 0 = control.
    y : ndarray of float, shape (N,)
        Outcomes.
    X : ndarray of float, shape (N, p)
        Covariates, one row per subject.
    w : ndarray of float, shape (N,)
        Weights: 1 until :func:`metaborrow.weights.fit_membership` sets them.
    is_target : ndarray of bool, shape (N,)
        True for rows observed in the target trial, False for
        reconstructed rows (source tags ``target`` / ``reconstructed``).

    Every array is read-only.  An input array that is already read-only
    is held as it is, so datasets derived from one another share their
    unchanged columns; any other input is copied first.  Datasets compare
    by identity; compare their columns to compare rows.
    """

    trial_ids: tuple
    trial: np.ndarray
    z: np.ndarray
    y: np.ndarray
    X: np.ndarray
    w: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMNS:
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        n = len(self.y)
        vectors = ("trial", "z", "y", "w", "is_target")
        if self.X.ndim != 2 or len(self.X) != n or any(
                getattr(self, name).shape != (n,) for name in vectors):
            raise DataError("dataset columns differ in length")

    @property
    def p(self):
        return self.X.shape[1]

    def __len__(self):
        return len(self.y)

    def with_weights(self, weights):
        """Copy with the weight column replaced; the other columns are shared."""
        if len(weights) != len(self):
            raise DataError("weight vector length does not match dataset")
        return replace(self, w=weights)

    def n_target(self):
        return int(np.count_nonzero(self.is_target))


def _owned(trial_ids, *arrays):
    """A Dataset over freshly built column arrays: made read-only in place, not copied."""
    for a in arrays:
        a.flags.writeable = False
    return Dataset(trial_ids, *arrays)


def dataset_from_arms(trial_ids, trial, arm, n, X, y, is_target):
    """Build a Dataset from rows stacked arm by arm, with unit weights.

    Arm k is the arm ``arm[k]`` of trial ``trial_ids[trial[k]]``: the next
    ``n[k]`` rows of the (N, p) covariate matrix ``X`` and of the N
    outcomes ``y`` belong to it and carry its indicator.  ``is_target``
    tags every row.  ``X`` and ``y`` are taken over, not copied: they are
    made read-only in place, so the caller must not write to them after.
    """
    rows = len(y)
    return _owned(tuple(trial_ids), np.repeat(trial, n), np.repeat(arm, n), y, X,
                  np.ones(rows), np.full(rows, bool(is_target)))


# ---------------------------------------------------------------------------
# summary files


def _read_rows(path, kind):
    """Read a summary or subject file into a list of ``(label, row)`` pairs.

    A CSV row is a dict keyed by the header and labelled ``line N``, N
    being the file line the row ends on, the leading ``#`` comment lines
    (artifact stamps) counted.  Only lines ahead of the header are
    comments: a later line starting with ``#`` is data, such as a row
    whose trial id starts with ``#`` or the continuation of a quoted
    multi-line id.  A JSON file holds a list of objects, the Nth
    labelled ``object N``.  ``kind`` names the file in errors.

    A leading byte-order mark is skipped.  Raises DataError for a missing file, a CSV file
    without a header, invalid JSON or JSON that is not a list, and bytes that are not UTF-8.
    """
    if not path.exists():
        raise DataError(f"{kind} file not found: {path}")
    fmt = _detect_format(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if fmt == "json":
                payload = json.load(fh)
                if not isinstance(payload, list):
                    raise DataError(f"{path}: a JSON {kind} file holds a list of objects, "
                                    f"not {type(payload).__name__}")
                return [(f"object {i}", row) for i, row in enumerate(payload, start=1)]
            comments = 0
            for header in fh:
                if not header.lstrip().startswith("#"):
                    break
                comments += 1
            else:
                raise DataError(f"{path}: empty file, no header")
            reader = csv.DictReader(chain([header], fh))
            return [(f"line {comments + reader.line_num}", row) for row in reader]
    except (UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read {fmt} {kind} file ({exc})") from exc


def _detect_format(path):
    """``json`` for a path ending in ``.json``, otherwise ``csv``."""
    return "json" if str(path).endswith(".json") else "csv"


def _number(value, name, kind=float):
    """``kind(value)``, refusing a bool, which ``int()`` and ``float()`` read as 1 or 0, and, as
    an int, a fractional number, which ``int()`` would truncate.

    A JSON number arrives as a float, ``true``/``false`` as a bool; a CSV cell as
    text, which ``int()`` rejects unless it spells an integer.
    """
    number = kind(value)
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and number != value):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}")
    return number


def _trial_id(row, label):
    """``row``'s trial id; DataError unless it is text that UTF-8 encodes.

    A JSON string can escape a lone surrogate (``"\\udcff"``), which no
    file can write and reconstruction cannot hash; a CSV file is decoded
    as strict UTF-8, so its ids never hold one.
    """
    trial_id = row["trial_id"]
    if not isinstance(trial_id, str):
        raise DataError(f"{label}: trial_id must be text, got {trial_id!r}")
    try:
        trial_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"{label}: trial_id {trial_id!r} is not UTF-8 text "
                        f"({exc.reason})") from None
    return trial_id


def _cell(row, name, kind=None, default=None):
    """Cell ``name`` of a file row, read by :func:`_number` as ``kind`` unless that is None.

    A blank cell or an absent column gives ``default`` if one is given; else an absent column
    raises KeyError.  ValueError names a cell the row lacks: a CSV row shorter than its header
    lacks its last cells, which ``csv.DictReader`` reads as None, as ``json`` reads null.
    """
    value = row[name] if default is None else row.get(name, "")
    if value is None:
        raise ValueError(f"{name}: no cell")
    if default is not None and value == "":
        return default
    return value if kind is None else _number(value, name, kind)


def _covariates(row, suffix):
    """1, 2, ... up to the first J whose cell ``xJ<suffix>`` is blank or whose column is absent."""
    return takewhile(lambda j: _cell(row, f"x{j}{suffix}", default="") != "", count(1))


def _row_to_arm(row, label):
    """A summary row's trial id, arm, n, y_mean, y_var, x means, x variances and binary flags."""
    def squared(name):  # an SD or SE, refused while a negative sign still shows
        sd = _cell(row, name, float)
        if sd < 0:
            raise DataError(f"{label}: trial {trial_id!r} arm {arm}: {name} must be nonnegative, "
                            f"got {sd}")
        return sd ** 2

    try:
        trial_id = _trial_id(row, label)
        arm, n = _cell(row, "arm", int), _cell(row, "n", int)
        if max(abs(arm), abs(n)) >= 2**63:  # the table holds them as int64
            raise OverflowError(f"arm {arm} or n {n} out of range")
        y_mean = _cell(row, "y_mean", float)
        if _cell(row, "y_sd", default="") != "":
            y_var = squared("y_sd")
        elif _cell(row, "y_se_mean", default="") != "":
            y_var = n * squared("y_se_mean")
        else:
            raise DataError(f"{label}: need one of y_sd or y_se_mean")
        x_mean, x_var, binary = [], [], []
        for j in _covariates(row, "_mean"):
            x_mean.append(_cell(row, f"x{j}_mean", float))
            x_var.append(squared(f"x{j}_sd"))
            # a blank cell, or no family column at all, is continuous
            family = _cell(row, f"x{j}_family", default="").strip() or "continuous"
            if family not in FAMILIES:
                raise DataError(f"{label}: trial {trial_id!r} arm {arm}: unknown family {family!r}")
            binary.append(family == "binary")
    except DataError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{label}: cannot parse summary row ({exc})") from exc
    return trial_id, arm, n, y_mean, y_var, x_mean, x_var, binary


def read_summaries(path):
    """Read arm-level summaries; return a Summaries table.

    Accepts the CSV schema ``trial_id,arm,n,y_mean,y_sd|y_se_mean,
    x1_mean,x1_sd,x1_family,...`` or, for a path ending in ``.json``,
    its JSON mirror (a list of objects with the same field names).  Arm
    rows sharing a ``trial_id`` form one trial, wherever they stand in
    the file: the table groups them, trials in order of first
    appearance.  Every row is checked as :class:`Summaries` checks it,
    and errors name the first bad row in file order, whatever its fault,
    by file line (CSV) or object number (JSON).
    """
    path = Path(path)
    raw = _read_rows(path, "summary")
    if not raw:
        raise DataError(f"{path}: no trials")
    labels = [label for label, _ in raw]
    arms, failure = [], None
    try:  # parse rows until one fails to parse or has another covariate count than the first
        for label, row in raw:
            arm = _row_to_arm(row, label)
            if arms and len(arm[5]) != len(arms[0][5]):
                raise DataError(f"{label}: trial {arm[0]!r} arm {arm[1]}: covariate dimension "
                                f"differs across arms: {len(arm[5])}, but {len(arms[0][5])} "
                                f"at {labels[0]}")
            arms.append(arm)
    except DataError as exc:
        failure = exc
    if arms:  # the rows above a failure pass the table's checks before it is reported
        tids, *fields = zip(*arms)
        trial_ids = tuple(dict.fromkeys(tids))
        index = {t: k for k, t in enumerate(trial_ids)}
        columns = [_summary_column(values, name, dtype) for (name, dtype), values in
                   zip(_SUMMARY_COLUMNS, [list(map(index.__getitem__, tids)), *fields])]
        bad = _first_bad_arm(trial_ids, *columns)
        if bad:
            raise DataError(f"{labels[bad[0]]}: {bad[1]}")
    if failure:
        raise failure
    order = np.argsort(columns[0], kind="stable")
    return Summaries(trial_ids, *(c[order] for c in columns))


def write_summaries(s, path):
    """Write a Summaries table to CSV or JSON by :func:`_write_table`, one row per arm, in the
    summary schema with SD columns; both formats round-trip every mean exactly."""
    columns = {"trial_id": (s.trial_ids, s.trial), "arm": s.arm, "n": s.n, "y_mean": s.y_mean,
               "y_sd": np.sqrt(s.y_var)}
    for j in range(s.p):
        columns.update({f"x{j + 1}_mean": s.x_mean[:, j], f"x{j + 1}_sd": np.sqrt(s.x_var[:, j]),
                        f"x{j + 1}_family": (FAMILIES, s.binary[:, j])})
    _write_table(columns, path)


# ---------------------------------------------------------------------------
# subject (IPD) files


_MAX_REPORTED = 10  # violations spelled out in a read error; the rest are counted


def read_subjects(path, target_id=None):
    """Read subject-level rows; return a Dataset.

    Schema: ``trial_id,z,y,x1,...,xp`` with optional ``weight`` and
    ``source`` columns, as CSV or, for a path ending in ``.json``, as a
    JSON list of objects.  When no ``source`` column is present, rows are
    tagged target/reconstructed by comparing ``trial_id`` to ``target_id``
    (all rows are target when ``target_id`` is None).  Every row is
    checked as it is parsed (arm 0 or 1, finite outcome and covariates,
    the first row's covariate count, a finite nonnegative weight, a known
    source tag), and DataError names each failed check by the row's file
    line (CSV) or object number (JSON): the first ten, then a count of the
    rest.  The columns are built once every row has passed.
    """
    path = Path(path)
    raw = _read_rows(path, "subject")
    if not raw:
        raise DataError(f"{path}: no subjects")

    p = None  # the first row's covariate count
    rows, bad = [], []
    for label, row in raw:
        try:
            trial_id = _trial_id(row, label)
            z, y = _cell(row, "z", int), _cell(row, "y", float)
            x = [_cell(row, f"x{j}", float) for j in _covariates(row, "")]
            weight = _cell(row, "weight", float, default=1.0)
            source = _cell(row, "source", default="target" if target_id in (None, trial_id)
                           else "reconstructed")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise DataError(f"{label}: cannot parse subject row ({exc})") from exc
        p = len(x) if p is None else p
        ok = (z in (0, 1), math.isfinite(y), len(x) == p, all(map(math.isfinite, x)),
              math.isfinite(weight) and weight >= 0, source in _SOURCES)
        if not all(ok):
            messages = (f"arm indicator must be 0 or 1, got {z}", "outcome not finite",
                        f"covariate dimension {len(x)} != dataset dimension {p}",
                        "covariate not finite",
                        "weight must be finite and nonnegative (bounded-weight condition)",
                        f"unknown source tag {source!r}")
            bad += [f"{label}: trial {trial_id!r}: {message}"
                    for good, message in zip(ok, messages) if not good]
        rows.append((trial_id, z, y, x, weight, source == "target"))
    if bad:
        more = len(bad) - _MAX_REPORTED
        raise DataError(f"{path}: invalid subject rows: " + "; ".join(bad[:_MAX_REPORTED])
                        + (f"; and {more} more" if more > 0 else ""))
    tids, zs, ys, xs, ws, flags = zip(*rows)
    trial_ids = tuple(dict.fromkeys(tids))
    index = {t: i for i, t in enumerate(trial_ids)}
    return _owned(trial_ids, np.fromiter(map(index.__getitem__, tids), dtype=int, count=len(rows)),
                  np.array(zs, dtype=int), np.array(ys, dtype=float),
                  np.array(xs, dtype=float).reshape(len(rows), p), np.array(ws, dtype=float),
                  np.array(flags, dtype=bool))


def _reprs(values):
    """``list(map(repr, values.tolist()))`` for any 1-D int or float array, strided views
    included, from one compiled ``orjson.dumps`` call that reads the array itself.

    orjson writes an int as ``repr`` does and a float with the same shortest round-trip
    digits; only the layout differs where ``repr`` turns to an exponent or a name: nan and
    the infinities (``null``), and nonzero floats below 1e-4 (``0.00001`` for ``1e-05``) or
    from 1e16 on (``1e16`` for ``1e+16``).  Those entries are formatted again with ``repr``.
    """
    # imported on first use: the import costs 6-8 ms and 0.5-0.7 MB, and a simulation
    # replication never writes a subject CSV
    import orjson

    # orjson refuses an array that is not C-contiguous, such as a column of a 2-D block
    text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    out = text[1:-1].decode().split(",") if len(values) else []
    if values.dtype.kind == "f":
        a = np.abs(values)
        for k in np.flatnonzero(~(a < 1e16) | ((a < 1e-4) & (a != 0))).tolist():
            out[k] = repr(float(values[k]))
    return out


# rows _write_table formats and writes at a time: a block's per-value strings are live
# together, and the weighted.csv write is the memory peak of a run_pipeline call (0.29 MB
# traced on the bundled case study)
_BLOCK_ROWS = 256


def _lines(columns, end):
    """Equal-length columns of fields as text: a row's fields joined by commas, each row ended
    by ``end``; one slice assignment per column and one join, no call per row."""
    m, n = 2 * len(columns), len(columns[0])
    pieces = [","] * (m * n)
    for k, column in enumerate(columns):
        pieces[2 * k::m] = column
    pieces[m - 1::m] = [end] * n
    return "".join(pieces)


def _write_table(columns, path, stamp=None):
    """Write named columns as a table: JSON for a path ending in ``.json``, any other CSV.

    ``columns`` maps each name, in order, to a 1-D int or float array or to a categorical
    pair ``(labels, codes)``, whose row k holds ``labels[codes[k]]``.  JSON is a list of
    one object per row, by ``json.dump`` with ``indent=2``.  CSV is ``stamp``'s items as
    ``# key=value`` lines, which the readers skip, then the bytes ``csv.writer.writerows``
    writes, built without its scan of every field for characters to quote: only a label can
    need quoting, since ``repr`` of an int or float holds no delimiter, quote or line break,
    so each distinct label is quoted once by the csv module and rows index into those
    fields.  Each block of 256 rows makes every numeric column ``repr`` text by one
    :func:`_reprs` call (floats round-trip exactly), interleaves the columns by
    :func:`_lines` and is written with one ``write``: no Python call runs per row.
    """
    path = Path(path)
    csv_out = _detect_format(path) == "csv"

    def written(labels):  # as a CSV field beside an empty one, since a lone "" is quoted
        # writerow returns what it writes; the writer's 128 KB row buffer is freed on return
        row_text = csv.writer(SimpleNamespace(write=str)).writerow
        return np.array([row_text((v, ""))[:-len(",\r\n")] for v in labels] if csv_out
                        else labels, dtype=object)

    # per column: its values or codes, and None or its labels as written
    pairs = [(c[1], written(c[0])) if isinstance(c, tuple) else (c, None) for c in columns.values()]

    def cells(rows, numbers):  # each column's cells in ``rows``; ``numbers`` formats values
        return [numbers(a[rows]) if texts is None else texts.take(a[rows]).tolist()
                for a, texts in pairs]

    if not csv_out:  # tolist() gives Python ints and floats: an int is written as 1, not 1.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(columns, row))
                       for row in zip(*cells(slice(None), np.ndarray.tolist))], fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"# {k}={v}\n" for k, v in (stamp or {}).items())
        csv.writer(fh).writerow(columns)
        for i in range(0, len(pairs[0][0]), _BLOCK_ROWS):
            fh.write(_lines(cells(slice(i, i + _BLOCK_ROWS), _reprs), "\r\n"))


def write_subjects(d, path, include_weight=True, stamp=None):
    """Write a Dataset to CSV or JSON by :func:`_write_table`: columns ``trial_id, z, y,
    x1..xp``, ``weight`` unless ``include_weight`` is false, and ``source``; a CSV file
    starts with the mapping ``stamp``'s items as ``# key=value`` lines."""
    columns = {"trial_id": (d.trial_ids, d.trial), "z": d.z, "y": d.y,
               **{f"x{j + 1}": d.X[:, j] for j in range(d.p)}}
    if include_weight:
        columns["weight"] = d.w
    columns["source"] = (_SOURCES, d.is_target)
    _write_table(columns, path, stamp)
