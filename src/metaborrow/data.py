"""Core domain types, validation, and file I/O.

Arm-level aggregate summaries (one ArmSummary per trial arm: sample
size, outcome mean/variance, covariate means/variances) are grouped into
TrialSummary records; the meta-regression and reconstruction read them.

Subject-level data, observed in the target trial or reconstructed from
summaries, is a Dataset held column by column: arm indicators ``z``,
outcomes ``y``, the N x p covariate matrix ``X``, weights ``w``, a
target-membership flag ``is_target``, and each row's index into a tuple
of trial ids.  Every stage from reconstruction on works on these arrays.
SubjectRecord, one named tuple per row, lives only at the edges: data
built by hand (``make_dataset``), rows read back (``Dataset.subjects``)
and ``reconstruct_arm``.

Variances in input files are variances of individual observations.  A
summary file may instead carry the standard error of the arm mean in a
``y_se_mean`` column, which is converted on read via ``var = n * se**2``.
Covariate dispersion is diagonal: one variance per covariate, no
covariances.

All types are immutable values; a Dataset's arrays are read-only.
Floats are written with ``repr``, so means, outcomes, and weights
round-trip bit-for-bit; variances pass through their SD column (sqrt on
write, square on read) and may move by an ulp.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

FAMILIES = ("continuous", "binary")


@dataclass(frozen=True)
class ArmSummary:
    """Aggregate statistics of one trial arm.

    Attributes
    ----------
    trial_id : str
    arm : int
        1 = treatment, 0 = control.
    n : int
        Number of subjects in the arm.
    y_mean, y_var : float
        Mean and variance of individual outcomes.
    x_mean, x_var : tuple of float
        Per-covariate means and variances (diagonal dispersion).
    x_family : tuple of str
        Per-covariate family tag, ``continuous`` or ``binary``.

    Every mean and variance must be finite; DataError otherwise.
    """

    trial_id: str
    arm: int
    n: int
    y_mean: float
    y_var: float
    x_mean: tuple
    x_var: tuple
    x_family: tuple

    def __post_init__(self):
        if not all(map(math.isfinite, (self.y_mean, self.y_var, *self.x_mean, *self.x_var))):
            raise DataError(
                f"trial {self.trial_id!r} arm {self.arm}: summary not finite (y_mean {self.y_mean}, "
                f"y_var {self.y_var}, x_mean {self.x_mean}, x_var {self.x_var})")
        if self.arm not in (0, 1):
            raise DataError(f"trial {self.trial_id!r}: arm must be 0 or 1, got {self.arm}")
        if self.n < 0:
            raise DataError(f"trial {self.trial_id!r}: n must be nonnegative, got {self.n}")
        if self.y_var < 0:
            raise DataError(f"trial {self.trial_id!r} arm {self.arm}: negative outcome variance")
        if not (len(self.x_mean) == len(self.x_var) == len(self.x_family)):
            raise DataError(f"trial {self.trial_id!r} arm {self.arm}: covariate field lengths differ")
        for j, (v, fam, m) in enumerate(zip(self.x_var, self.x_family, self.x_mean), start=1):
            if v < 0:
                raise DataError(f"trial {self.trial_id!r} arm {self.arm}: x{j} variance negative")
            if fam not in FAMILIES:
                raise DataError(f"trial {self.trial_id!r} arm {self.arm}: unknown family {fam!r}")
            if fam == "binary" and not 0.0 <= m <= 1.0:
                raise DataError(
                    f"trial {self.trial_id!r} arm {self.arm}: binary x{j} mean {m} outside [0, 1]"
                )

    @property
    def p(self):
        return len(self.x_mean)


@dataclass(frozen=True)
class TrialSummary:
    """One trial: one or two ArmSummary records (single-arm trials allowed)."""

    trial_id: str
    arms: tuple

    def __post_init__(self):
        seen = [a.arm for a in self.arms]
        if len(set(seen)) != len(seen):
            raise DataError(f"trial {self.trial_id!r}: duplicate arm values {seen}")
        if not self.arms:
            raise DataError(f"trial {self.trial_id!r}: no arms")
        dims = {a.p for a in self.arms}
        if len(dims) > 1:
            raise DataError(f"trial {self.trial_id!r}: covariate dimension differs across arms")

    def arm(self, value):
        for a in self.arms:
            if a.arm == value:
                return a
        return None

    @property
    def p(self):
        return self.arms[0].p


def trial_dimension(trials):
    """The covariate dimension shared by ``trials`` (0 when there are none).

    Raises DataError naming the dimensions when the trials differ.
    """
    dims = {t.p for t in trials}
    if len(dims) > 1:
        raise DataError(f"covariate dimension differs across trials: {sorted(dims)}")
    return dims.pop() if dims else 0


class SubjectRecord(NamedTuple):
    """One subject row: outcome, covariates, arm, weight slot, and origin tag.

    An immutable ``typing.NamedTuple``: fields are read by name, records
    with equal fields compare equal, and ``_replace`` returns a changed
    copy.  Records are the row form used at the edges (hand-built data,
    ``Dataset.subjects``, ``reconstruct_arm``); a tuple rather than a
    frozen dataclass, because those build up to hundreds of thousands of
    rows at once and a named tuple is about three times cheaper to
    construct.
    """

    trial_id: str
    z: int
    y: float
    x: tuple
    weight: float = 1.0
    source: str = "target"  # "target" | "reconstructed"


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
        Weights: 1 until :func:`metaborrow.weights.compute_weights` sets them.
    is_target : ndarray of bool, shape (N,)
        True for rows observed in the target trial, False for
        reconstructed rows (source tags ``target`` / ``reconstructed``).
    target_id : str

    Every array is read-only.  An input array that is already read-only
    is held as it is, so datasets derived from one another share their
    unchanged columns; any other input is copied first.  Datasets compare
    by identity; compare :attr:`subjects` to compare rows.
    """

    trial_ids: tuple
    trial: np.ndarray
    z: np.ndarray
    y: np.ndarray
    X: np.ndarray
    w: np.ndarray
    is_target: np.ndarray
    target_id: str = ""

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

    @property
    def subjects(self):
        """The rows as a tuple of SubjectRecord, built anew on each access.

        For the edges: hand-built data, tests and record-level callers.
        The estimation chain reads the columns.
        """
        return tuple(_boxed(list(map(self.trial_ids.__getitem__, self.trial.tolist())),
                            self.z.tolist(), self.y, self.X.T, self.w.tolist(),
                            list(map(_SOURCES.__getitem__, self.is_target.tolist()))))


def _owned(trial_ids, trial, z, y, X, w, is_target, target_id=""):
    """A Dataset over freshly built arrays: made read-only in place, not copied."""
    arrays = (trial, z, y, X, w, is_target)
    for a in arrays:
        a.flags.writeable = False
    return Dataset(trial_ids, *arrays, target_id)


def _boxed(trial_ids, z, y, x_cols, weights, sources):
    """Box per-row iterables and NumPy columns into a list of SubjectRecord.

    ``y`` and each of ``x_cols`` (none when the dimension is 0, giving
    ``x == ()``) are converted with one ``tolist()``, so records hold plain
    Python floats, and covariate rows are zipped column-wise.
    """
    cols = [c.tolist() for c in x_cols]
    xs = zip(*cols) if cols else repeat(())
    # Records hold only numbers, strings and tuples of floats, so they form
    # no reference cycles and a collection pass during the build frees
    # nothing; at 10^5 rows those passes cost more than the build itself.
    # The collector's prior state is restored, and cyclic garbage made
    # meanwhile elsewhere is collected at its next pass.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(map(SubjectRecord, trial_ids, z, y.tolist(), xs, weights, sources))
    finally:
        if enabled:
            gc.enable()


def dataset_from_arms(arms, is_target, target_id=""):
    """Build a Dataset from per-arm draws, with unit weights.

    ``arms`` is a sequence of ``(trial_id, arm, X, y)``: ``arm`` is the
    arm indicator of all its rows, ``X`` the (n, p) covariate matrix and
    ``y`` the n outcomes.  Rows keep the order of ``arms``, and
    ``is_target`` tags them all.
    """
    arms = tuple(arms)
    if not arms:
        return make_dataset((), target_id)
    sizes = [len(y) for _, _, _, y in arms]
    index = {}
    trial = np.repeat([index.setdefault(tid, len(index)) for tid, *_ in arms], sizes)
    z = np.repeat([arm for _, arm, _, _ in arms], sizes)
    X = np.concatenate([X for _, _, X, _ in arms])
    y = np.concatenate([y for *_, y in arms])
    n = len(y)
    return _owned(tuple(index), trial, z, y, X, np.ones(n), np.full(n, bool(is_target)),
                  target_id)


def _row_columns(tids, z, y, xs, w, sources):
    """Dataset columns from per-row field sequences, plus each row's covariate count.

    The dimension p is the first row's covariate count.  A row with
    another count is put into ``X`` as zeros: callers report it from the
    counts.  Unknown source tags become ``is_target`` False; callers
    check the tags.
    """
    n = len(tids)
    p = len(xs[0]) if n else 0
    dims = np.fromiter(map(len, xs), dtype=int, count=n)
    if np.any(dims != p):
        xs = [x if len(x) == p else (0.0,) * p for x in xs]
    try:
        z = np.array(z, dtype=int).reshape(n)
    except OverflowError as exc:
        raise DataError(f"arm indicator {max(z, key=abs)} out of range; must be 0 or 1") from exc
    trial_ids = tuple(dict.fromkeys(tids))
    index = {t: i for i, t in enumerate(trial_ids)}
    cols = {
        "trial_ids": trial_ids,
        "trial": np.fromiter(map(index.__getitem__, tids), dtype=int, count=n),
        "z": z,
        "y": np.array(y, dtype=float).reshape(n),
        "X": np.array(xs, dtype=float).reshape(n, p),
        "w": np.array(w, dtype=float).reshape(n),
        "is_target": np.fromiter(map("target".__eq__, sources), dtype=bool, count=n),
    }
    return cols, dims


def _record_fields(records):
    """Transpose SubjectRecords into six per-field tuples."""
    return tuple(zip(*records)) or ((),) * len(SubjectRecord._fields)


def _pool(parts, target_id):
    filled = [d for d in parts if len(d)] or list(parts[:1])
    dims = {d.p for d in filled}
    if len(dims) > 1:
        raise DataError(f"covariate dimension differs across pooled datasets: {sorted(dims)}")
    index = {}
    trial = [np.array([index.setdefault(t, len(index)) for t in d.trial_ids], dtype=int)[d.trial]
             for d in filled]
    cat = [np.concatenate([getattr(d, name) for d in filled])
           for name in ("z", "y", "X", "w", "is_target")]
    return _owned(tuple(index), np.concatenate(trial), *cat, target_id)


def make_dataset(parts, target_id=""):
    """Build a Dataset from SubjectRecords, or pool Datasets.

    ``parts`` is a sequence of SubjectRecord, converted to columns once
    (the covariate dimension is the first record's), or a sequence of
    Dataset, whose columns are concatenated in order with one
    ``np.concatenate`` per column.  Field values are not checked (see
    :func:`validate_dataset`); DataError is raised only for what columns
    cannot hold: records of differing covariate dimension, an unknown
    source tag, or pooled datasets of differing dimension.
    """
    parts = tuple(parts)
    if parts and all(isinstance(d, Dataset) for d in parts):
        return _pool(parts, target_id)
    fields = _record_fields(parts)
    cols, dims = _row_columns(*fields)
    if np.any(dims != dims[:1]):
        raise DataError(f"records differ in covariate dimension: {sorted(set(dims.tolist()))}")
    unknown = set(fields[-1]) - set(_SOURCES)
    if unknown:
        raise DataError(f"unknown source tags {sorted(unknown)}")
    return _owned(**cols, target_id=target_id)


def _violations(trial_of, z, y, X, w, dims=None, sources=None):
    """Vectorised invariant checks over columns; violation strings in row order.

    ``trial_of(i)`` gives row i's trial id.  ``dims`` (per-row covariate
    counts) and ``sources`` (per-row tags) are checked when given; a
    Dataset's columns can hold neither a ragged row nor an unknown tag.
    """
    p = X.shape[1]
    checks = [((z != 0) & (z != 1), lambda i: f"arm indicator must be 0 or 1, got {z[i]}"),
              (~np.isfinite(y), lambda i: "outcome not finite")]
    if dims is not None:
        checks.append((dims != p,
                       lambda i: f"covariate dimension {dims[i]} != dataset dimension {p}"))
    checks += [(~np.isfinite(X).all(axis=1), lambda i: "covariate not finite"),
               (~(np.isfinite(w) & (w >= 0)),
                lambda i: "weight must be finite and nonnegative (bounded-weight condition)")]
    if sources is not None:
        known = np.fromiter((s in _SOURCES for s in sources), dtype=bool, count=len(sources))
        checks.append((~known, lambda i: f"unknown source tag {sources[i]!r}"))
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    return [f"subject {i} (trial {trial_of(i)!r}): {message(i)}"
            for i in bad.tolist() for mask, message in checks if mask[i]]


def validate_dataset(d):
    """Check every dataset invariant; return a list of violation strings.

    ``d`` is a Dataset or a sequence of SubjectRecord; records are checked
    against the covariate dimension of the first record.  Pure
    diagnostic: an empty list means the data are valid.  Each entry
    names the offending row and the invariant it breaks.
    """
    if isinstance(d, Dataset):
        return _violations(lambda i: d.trial_ids[d.trial[i]], d.z, d.y, d.X, d.w)
    fields = _record_fields(d)
    cols, dims = _row_columns(*fields)
    return _violations(fields[0].__getitem__, cols["z"], cols["y"], cols["X"], cols["w"],
                       dims, fields[-1])


# ---------------------------------------------------------------------------
# summary files


def _read_rows(path, fmt, kind):
    """Read a summary or subject file into a list of ``(label, row)`` pairs.

    A CSV row is a dict keyed by the header and labelled ``line N``, N
    being the file line the row ends on, the leading ``#`` comment lines
    (artifact stamps) counted.  Only lines ahead of the header are
    comments: a later line starting with ``#`` is data, such as a row
    whose trial id starts with ``#`` or the continuation of a quoted
    multi-line id.  A JSON file holds a list of objects, the Nth
    labelled ``object N``.  ``kind`` names the file in errors.

    Raises DataError for a missing file, an unknown format, a CSV file
    without a header, invalid JSON or JSON that is not a list, and bytes
    that are not UTF-8.
    """
    if not path.exists():
        raise DataError(f"{kind} file not found: {path}")
    fmt = _detect_format(path, fmt)
    if fmt not in ("csv", "json"):
        raise DataError(f"unknown {kind} format {fmt!r}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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


def _write_stamp(fh, stamp):
    if stamp:
        for k, v in stamp.items():
            fh.write(f"# {k}={v}\n")


def _detect_format(path, fmt):
    if fmt is not None:
        return fmt
    return "json" if str(path).endswith(".json") else "csv"


def _summary_header(p, use_se_mean=False):
    cols = ["trial_id", "arm", "n", "y_mean", "y_se_mean" if use_se_mean else "y_sd"]
    for j in range(1, p + 1):
        cols += [f"x{j}_mean", f"x{j}_sd", f"x{j}_family"]
    return cols


def _row_to_arm(row, label):
    try:
        trial_id = row["trial_id"]
        if not isinstance(trial_id, str):
            raise DataError(f"{label}: trial_id must be text, got {trial_id!r}")
        arm = int(row["arm"])
        n = int(row["n"])
        y_mean = float(row["y_mean"])
        if "y_sd" in row and row.get("y_sd") not in (None, ""):
            y_var = float(row["y_sd"]) ** 2
        elif "y_se_mean" in row and row.get("y_se_mean") not in (None, ""):
            y_var = n * float(row["y_se_mean"]) ** 2
        else:
            raise DataError(f"{label}: need one of y_sd or y_se_mean")
        x_mean, x_var, x_family = [], [], []
        j = 1
        while f"x{j}_mean" in row:
            cell = row[f"x{j}_mean"]
            if cell in (None, ""):
                break
            x_mean.append(float(cell))
            x_var.append(float(row[f"x{j}_sd"]) ** 2)
            x_family.append(row[f"x{j}_family"].strip() or "continuous")
            j += 1
    except DataError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{label}: cannot parse summary row ({exc})") from exc
    try:
        return ArmSummary(trial_id, arm, n, y_mean, y_var, tuple(x_mean), tuple(x_var),
                          tuple(x_family))
    except DataError as exc:
        raise DataError(f"{label}: {exc}") from None


def read_summaries(path, fmt=None):
    """Read arm-level summaries; return a list of TrialSummary.

    Accepts the CSV schema ``trial_id,arm,n,y_mean,y_sd|y_se_mean,
    x1_mean,x1_sd,x1_family,...`` or its JSON mirror (a list of objects
    with the same field names).  Arm rows sharing a ``trial_id`` are
    merged into one trial; duplicated (trial_id, arm) pairs are an error.
    Errors name the row by file line (CSV) or object number (JSON).
    """
    path = Path(path)
    rows = [_row_to_arm(row, label) for label, row in _read_rows(path, fmt, "summary")]
    if not rows:
        raise DataError(f"{path}: no trials")

    by_trial = {}
    order = []
    for a in rows:
        if a.trial_id not in by_trial:
            by_trial[a.trial_id] = []
            order.append(a.trial_id)
        if any(prev.arm == a.arm for prev in by_trial[a.trial_id]):
            raise DataError(f"duplicate (trial_id, arm) pair: ({a.trial_id!r}, {a.arm})")
        by_trial[a.trial_id].append(a)
    trials = [TrialSummary(tid, tuple(by_trial[tid])) for tid in order]
    trial_dimension(trials)
    return trials


def write_summaries(trials, path, fmt=None):
    """Write TrialSummary records back to CSV or JSON (y_sd convention)."""
    path = Path(path)
    fmt = _detect_format(path, fmt)
    p = trials[0].p if trials else 0
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_summary_header(p))
            for t in trials:
                for a in t.arms:
                    row = [a.trial_id, a.arm, a.n, repr(a.y_mean), repr(math.sqrt(a.y_var))]
                    for m, v, fam in zip(a.x_mean, a.x_var, a.x_family):
                        row += [repr(m), repr(math.sqrt(v)), fam]
                    writer.writerow(row)
    elif fmt == "json":
        payload = []
        for t in trials:
            for a in t.arms:
                row = {
                    "trial_id": a.trial_id,
                    "arm": a.arm,
                    "n": a.n,
                    "y_mean": a.y_mean,
                    "y_sd": math.sqrt(a.y_var),
                }
                for j, (m, v, fam) in enumerate(zip(a.x_mean, a.x_var, a.x_family), start=1):
                    row[f"x{j}_mean"] = m
                    row[f"x{j}_sd"] = math.sqrt(v)
                    row[f"x{j}_family"] = fam
                payload.append(row)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise DataError(f"unknown summary format {fmt!r}")


# ---------------------------------------------------------------------------
# subject (IPD) files


_MAX_REPORTED = 10  # violations spelled out in a read error; the rest are counted


def read_subjects(path, fmt=None, target_id=None):
    """Read subject-level rows; return a Dataset.

    Schema: ``trial_id,z,y,x1,...,xp`` with optional ``weight`` and
    ``source`` columns.  When no ``source`` column is present, rows are
    tagged target/reconstructed by comparing ``trial_id`` to ``target_id``
    (all rows are target when ``target_id`` is None).  Every invariant of
    :func:`validate_dataset` is checked; DataError lists the violations.
    """
    path = Path(path)
    raw = _read_rows(path, fmt, "subject")
    if not raw:
        raise DataError(f"{path}: no subjects")

    tids, zs, ys, xs, ws, sources = [], [], [], [], [], []
    for label, row in raw:
        try:
            if not isinstance(row["trial_id"], str):
                raise DataError(f"{label}: trial_id must be text, got {row['trial_id']!r}")
            x = []
            j = 1
            while f"x{j}" in row and row[f"x{j}"] not in (None, ""):
                x.append(float(row[f"x{j}"]))
                j += 1
            if "source" in row and row.get("source") not in (None, ""):
                source = row["source"]
            elif target_id is not None:
                source = "target" if row["trial_id"] == target_id else "reconstructed"
            else:
                source = "target"
            weight = float(row["weight"]) if row.get("weight") not in (None, "") else 1.0
            fields = (row["trial_id"], int(row["z"]), float(row["y"]), tuple(x), weight, source)
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise DataError(f"{label}: cannot parse subject row ({exc})") from exc
        for column, value in zip((tids, zs, ys, xs, ws, sources), fields):
            column.append(value)
    cols, dims = _row_columns(tids, zs, ys, xs, ws, sources)
    bad = _violations(tids.__getitem__, cols["z"], cols["y"], cols["X"], cols["w"], dims, sources)
    if bad:
        more = len(bad) - _MAX_REPORTED
        raise DataError(f"{path}: invalid subject rows: " + "; ".join(bad[:_MAX_REPORTED])
                        + (f"; and {more} more" if more > 0 else ""))
    return _owned(**cols, target_id=target_id or "")


def _csv_fields(values):
    """Each value as the default csv writer writes it inside a row of several fields.

    The csv module applies its own quoting rule; a single-field row would
    quote an empty string, so each value is written with an empty second
    field whose ``,`` and line terminator are then cut off.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[:-len(",\r\n")])
    return fields


def write_subjects(d, path, fmt=None, include_weight=True, include_source=True, stamp=None):
    """Write a Dataset to CSV or JSON, optionally with weight/source columns.

    ``stamp`` (a mapping) is written as leading ``# key=value`` comment
    lines in CSV output; the readers skip such lines.

    CSV rows are streamed through one line template rather than
    ``csv.writer.writerows``, which scans every field of every row for
    characters that need quoting.  Only trial ids can need quoting: the
    source tags are fixed, and ``str`` of a Python int or float never
    holds a delimiter, quote or line break.  So each distinct id and tag
    is quoted once, by the csv module's own rules, and rows index into
    those fields.  The bytes are the ones ``writerows`` writes, ending
    each line with its ``\\r\\n``.  Each line goes to the file as it is
    formatted; no list of lines or whole-file string is built, which
    would hold the file in memory.
    """
    path = Path(path)
    fmt = _detect_format(path, fmt)
    trial_ids, sources = d.trial_ids, _SOURCES
    if fmt == "csv":
        trial_ids, sources = _csv_fields(trial_ids), _csv_fields(sources)
    names = ["trial_id", "z", "y"] + [f"x{j}" for j in range(1, d.p + 1)]
    # tolist() gives Python ints and floats: z is written as 1, not 1.0,
    # and floats with repr, so they round-trip exactly
    columns = [list(map(trial_ids.__getitem__, d.trial.tolist())), d.z.tolist(), d.y.tolist(),
               *d.X.T.tolist()]
    if include_weight:
        names.append("weight")
        columns.append(d.w.tolist())
    if include_source:
        names.append("source")
        columns.append(list(map(sources.__getitem__, d.is_target.tolist())))
    if fmt == "csv":
        template = ",".join(["{}"] * len(columns)) + "\r\n"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            _write_stamp(fh, stamp)
            csv.writer(fh).writerow(names)
            fh.writelines(map(template.format, *columns))
    elif fmt == "json":
        payload = [dict(zip(names, row)) for row in zip(*columns)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise DataError(f"unknown subject format {fmt!r}")
