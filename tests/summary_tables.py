"""Build and compare Summaries tables, and pool Datasets, in tests.

Tests describe arms one at a time with :func:`arm_row` and stack them
with :func:`table`; :func:`take` and :func:`concat` select, reorder and
join the rows of tables, and :func:`assert_same` compares two tables
bit for bit.  :func:`pool` joins the rows of Datasets.
"""

import numpy as np

from metaborrow.data import Dataset, Summaries

FIELDS = ("arm", "n", "y_mean", "y_var", "x_mean", "x_var", "binary")


def arm_row(trial_id="t1", arm=1, n=50, y_mean=2.0, y_var=5.0, x_mean=(1.0,), x_var=(2.0,),
            binary=None):
    """One arm's fields; ``binary`` flags the covariates and defaults to all continuous."""
    return {"trial_id": trial_id, "arm": arm, "n": n, "y_mean": y_mean, "y_var": y_var,
            "x_mean": tuple(x_mean), "x_var": tuple(x_var),
            "binary": (False,) * len(x_mean) if binary is None else tuple(binary)}


def table(*arms):
    """The Summaries table of ``arms``, grouped by trial id in order of first appearance."""
    ids = tuple(dict.fromkeys(a["trial_id"] for a in arms))
    rows = sorted(arms, key=lambda a: ids.index(a["trial_id"]))
    shape = (len(rows), len(rows[0]["x_mean"]) if rows else 0)
    columns = [[a[name] for a in rows] for name in FIELDS]
    return Summaries(ids, [ids.index(a["trial_id"]) for a in rows], *columns[:4],
                     *(np.reshape(np.array(c, dtype=float if name != "binary" else bool), shape)
                       for name, c in zip(FIELDS[4:], columns[4:])))


def take(s, rows):
    """The table of rows ``rows`` of ``s`` in that order; a trial's rows must stay adjacent."""
    rows = np.asarray(rows, dtype=int)
    row_ids = [s.trial_ids[t] for t in s.trial[rows].tolist()]
    ids = tuple(dict.fromkeys(row_ids))
    return Summaries(ids, [ids.index(t) for t in row_ids],
                     *(getattr(s, name)[rows] for name in FIELDS))


def concat(tables):
    """One table holding the rows of ``tables`` one after another."""
    offsets = np.cumsum([0] + [len(s.trial_ids) for s in tables])
    return Summaries(sum((s.trial_ids for s in tables), ()),
                     np.concatenate([s.trial + k for s, k in zip(tables, offsets)]),
                     *(np.concatenate([getattr(s, name) for s in tables]) for name in FIELDS))


def pool(parts):
    """One Dataset holding the rows of ``parts`` one after another, equal trial ids merged."""
    index = {}
    trial = [np.array([index.setdefault(t, len(index)) for t in d.trial_ids], dtype=int)[d.trial]
             for d in parts]
    return Dataset(tuple(index), np.concatenate(trial),
                   *(np.concatenate([getattr(d, c) for d in parts])
                     for c in ("z", "y", "X", "w", "is_target")))


def assert_same(a, b):
    """Tables ``a`` and ``b`` hold the same ids and, bit for bit, the same columns."""
    assert a.trial_ids == b.trial_ids
    for name in ("trial",) + FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
