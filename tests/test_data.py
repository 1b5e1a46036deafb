"""Schema, validation, and file round-trips for the data layer."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summary_tables import arm_row, assert_same, pool, table, take

from metaborrow.data import (_BLOCK_ROWS, Dataset, Summaries, dataset_from_arms, read_subjects,
                             read_summaries, write_subjects, write_summaries)
from metaborrow.errors import DataError
from metaborrow.meta import MetaFit, design_columns
from metaborrow.reconstruct import ReconstructionConfig, reconstruct_all


def arm(trial_id="t1", arm_val=1, n=40, y_mean=1.5, y_var=2.0,
        x_mean=(0.3,), x_var=(1.1,), binary=None):
    """A one-arm table."""
    return table(arm_row(trial_id, arm_val, n, y_mean, y_var, x_mean, x_var, binary))


def one_row(trial_id="t", z=1, y=0.5, x=(0.1,)):
    """A Dataset of one target row with unit weight."""
    return Dataset((trial_id,), [0], [z], [y], [x], [1.0], [True])


def assert_same_rows(a, b):
    """Datasets ``a`` and ``b`` hold the same rows: per-row trial ids, then every column."""
    assert [a.trial_ids[i] for i in a.trial] == [b.trial_ids[i] for i in b.trial]
    for name in ("z", "y", "X", "w", "is_target"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def two_arm_trial(tid="t1", p=1):
    # variances are exact squares so the SD column round-trips exactly
    return [arm_row(tid, 1, 40, 2.5, 4.0, (0.3,) * p, (2.25,) * p),
            arm_row(tid, 0, 35, 1.0, 1.0, (0.2,) * p, (0.25,) * p)]


def summary_csv(tmp_path, *rows, header="trial_id,arm,n,y_mean,y_sd,x1_mean,x1_sd,x1_family"):
    path = tmp_path / "s.csv"
    path.write_text("\n".join((header,) + rows) + "\n")
    return path


# ---------------------------------------------------------------- validation

def test_arm_summary_rejects_bad_arm_value():
    with pytest.raises(DataError, match="^trial 't1': arm must be 0 or 1, got 2$"):
        arm(arm_val=2)


def test_arm_summary_rejects_negative_fields():
    with pytest.raises(DataError, match="n must be nonnegative"):
        arm(n=-1)
    with pytest.raises(DataError, match="negative outcome variance"):
        arm(y_var=-0.5)
    with pytest.raises(DataError, match="x1 variance negative"):
        arm(x_var=(-1.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["y_mean", "y_var", "x_mean", "x_var"])
def test_arm_summary_rejects_non_finite_statistics(field, bad):
    value = (bad,) if field.startswith("x") else bad
    with pytest.raises(DataError, match="summary not finite"):
        arm(**{field: value})


def test_arm_summary_rejects_mismatched_covariate_lengths():
    with pytest.raises(DataError, match="lengths differ"):
        Summaries(("t1",), [0], [1], [40], [1.5], [2.0], [[0.1, 0.2]], [[1.0]], [[False]])


def test_arm_summary_rejects_unknown_family_and_bad_binary_mean(tmp_path):
    path = summary_csv(tmp_path, "t1,1,25,2.0,1.0,0.0,1.0,continuous",
                       "t1,0,25,1.0,1.0,0.0,1.0,poisson")
    with pytest.raises(DataError, match="^line 3: trial 't1' arm 0: unknown family 'poisson'$"):
        read_summaries(path)
    with pytest.raises(DataError, match="binary x1 mean 1.4 outside \\[0, 1\\]"):
        arm(x_mean=(1.4,), binary=(True,))
    # the first bad row is named, and within it the first failing check
    with pytest.raises(DataError, match="^trial 't2' arm 0: x2 variance negative$"):
        table(arm_row("t1", x_mean=(0.5, 2.0), x_var=(1.0, 1.0), binary=(True, False)),
              arm_row("t2", 0, x_mean=(0.5, 2.0), x_var=(1.0, -1.0), binary=(False, True)),
              arm_row("t3", y_var=-1.0, x_mean=(0.5, 2.0), x_var=(1.0, 1.0)))


def test_trial_summary_rejects_duplicate_arms():
    a = arm_row(arm=1)
    with pytest.raises(DataError, match=r"^duplicate \(trial_id, arm\) pair: \('t1', 1\)$"):
        table(a, a)


def test_summaries_reject_a_trial_arm_pair_anywhere_twice():
    # two trials given the same id are one trial: a second (A, 1) row is a
    # duplicate wherever it stands, and the id's rows must be adjacent
    columns = ([1, 0, 1, 0], [30] * 4, [1.0, 0.0, 2.0, 0.5], [1.0] * 4,
               np.zeros((4, 1)), np.ones((4, 1)), np.zeros((4, 1), bool))
    with pytest.raises(DataError, match=r"^duplicate \(trial_id, arm\) pair: \('A', 1\)$"):
        Summaries(("A", "A"), [0, 0, 1, 1], *columns)
    with pytest.raises(DataError, match=r"^duplicate \(trial_id, arm\) pair: \('A', 1\)$"):
        Summaries(("A", "B", "A"), [0, 0, 1, 2], [1, 0, 0, 1], *columns[1:])
    with pytest.raises(DataError, match="^trial 'A': arm rows not adjacent$"):
        Summaries(("A", "B", "A"), [0, 1, 1, 2], [1, 1, 0, 0], *columns[1:])
    with pytest.raises(DataError, match="^trial 'A': arm rows not adjacent$"):
        Summaries(("A", "B"), [0, 1, 1, 0], [1, 1, 0, 0], *columns[1:])


def test_trial_summary_rejects_empty_and_mixed_dimensions(tmp_path):
    with pytest.raises(DataError, match="^trial 't2': no arms$"):
        Summaries(("t1", "t2"), [0, 0], [1, 0], [5, 5], [1.0, 0.0], [1.0, 1.0],
                  np.zeros((2, 0)), np.zeros((2, 0)), np.zeros((2, 0), bool))
    path = summary_csv(tmp_path, "t1,1,25,2.0,1.0,0.0,1.0,continuous,0.5,1.0,binary",
                       "t1,0,25,1.0,1.0,0.0,1.0,continuous,,,",
                       header="trial_id,arm,n,y_mean,y_sd,x1_mean,x1_sd,x1_family,"
                              "x2_mean,x2_sd,x2_family")
    with pytest.raises(DataError, match="^line 3: trial 't1' arm 0: covariate dimension "
                                        "differs across arms: 1, but 2 at line 2$"):
        read_summaries(path)


def test_trial_arm_accessor():
    s = table(*two_arm_trial("t1"), *two_arm_trial("t2"))
    # one row per arm; the trial and arm columns locate each one
    assert (len(s), s.p, s.trial_ids) == (4, 1, ("t1", "t2"))
    assert s.trial.tolist() == [0, 0, 1, 1] and s.arm.tolist() == [1, 0, 1, 0]
    assert s.y_mean[(s.trial == s.trial_ids.index("t2")) & (s.arm == 0)].tolist() == [1.0]
    assert not np.any(s.arm == 9)
    for name in ("trial", "arm", "n", "y_mean", "y_var", "x_mean", "x_var", "binary"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[:1] = 0


def test_dataset_with_weights_checks_length():
    d = one_row()
    with pytest.raises(DataError, match="length"):
        d.with_weights([1.0, 2.0])
    d2 = d.with_weights([3.0])
    assert d2.w.tolist() == [3.0]
    assert d.w.tolist() == [1.0]  # original untouched


COLUMNS = ("trial", "z", "y", "X", "w", "is_target")
finite = st.floats(allow_nan=False, allow_infinity=False)


def test_dataset_columns_are_read_only(tmp_path):
    d = subjects()
    write_subjects(d, tmp_path / "subj.csv")
    fit = MetaFit(np.zeros(4), np.eye(4), 0.0, 0.0, 1, design_columns(2))
    pooled = reconstruct_all(arm("s", 0, 3, x_mean=(0.0, 1.0), x_var=(1.0, 1.0)), fit,
                             ReconstructionConfig(rng_seed=1), head=d)
    built = (d, d.with_weights([2.0] * 4), pooled,
             read_subjects(tmp_path / "subj.csv", target_id="tgt"),
             dataset_from_arms(("a",), [0], [1], [3], np.zeros((3, 2)), np.ones(3),
                               is_target=False))
    for ds in built:
        for name in COLUMNS:
            col = getattr(ds, name)
            assert not col.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                col[:1] = col[:1]
    # an array handed to the constructor is copied, so its owner cannot change the dataset
    y = np.arange(4.0)
    own = Dataset(d.trial_ids, d.trial, d.z, y, d.X, d.w, d.is_target)
    y[0] = 9.0
    assert own.y[0] == 0.0 and y.flags.writeable
    # the arm assembler takes the stacked arrays over: read-only in place, not copied
    X, y = np.zeros((3, 2)), np.ones(3)
    taken = dataset_from_arms(("a", "b"), [0, 1], [1, 0], [2, 1], X, y, is_target=True)
    assert taken.X is X and taken.y is y and not y.flags.writeable
    assert taken.trial.tolist() == [0, 0, 1] and taken.z.tolist() == [1, 1, 0]
    assert taken.w.tolist() == [1.0] * 3 and taken.n_target() == 3


def test_with_weights_swaps_only_the_weight_column():
    d = subjects()
    before = d.w.copy()
    w = np.array([0.5, 1.5, 2.5, 3.5])
    d2 = d.with_weights(w)
    w[0] = 99.0
    assert np.array_equal(d.w, before)
    assert d2.w.tolist() == [0.5, 1.5, 2.5, 3.5]
    for name in ("trial", "z", "y", "X", "is_target"):
        assert getattr(d2, name) is getattr(d, name)


def test_read_subjects_reports_each_violation(tmp_path):
    # one violation per row: bad arm, non-finite y, non-finite x, negative weight
    path = tmp_path / "bad.csv"
    path.write_text("trial_id,z,y,x1,x2,weight\n"
                    "t,2,0.0,0.1,0.2,1.0\n"
                    "t,1,nan,0.1,0.2,1.0\n"
                    "t,0,0.0,inf,0.2,1.0\n"
                    "t,0,0.0,0.1,0.2,-1.0\n")
    with pytest.raises(DataError) as exc_info:
        read_subjects(path)
    message = str(exc_info.value)
    needles = ("arm indicator", "outcome not finite", "covariate not finite",
               "weight must be finite")
    for i, needle in enumerate(needles):
        assert f"line {i + 2}: trial 't': {needle}" in message
    assert message.count("trial 't':") == 4
    write_subjects(one_row(), path)
    assert_same_rows(read_subjects(path), one_row())


# ------------------------------------------------------------- summary files

def test_summaries_roundtrip_csv_and_json(tmp_path):
    s = table(*two_arm_trial("t1"), *two_arm_trial("t2"))
    for name in ("s.csv", "s.json"):
        path = tmp_path / name
        write_summaries(s, path)
        assert_same(read_summaries(path), s)


def test_summaries_roundtrip_precision(tmp_path):
    s = table(arm_row("t1", 1, 7, 1 / 3, 2 / 7, (0.1 + 0.2,), (1 / 9,)),
              arm_row("t1", 0, 9, -1 / 3, 3 / 7, (-0.3,), (2 / 9,)))
    path = tmp_path / "s.csv"
    write_summaries(s, path)
    back = read_summaries(path)
    # means round-trip exactly; variances pass through the SD column
    assert back.y_mean[0] == 1 / 3
    assert back.x_mean[0].tolist() == [0.1 + 0.2]
    assert back.y_var[0] == pytest.approx(2 / 7, rel=1e-15)
    assert back.x_var[1, 0] == pytest.approx(2 / 9, rel=1e-15)


def test_summaries_accept_se_of_mean_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "trial_id,arm,n,y_mean,y_se_mean,x1_mean,x1_sd,x1_family\n"
        "t1,1,25,2.0,0.4,0.0,1.0,continuous\n"
        "t1,0,25,1.0,0.4,0.0,1.0,continuous\n"
    )
    s = read_summaries(path)
    assert s.arm[0] == 1 and s.y_var[0] == pytest.approx(25 * 0.4**2)


def test_summaries_reject_duplicate_trial_arm_pair(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "trial_id,arm,n,y_mean,y_sd,x1_mean,x1_sd,x1_family\n"
        "t1,1,25,2.0,1.0,0.0,1.0,continuous\n"
        "t1,1,30,1.0,1.0,0.0,1.0,continuous\n"
    )
    with pytest.raises(DataError, match=r"^line 3: duplicate \(trial_id, arm\) pair: "
                                        r"\('t1', 1\)$"):
        read_summaries(path)


def test_summaries_skip_comment_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "# config_hash=abc123\n"
        "# seed=7\n"
        "trial_id,arm,n,y_mean,y_sd,x1_mean,x1_sd,x1_family\n"
        "t1,1,25,2.0,1.0,0.0,1.0,continuous\n"
        "t1,0,25,1.0,1.0,0.0,1.0,continuous\n"
    )
    assert read_summaries(path).trial_ids == ("t1",)


def test_summaries_errors_on_missing_empty_or_malformed(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_summaries(tmp_path / "absent.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_summaries(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("trial_id,arm,n,y_mean,y_sd,x1_mean,x1_sd,x1_family\n")
    with pytest.raises(DataError, match="no trials"):
        read_summaries(header_only)
    bad = tmp_path / "bad.csv"
    bad.write_text("trial_id,arm,n,y_mean,y_sd\nt1,one,25,2.0,1.0\n")
    with pytest.raises(DataError, match="line 2"):
        read_summaries(bad)
    bad.write_text("trial_id,arm,n,y_mean,y_sd\nt1,1,25,2.0,1.0\n"
                   "t1,0,99999999999999999999,1.0,1.0\n")
    with pytest.raises(DataError, match="^line 3: cannot parse summary row .*out of range"):
        read_summaries(bad)


def test_csv_errors_name_the_file_line(tmp_path):
    # the stamp lines and a blank line count: the bad row is line 5
    stamped = tmp_path / "stamped.csv"
    stamped.write_text("# config_hash=abc123\n# seed=7\n"
                       "trial_id,arm,n,y_mean,y_sd\n"
                       "\n"
                       "t1,1,25,nan,1.0\n")
    with pytest.raises(DataError, match="^line 5: trial 't1' arm 1: summary not finite"):
        read_summaries(stamped)
    subjects_csv = tmp_path / "subjects.csv"
    subjects_csv.write_text("# seed=7\ntrial_id,z,y\nt,1,1.0\nt,0,abc\n")
    with pytest.raises(DataError, match="^line 4: cannot parse subject row"):
        read_subjects(subjects_csv)


def test_json_errors_name_the_object(tmp_path):
    summaries = tmp_path / "s.json"
    summaries.write_text(json.dumps(
        [{"trial_id": "t1", "arm": 1, "n": 25, "y_mean": 2.0, "y_sd": 1.0},
         {"trial_id": "t1", "arm": 0, "n": 25, "y_mean": math.nan, "y_sd": 1.0}], indent=2))
    with pytest.raises(DataError, match="^object 2: trial 't1' arm 0: summary not finite"):
        read_summaries(summaries)
    subjects_json = tmp_path / "subj.json"
    subjects_json.write_text(json.dumps([{"trial_id": "t", "z": 1, "y": 1.0},
                                         {"trial_id": "t", "z": 0, "y": "abc"}]))
    with pytest.raises(DataError, match="^object 2: cannot parse subject row"):
        read_subjects(subjects_json)


@pytest.mark.parametrize("field, value", [("arm", 1.7), ("arm", 0.2), ("n", 40.9), ("n", -0.5)])
def test_json_summaries_reject_fractional_integers(tmp_path, field, value):
    rows = [{"trial_id": "A", "arm": 1, "n": 40, "y_mean": 2.0, "y_sd": 1.0},
            {"trial_id": "A", "arm": 0, "n": 40, "y_mean": 1.0, "y_sd": 1.0}]
    integral = rows[1][field]
    rows[1][field] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(DataError, match=rf"^object 2: cannot parse summary row \({field} must "
                                        rf"be an integer, got {value}\)$"):
        read_summaries(path)
    rows[1][field] = float(integral)  # an integral float is the integer it spells
    path.write_text(json.dumps(rows))
    s = read_summaries(path)
    assert (s.arm.tolist(), s.n.tolist()) == ([1, 0], [40, 40])


def test_json_subjects_reject_a_fractional_arm_indicator(tmp_path):
    path = tmp_path / "subj.json"
    path.write_text(json.dumps([{"trial_id": "t", "z": 1, "y": 1.0},
                                {"trial_id": "t", "z": 0.6, "y": 1.0}]))
    with pytest.raises(DataError, match=r"^object 2: cannot parse subject row \(z must be an "
                                        r"integer, got 0.6\)$"):
        read_subjects(path)


@pytest.mark.parametrize("read", [read_summaries, read_subjects])
def test_json_trial_id_with_a_lone_surrogate_is_refused(tmp_path, read):
    # json reads the escape "\udcff" as a lone surrogate, which UTF-8 cannot encode:
    # reconstruction could not hash such an id, nor a writer write it
    rows = [{"trial_id": "A", "arm": arm, "n": 40, "y_mean": 1.0 + arm, "y_sd": 1.0,
             "z": arm, "y": 1.0} for arm in (1, 0)]
    rows[1]["trial_id"] = "\udcffbad"
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    assert "\\udcffbad" in path.read_text()
    with pytest.raises(DataError, match=r"^object 2: trial_id '\\udcffbad' is not UTF-8 text "
                                        r"\(surrogates not allowed\)$"):
        read(path)


@pytest.mark.parametrize("kind, field, value", [("summaries", "arm", False),
                                                ("summaries", "n", True),
                                                ("subjects", "z", True),
                                                ("summaries", "y_mean", True),
                                                ("summaries", "y_sd", True),
                                                ("summaries", "y_se_mean", False),
                                                ("summaries", "x1_mean", True),
                                                ("summaries", "x1_sd", False),
                                                ("subjects", "y", True),
                                                ("subjects", "x1", False),
                                                ("subjects", "weight", True)])
def test_json_booleans_are_not_integers(tmp_path, kind, field, value):
    # nor any other number: float() would read them as 1.0 and 0.0
    if kind == "summaries":
        rows = [{"trial_id": "A", "arm": arm, "n": 40, "y_mean": 1.0 + arm, "y_sd": 1.0,
                 "x1_mean": 0.0, "x1_sd": 1.0, "x1_family": "continuous"} for arm in (1, 0)]
        if field == "y_se_mean":
            del rows[1]["y_sd"]
        read = read_summaries
    else:
        rows = [{"trial_id": "t", "z": z, "y": 1.0, "x1": 0.5, "weight": 1.0} for z in (1, 0)]
        read = read_subjects
    rows[1][field] = value
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(rows))
    kind_of = "an integer" if field in ("arm", "n", "z") else "a number"
    with pytest.raises(DataError, match=rf"^object 2: cannot parse \w+ row \({field} must be "
                                        rf"{kind_of}, got {value}\)$"):
        read(path)


MALFORMED_FILES = {
    "invalid.json": b"[{",
    "number.json": b"5",
    "object.json": b'{"trial_id": "t1"}',
    "listed_id.json": b'[{"trial_id": ["t1"], "arm": 1, "n": 5, "y_mean": 1, "y_sd": 1, '
                      b'"z": 1, "y": 1}]',
    "latin1.csv": b"trial_id,arm,n,y_mean,y_sd\nM\xfcller,1,5,1.0,1.0\n",
    "latin1.json": b'[{"trial_id": "M\xfcller"}]',
}


@pytest.mark.parametrize("name", MALFORMED_FILES)
@pytest.mark.parametrize("reader", [read_summaries, read_subjects])
def test_malformed_files_are_data_errors(tmp_path, reader, name):
    path = tmp_path / name
    path.write_bytes(MALFORMED_FILES[name])
    with pytest.raises(DataError):
        reader(path)


def test_summaries_reject_mixed_dimension_across_trials(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "trial_id,arm,n,y_mean,y_sd,x1_mean,x1_sd,x1_family,x2_mean,x2_sd,x2_family\n"
        "t1,1,25,2.0,1.0,0.0,1.0,continuous,0.5,1.0,continuous\n"
        "t1,0,25,1.0,1.0,0.0,1.0,continuous,0.5,1.0,continuous\n"
        "t2,1,25,2.0,1.0,0.0,1.0,continuous,,,\n"
        "t2,0,25,1.0,1.0,0.0,1.0,continuous,,,\n"
    )
    with pytest.raises(DataError, match="dimension differs"):
        read_summaries(path)


# ------------------------------------------------------------- subject files

def subjects():
    return Dataset(("tgt", "src"), [0, 0, 1, 1], [1, 0, 1, 0], [2.5, 1.0, 3.5, -0.5],
                   [(0.1, -0.4), (0.7, 0.2), (1.1, 0.0), (0.9, -1.2)], [1.0, 1.0, 2.5, 0.5],
                   [True, True, False, False])


def test_subjects_roundtrip_csv_and_json(tmp_path):
    d = subjects()
    for name in ("subj.csv", "subj.json"):
        path = tmp_path / name
        write_subjects(d, path)
        back = read_subjects(path, target_id="tgt")
        assert_same_rows(back, d)
        assert back.p == 2


def test_subjects_source_inferred_from_target_id(tmp_path):
    d = subjects()
    path = tmp_path / "subj.csv"
    writerows_csv(d, path, include_weight=True, include_source=False, stamp=None)
    back = read_subjects(path, target_id="tgt")
    assert back.is_target.tolist() == [True, True, False, False]
    # without a target id, everything is target
    all_target = read_subjects(path)
    assert all_target.is_target.all()


def test_subjects_weight_column_optional(tmp_path):
    d = subjects()
    path = tmp_path / "subj.csv"
    write_subjects(d, path, include_weight=False)
    back = read_subjects(path, target_id="tgt")
    assert np.all(back.w == 1.0)


def test_subjects_stamp_comment_roundtrip(tmp_path):
    d = subjects()
    path = tmp_path / "subj.csv"
    write_subjects(d, path, stamp={"config_hash": "deadbeef", "seed": 7})
    text = path.read_text()
    assert text.startswith("# config_hash=deadbeef\n# seed=7\n")
    assert_same_rows(read_subjects(path, target_id="tgt"), d)


def test_subjects_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_subjects(tmp_path / "absent.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("trial_id,z,y,x1\nt,1,notanumber,0.0\n")
    with pytest.raises(DataError, match="line 2"):
        read_subjects(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("trial_id,z,y,x1,x2\nt,1,1.0,0.1,0.2\nt,0,1.0,0.3,\n")
    with pytest.raises(DataError, match="dimension"):
        read_subjects(ragged)


def test_read_subjects_reports_every_invalid_row(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("trial_id,z,y,x1,weight,source\n"
                   "t,2,1.0,0.1,1.0,target\n"
                   "t,1,nan,0.1,1.0,target\n"
                   "t,0,1.0,inf,1.0,target\n"
                   "t,0,1.0,0.1,-1.0,target\n"
                   "t,1,1.0,0.1,1.0,bogus\n"
                   "t,0,1.0,0.1,1.0,target\n"
                   "t,0,1.0,,1.0,target\n")
    with pytest.raises(DataError) as exc_info:
        read_subjects(bad)
    message = str(exc_info.value)
    for needle in ("line 2: trial 't': arm indicator must be 0 or 1, got 2",
                   "line 3: trial 't': outcome not finite",
                   "line 4: trial 't': covariate not finite",
                   "line 5: trial 't': weight must be finite",
                   "line 6: trial 't': unknown source tag 'bogus'",
                   "line 8: trial 't': covariate dimension 0 != dataset dimension 1"):
        assert needle in message
    assert "line 7" not in message
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps([
        {"trial_id": "t", "z": 1, "y": 1.0, "x1": 0.1, "weight": 1.0, "source": "target"},
        {"trial_id": "t", "z": 0, "y": 1.0, "x1": "", "weight": 1.0, "source": "target"}]))
    with pytest.raises(DataError, match=r"object 2: trial 't': covariate dimension 0 != "
                                        r"dataset dimension 1$"):
        read_subjects(ragged)
    huge = tmp_path / "huge.csv"
    huge.write_text("trial_id,z,y,x1\nt,99999999999999999999,1.0,0.1\n")
    with pytest.raises(DataError, match="line 2: trial 't': arm indicator must be 0 or 1, "
                                        "got 99999999999999999999$"):
        read_subjects(huge)


def test_read_subjects_names_rows_by_file_label(tmp_path):
    # two stamp lines, so the header is line 3; line 5 breaks two checks
    stamped = tmp_path / "stamped.csv"
    stamped.write_text("# config_hash=abc\n# seed=7\ntrial_id,z,y,x1\n"
                       "t,1,1.0,0.1\nt,2,nan,0.1\nt,0,1.0,0.1\n")
    with pytest.raises(DataError) as exc_info:
        read_subjects(stamped)
    assert str(exc_info.value) == (
        f"{stamped}: invalid subject rows: "
        "line 5: trial 't': arm indicator must be 0 or 1, got 2; "
        "line 5: trial 't': outcome not finite")
    objects = tmp_path / "rows.json"
    objects.write_text(json.dumps([{"trial_id": "t", "z": 1, "y": 1.0, "weight": 1.0},
                                   {"trial_id": "u", "z": 0, "y": 1.0, "weight": -2.0}]))
    with pytest.raises(DataError, match=r"invalid subject rows: object 2: trial 'u': weight "
                                        r"must be finite and nonnegative \(bounded-weight "
                                        r"condition\)$"):
        read_subjects(objects)
    # twelve bad rows: ten are named, two counted
    many = tmp_path / "many.csv"
    many.write_text("trial_id,z,y\n" + "t,2,1.0\n" * 12)
    with pytest.raises(DataError) as exc_info:
        read_subjects(many)
    message = str(exc_info.value)
    assert message.endswith("line 11: trial 't': arm indicator must be 0 or 1, got 2; "
                            "and 2 more")
    assert message.count("arm indicator") == 10 and "line 12" not in message


# ---------------------------------------------------------------- CSV writer bytes

def writerows_csv(d, path, include_weight, include_source, stamp):
    """The reference writer: one ``csv.writer.writerows`` call over the columns."""
    names = ["trial_id", "z", "y"] + [f"x{j}" for j in range(1, d.p + 1)]
    columns = [[d.trial_ids[i] for i in d.trial.tolist()], d.z.tolist(), d.y.tolist(),
               *d.X.T.tolist()]
    if include_weight:
        names.append("weight")
        columns.append(d.w.tolist())
    if include_source:
        names.append("source")
        columns.append(["target" if t else "reconstructed" for t in d.is_target.tolist()])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for k, v in (stamp or {}).items():
            fh.write(f"# {k}={v}\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*columns))


# ids the csv module must quote or keep as they are: delimiter, quote, line
# breaks, surrounding spaces, non-ASCII text, the empty string, comment marks
AWKWARD_IDS = ("tgt", "a,b", 'say "hi"', "two\nlines", "cr\r", "crlf\r\n", " padded ",
               "Müller 2004", "", "#1", "a\n#b", '"')
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3)
awkward_ids = st.sampled_from(AWKWARD_IDS) | st.text()
edge_floats = st.sampled_from(EDGE_FLOATS) | st.floats()


@st.composite
def awkward_datasets(draw, values, p=None):
    if p is None:
        p = draw(st.sampled_from((0, 1, 3)))
    n = draw(st.integers(0, 12))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    ids = column(awkward_ids)
    trial_ids = tuple(dict.fromkeys(ids))
    return Dataset(trial_ids, [trial_ids.index(t) for t in ids], column(st.integers(0, 1)),
                   column(values), np.reshape(column(st.tuples(*[values] * p)), (n, p)),
                   column(values), column(st.booleans()))


@settings(deadline=None)  # a wall-clock limit per example would flake on a busy machine
@given(awkward_datasets(edge_floats), st.booleans(),
       st.sampled_from((None, {}, {"config_hash": "deadbeef", "seed": 7})))
def test_csv_writer_matches_writerows_bytes(tmp_path_factory, d, include_weight, stamp):
    out = tmp_path_factory.mktemp("csv")
    write_subjects(d, out / "fast.csv", include_weight=include_weight, stamp=stamp)
    writerows_csv(d, out / "ref.csv", include_weight, include_source=True, stamp=stamp)
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


@settings(deadline=None)  # a wall-clock limit per example would flake on a busy machine
@given(awkward_datasets(edge_floats).flatmap(
           lambda a: st.tuples(st.just(a), awkward_datasets(edge_floats, p=a.p))),
       st.booleans())
def test_known_text_writes_the_bytes_of_a_fresh_write(tmp_path_factory, parts, include_weight):
    a, b = parts
    d = pool(parts)
    out = tmp_path_factory.mktemp("known")
    kw = dict(include_weight=include_weight, stamp={"seed": 7})
    known = write_subjects(b, out / "tail.csv", include_weight=False)
    texts = write_subjects(d, out / "reuse.csv", known=known, **kw)
    fresh = write_subjects(d, out / "fresh.csv", **kw)
    assert (out / "reuse.csv").read_bytes() == (out / "fresh.csv").read_bytes()
    assert "\n".join(texts) == "\n".join(fresh)  # the same rows' text, blocked differently
    # known text for one row more than the dataset holds is refused before the file is opened
    with pytest.raises(ValueError, match=f"covers {len(d) + 1} rows; the dataset has {len(d)}"):
        write_subjects(d, out / "refused.csv", known=fresh + ["0,1.0"], **kw)
    assert not (out / "refused.csv").exists()


@settings(deadline=None)
@given(awkward_datasets(finite).filter(len))
def test_csv_round_trips_finite_rows(tmp_path_factory, d):
    d = d.with_weights(np.abs(d.w))  # read_subjects accepts only nonnegative weights
    path = tmp_path_factory.mktemp("csv") / "subj.csv"
    write_subjects(d, path, stamp={"seed": 1})
    assert_same_rows(read_subjects(path, target_id="tgt"), d)


def seam_dataset(p, finite=False):
    """Two blocks and three rows: ids cycle through AWKWARD_IDS, each float column through
    EDGE_FLOATS (only the finite ones, z in {0, 1} and weights nonnegative when ``finite``)."""
    n = 2 * _BLOCK_ROWS + 3
    floats = [v for v in EDGE_FLOATS if math.isfinite(v) or not finite]
    cycle = np.resize(floats, n + p + 1)  # column k starts k values in
    y, *x, w = (cycle[k:k + n] for k in range(p + 2))
    return Dataset(AWKWARD_IDS, np.arange(n) % len(AWKWARD_IDS),
                   np.resize((0, 1) if finite else (0, 1, 2, -1), n), y,
                   np.reshape(np.transpose(x), (n, p)), np.abs(w) if finite else w,
                   np.arange(n) % 3 == 0)


def rows_from(d, start):
    """``d``'s rows from ``start`` on."""
    return Dataset(d.trial_ids, d.trial[start:], d.z[start:], d.y[start:], d.X[start:],
                   d.w[start:], d.is_target[start:])


@pytest.mark.parametrize("include_weight", [True, False])
@pytest.mark.parametrize("p", [0, 3])
def test_csv_writer_bytes_across_block_seams(tmp_path, p, include_weight):
    d = seam_dataset(p)
    kw = dict(include_weight=include_weight, stamp={"seed": 7})
    fresh = write_subjects(d, tmp_path / "fresh.csv", **kw)
    writerows_csv(d, tmp_path / "ref.csv", include_weight, include_source=True, stamp={"seed": 7})
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # known text whose rows begin 5 rows before the first seam: one short fresh block, then
    # two known blocks, each crossing a seam of the fresh write
    head = _BLOCK_ROWS - 5
    known = write_subjects(rows_from(d, head), tmp_path / "tail.csv", include_weight=False)
    texts = write_subjects(d, tmp_path / "reuse.csv", known=known, **kw)
    assert len(known) == 2 and len(texts) == 3
    assert (tmp_path / "reuse.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert "\n".join(texts) == "\n".join(fresh)


@pytest.mark.parametrize("p", [0, 3])
def test_csv_and_json_twins_read_back_bit_for_bit(tmp_path, p):
    d = seam_dataset(p, finite=True)
    twins = [tmp_path / "subj.csv", tmp_path / "subj.json"]
    for path in twins:
        write_subjects(d, path)
        back = read_subjects(path)
        assert back.trial_ids == d.trial_ids
        for name in ("trial", "z", "y", "X", "w", "is_target"):
            assert getattr(back, name).tobytes() == getattr(d, name).tobytes(), name
    # a CSV cell is parsed by float() itself; a JSON value is also refused as a bool or,
    # for z, as a fractional number
    header = twins[0].read_text(encoding="utf-8").split("\n")[0]
    twins[0].write_text(f"{header}\nt,1,abc\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"^line 2: cannot parse subject row \(could not convert "
                                        r"string to float: 'abc'\)$"):
        read_subjects(twins[0])
    objects = json.loads(twins[1].read_text(encoding="utf-8"))
    for field, value, message in (("y", True, "y must be a number, got True"),
                                  ("z", 1.5, "z must be an integer, got 1.5")):
        twins[1].write_text(json.dumps(objects[:1] + [{**objects[1], field: value}]))
        with pytest.raises(DataError, match=rf"^object 2: cannot parse subject row "
                                            rf"\({message}\)$"):
            read_subjects(twins[1])


# ------------------------------------------------------------- summary round trip

# no subnormals: their square root squared loses relative precision
variances = st.floats(0.0, 1e300, allow_subnormal=False)


@st.composite
def summary_tables(draw):
    """A valid table: p in {0, 1, 3}, mixed families, single-arm trials, awkward ids."""
    p = draw(st.sampled_from((0, 1, 3)))
    rows = []
    for tid in draw(st.lists(awkward_ids, min_size=1, max_size=5, unique=True)):
        for armv in draw(st.sampled_from(((1,), (0,), (1, 0), (0, 1)))):
            binary = draw(st.lists(st.booleans(), min_size=p, max_size=p))
            rows.append(arm_row(tid, armv, draw(st.integers(0, 10**6)), draw(finite),
                                draw(variances),
                                [draw(st.floats(0.0, 1.0) if b else finite) for b in binary],
                                [draw(variances) for _ in binary], binary))
    return table(*rows)


def _reorder_file(path, order):
    """Rewrite a summary file with its data rows in ``order``."""
    if path.suffix == ".json":
        objects = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps([objects[i] for i in order]), encoding="utf-8")
        return
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + [rows[i] for i in order])


@settings(deadline=None)  # a wall-clock limit per example would flake on a busy machine
@given(summary_tables(), st.sampled_from(("s.csv", "s.json")), st.data())
def test_summaries_round_trip_any_table(tmp_path_factory, s, name, data):
    path = tmp_path_factory.mktemp("summaries") / name
    write_summaries(s, path)
    # a file may list one trial's arms apart: they come back grouped, in
    # order of the trials' first appearance
    order = data.draw(st.permutations(range(len(s))))
    _reorder_file(path, order)
    first = {}
    for i in order:
        first.setdefault(s.trial[i], len(first))
    want = take(s, sorted(order, key=lambda i: first[s.trial[i]]))
    back = read_summaries(path)
    assert back.trial_ids == want.trial_ids
    for column in ("trial", "arm", "n", "y_mean", "x_mean", "binary"):
        got, expected = getattr(back, column), getattr(want, column)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), column
    # variances pass through the SD column
    for column in ("y_var", "x_var"):
        np.testing.assert_allclose(getattr(back, column), getattr(want, column), rtol=1e-15,
                                   atol=0.0)
