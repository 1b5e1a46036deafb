"""Schema, validation, and file round-trips for the data layer."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaborrow.data import (ArmSummary, Dataset, SubjectRecord, TrialSummary,
                             dataset_from_arms, make_dataset, read_subjects,
                             read_summaries, validate_dataset, write_subjects,
                             write_summaries)
from metaborrow.errors import DataError


def arm(trial_id="t1", arm_val=1, n=40, y_mean=1.5, y_var=2.0,
        x_mean=(0.3,), x_var=(1.1,), x_family=("continuous",)):
    return ArmSummary(trial_id, arm_val, n, y_mean, y_var, x_mean, x_var, x_family)


def two_arm_trial(tid="t1", p=1):
    # variances are exact squares so the SD column round-trips exactly
    a1 = arm(tid, 1, 40, 2.5, 4.0, (0.3,) * p, (2.25,) * p, ("continuous",) * p)
    a0 = arm(tid, 0, 35, 1.0, 1.0, (0.2,) * p, (0.25,) * p, ("continuous",) * p)
    return TrialSummary(tid, (a1, a0))


# ---------------------------------------------------------------- validation

def test_arm_summary_rejects_bad_arm_value():
    with pytest.raises(DataError, match="arm must be 0 or 1"):
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
        arm(x_mean=(0.1, 0.2), x_var=(1.0,), x_family=("continuous",))


def test_arm_summary_rejects_unknown_family_and_bad_binary_mean():
    with pytest.raises(DataError, match="unknown family"):
        arm(x_family=("poisson",))
    with pytest.raises(DataError, match="outside \\[0, 1\\]"):
        arm(x_mean=(1.4,), x_family=("binary",))


def test_trial_summary_rejects_duplicate_arms():
    a = arm(arm_val=1)
    with pytest.raises(DataError, match="duplicate arm"):
        TrialSummary("t1", (a, a))


def test_trial_summary_rejects_empty_and_mixed_dimensions():
    with pytest.raises(DataError, match="no arms"):
        TrialSummary("t1", ())
    a1 = arm(arm_val=1)
    a0 = arm(arm_val=0, x_mean=(0.1, 0.2), x_var=(1.0, 1.0),
             x_family=("continuous", "continuous"))
    with pytest.raises(DataError, match="dimension differs"):
        TrialSummary("t1", (a1, a0))


def test_trial_arm_accessor():
    t = two_arm_trial()
    assert t.arm(1).y_mean == 2.5
    assert t.arm(0).y_mean == 1.0
    assert t.arm(9) is None
    assert t.p == 1


def test_dataset_with_weights_checks_length():
    d = make_dataset([SubjectRecord("t", 1, 0.5, (0.1,))])
    with pytest.raises(DataError, match="length"):
        d.with_weights([1.0, 2.0])
    d2 = d.with_weights([3.0])
    assert d2.subjects[0].weight == 3.0
    assert d.subjects[0].weight == 1.0  # original untouched


def test_subject_record_is_an_immutable_value():
    s = SubjectRecord("t", 1, 0.5, (0.1, 0.2), 1.0, "reconstructed")
    with pytest.raises(AttributeError):
        s.weight = 2.0
    assert s == SubjectRecord("t", 1, 0.5, (0.1, 0.2), source="reconstructed")
    assert s != SubjectRecord("t", 0, 0.5, (0.1, 0.2), source="reconstructed")
    (w,) = make_dataset([s]).with_weights([2.5]).subjects
    assert w.weight == 2.5
    assert (w.trial_id, w.z, w.y, w.x, w.source) == (s.trial_id, s.z, s.y, s.x, s.source)


COLUMNS = ("trial", "z", "y", "X", "w", "is_target")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def record_lists(draw):
    p = draw(st.sampled_from((0, 1, 3)))
    record = st.builds(
        SubjectRecord, trial_id=st.sampled_from(("tgt", "s1", "s2")) | st.text(max_size=4),
        z=st.integers(0, 1), y=finite, x=st.tuples(*[finite] * p), weight=finite,
        source=st.sampled_from(("target", "reconstructed")))
    return draw(st.lists(record, max_size=25))


@settings(deadline=None)  # a wall-clock limit per example would flake on a busy machine
@given(record_lists())
def test_records_round_trip_through_columns(records):
    d = make_dataset(records, target_id="tgt")
    assert d.subjects == tuple(records)
    assert all(type(s.z) is int and type(s.y) is float for s in d.subjects)
    assert d.n_target() == sum(s.source == "target" for s in records)


def test_dataset_columns_are_read_only(tmp_path):
    d = subjects()
    write_subjects(d, tmp_path / "subj.csv")
    built = (d, d.with_weights([2.0] * 4), make_dataset((d, d)),
             read_subjects(tmp_path / "subj.csv", target_id="tgt"),
             dataset_from_arms([("a", 1, np.zeros((3, 2)), np.ones(3))], is_target=False))
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


def test_pooling_concatenates_rows_in_order():
    d = subjects()
    src = make_dataset([SubjectRecord("src", 0, 7.0, (1.0, 2.0), 1.0, "reconstructed"),
                        SubjectRecord("new", 1, 8.0, (3.0, 4.0), 1.0, "reconstructed")])
    pooled = make_dataset((d, make_dataset(()), src), target_id="tgt")
    assert pooled.subjects == d.subjects + src.subjects
    assert pooled.trial_ids == ("tgt", "src", "new")
    assert pooled.target_id == "tgt" and pooled.n_target() == 2
    with pytest.raises(DataError, match="dimension differs"):
        make_dataset((d, make_dataset([SubjectRecord("s", 0, 1.0, (1.0,))])))
    with pytest.raises(DataError, match="differ in covariate dimension"):
        make_dataset([SubjectRecord("s", 0, 1.0, (1.0,)), SubjectRecord("s", 0, 1.0, ())])


def test_validate_dataset_reports_each_violation():
    subs = (
        SubjectRecord("t", 2, 0.0, (0.1, 0.2)),               # bad arm
        SubjectRecord("t", 1, math.nan, (0.1, 0.2)),          # non-finite y
        SubjectRecord("t", 0, 0.0, (0.1,)),                   # wrong dimension
        SubjectRecord("t", 0, 0.0, (math.inf, 0.2)),          # non-finite x
        SubjectRecord("t", 0, 0.0, (0.1, 0.2), weight=-1.0),  # negative weight
        SubjectRecord("t", 0, 0.0, (0.1, 0.2), source="bogus"),
    )
    violations = validate_dataset(subs)
    assert len(violations) == 6
    for needle in ("arm indicator", "outcome not finite", "dimension",
                   "covariate not finite", "weight", "source"):
        assert any(needle in v for v in violations)
    assert validate_dataset(make_dataset([SubjectRecord("t", 1, 0.5, (0.1,))])) == []


# ------------------------------------------------------------- summary files

def test_summaries_roundtrip_csv_and_json(tmp_path):
    trials = [two_arm_trial("t1"), two_arm_trial("t2")]
    for name in ("s.csv", "s.json"):
        path = tmp_path / name
        write_summaries(trials, path)
        assert read_summaries(path) == trials


def test_summaries_roundtrip_precision(tmp_path):
    t = TrialSummary("t1", (
        arm("t1", 1, 7, 1 / 3, 2 / 7, (0.1 + 0.2,), (1 / 9,), ("continuous",)),
        arm("t1", 0, 9, -1 / 3, 3 / 7, (-0.3,), (2 / 9,), ("continuous",)),
    ))
    path = tmp_path / "s.csv"
    write_summaries([t], path)
    back = read_summaries(path)[0]
    # means round-trip exactly; variances pass through the SD column
    assert back.arms[0].y_mean == 1 / 3
    assert back.arms[0].x_mean == (0.1 + 0.2,)
    assert back.arms[0].y_var == pytest.approx(2 / 7, rel=1e-15)
    assert back.arms[1].x_var[0] == pytest.approx(2 / 9, rel=1e-15)


def test_summaries_accept_se_of_mean_column(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "trial_id,arm,n,y_mean,y_se_mean,x1_mean,x1_sd,x1_family\n"
        "t1,1,25,2.0,0.4,0.0,1.0,continuous\n"
        "t1,0,25,1.0,0.4,0.0,1.0,continuous\n"
    )
    trials = read_summaries(path)
    assert trials[0].arm(1).y_var == pytest.approx(25 * 0.4**2)


def test_summaries_reject_duplicate_trial_arm_pair(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(
        "trial_id,arm,n,y_mean,y_sd,x1_mean,x1_sd,x1_family\n"
        "t1,1,25,2.0,1.0,0.0,1.0,continuous\n"
        "t1,1,30,1.0,1.0,0.0,1.0,continuous\n"
    )
    with pytest.raises(DataError, match="duplicate"):
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
    assert len(read_summaries(path)) == 1


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
    return make_dataset([
        SubjectRecord("tgt", 1, 2.5, (0.1, -0.4), 1.0, "target"),
        SubjectRecord("tgt", 0, 1.0, (0.7, 0.2), 1.0, "target"),
        SubjectRecord("src", 1, 3.5, (1.1, 0.0), 2.5, "reconstructed"),
        SubjectRecord("src", 0, -0.5, (0.9, -1.2), 0.5, "reconstructed"),
    ], target_id="tgt")


def test_subjects_roundtrip_csv_and_json(tmp_path):
    d = subjects()
    for name in ("subj.csv", "subj.json"):
        path = tmp_path / name
        write_subjects(d, path)
        back = read_subjects(path, target_id="tgt")
        assert back.subjects == d.subjects
        assert back.p == 2


def test_subjects_source_inferred_from_target_id(tmp_path):
    d = subjects()
    path = tmp_path / "subj.csv"
    write_subjects(d, path, include_source=False)
    back = read_subjects(path, target_id="tgt")
    assert [s.source for s in back.subjects] == \
        ["target", "target", "reconstructed", "reconstructed"]
    # without a target id, everything is target
    all_target = read_subjects(path)
    assert {s.source for s in all_target.subjects} == {"target"}


def test_subjects_weight_column_optional(tmp_path):
    d = subjects()
    path = tmp_path / "subj.csv"
    write_subjects(d, path, include_weight=False)
    back = read_subjects(path, target_id="tgt")
    assert all(s.weight == 1.0 for s in back.subjects)


def test_subjects_stamp_comment_roundtrip(tmp_path):
    d = subjects()
    path = tmp_path / "subj.csv"
    write_subjects(d, path, stamp={"config_hash": "deadbeef", "seed": 7})
    text = path.read_text()
    assert text.startswith("# config_hash=deadbeef\n# seed=7\n")
    assert read_subjects(path, target_id="tgt").subjects == d.subjects


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
                   "t,0,1.0,0.1,1.0,target\n")
    with pytest.raises(DataError) as exc_info:
        read_subjects(bad)
    message = str(exc_info.value)
    for needle in ("subject 0 (trial 't'): arm indicator must be 0 or 1, got 2",
                   "subject 1 (trial 't'): outcome not finite",
                   "subject 2 (trial 't'): covariate not finite",
                   "subject 3 (trial 't'): weight must be finite",
                   "subject 4 (trial 't'): unknown source tag 'bogus'"):
        assert needle in message
    assert "subject 5" not in message
    huge = tmp_path / "huge.csv"
    huge.write_text("trial_id,z,y,x1\nt,99999999999999999999,1.0,0.1\n")
    with pytest.raises(DataError, match="arm indicator 99999999999999999999 out of range"):
        read_subjects(huge)


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
awkward_ids = st.sampled_from(("tgt", "a,b", 'say "hi"', "two\nlines", "cr\r", "crlf\r\n",
                               " padded ", "Müller 2004", "", "#1", "a\n#b", '"')) | st.text()
edge_floats = st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300,
                               -1e300, 0.1, 1 / 3)) | st.floats()


@st.composite
def awkward_datasets(draw, values):
    p = draw(st.sampled_from((0, 1, 3)))
    record = st.builds(SubjectRecord, trial_id=awkward_ids, z=st.integers(0, 1), y=values,
                       x=st.tuples(*[values] * p), weight=values,
                       source=st.sampled_from(("target", "reconstructed")))
    return make_dataset(draw(st.lists(record, max_size=12)), target_id="tgt")


@settings(deadline=None)  # a wall-clock limit per example would flake on a busy machine
@given(awkward_datasets(edge_floats), st.booleans(), st.booleans(),
       st.sampled_from((None, {}, {"config_hash": "deadbeef", "seed": 7})))
def test_csv_writer_matches_writerows_bytes(tmp_path_factory, d, include_weight,
                                            include_source, stamp):
    out = tmp_path_factory.mktemp("csv")
    write_subjects(d, out / "fast.csv", include_weight=include_weight,
                   include_source=include_source, stamp=stamp)
    writerows_csv(d, out / "ref.csv", include_weight, include_source, stamp)
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


@settings(deadline=None)
@given(awkward_datasets(finite).filter(len))
def test_csv_round_trips_finite_rows(tmp_path_factory, d):
    d = d.with_weights(np.abs(d.w))  # read_subjects accepts only nonnegative weights
    path = tmp_path_factory.mktemp("csv") / "subj.csv"
    write_subjects(d, path, stamp={"seed": 1})
    assert read_subjects(path, target_id="tgt").subjects == d.subjects
