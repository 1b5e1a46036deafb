"""CLI fuzz: malformed input files exit 2, 3 or 4, never with a traceback.

Each example starts from a valid pair of files (the bundled eGFR
summaries and a simulated target trial, as CSV or JSON) and breaks one
of them in a way that no reading of the schema accepts: a truncated row,
a non-numeric or non-finite cell, a missing column (but not a family
column, whose absence reads as continuous), an empty file, a stray text
row, invalid JSON, a JSON value of the wrong type, a fractional JSON
number for an arm, size or indicator, or bytes that are not UTF-8.  The JSON inputs of ``pipeline --config`` and
``reconstruct --meta-fit`` are broken too: cut short, a top level of
another type, a required key dropped, a config or meta-fit value of the
wrong type, or bytes that are not UTF-8.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng

from metaborrow import casestudy, pipeline
from metaborrow.cli import main
from metaborrow.meta import fit_dl


def _table(text):
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def _csv(header, rows):
    return "".join(",".join(r) + "\n" for r in [header, *rows])


SUMMARY_TABLE = _table(casestudy.bundled_data_path().read_text(encoding="utf-8"))
_target = casestudy.simulate_target(22, 16, default_rng(SeedSequence((1, 0))))
TARGET_TABLE = (["trial_id", "z", "y", "x1"],
                [[_target.trial_ids[0], str(z), repr(y), repr(x)] for z, y, x in
                 zip(_target.z.tolist(), _target.y.tolist(), _target.X[:, 0].tolist())])

# cells no column of either schema accepts (trial ids take any text and are never broken)
BAD_CELLS = ("", "nan", "inf", "-inf", "1e400", "abc", " ", "NaN?")
BAD_CATEGORIES = ("nan", "abc", "2", "-1", "0.5")  # arm / z columns: not 0 or 1 either
BAD_JSON_VALUES = (None, "abc", math.nan, math.inf, -math.inf, [], {})
fractional = st.floats(-1, 60).filter(lambda v: not v.is_integer())  # for arm, n and z
stray_text = st.text(st.characters(exclude_characters=',"\r\n', exclude_categories=("Cs",)),
                     min_size=1, max_size=20).filter(lambda s: s.strip())


def _optional(column):
    """A family column may be left out: a summary file without one is all continuous."""
    return column.endswith("_family")


def _bad_cell(column):
    if column in ("arm", "z"):
        return st.sampled_from(BAD_CELLS + BAD_CATEGORIES)
    if column.endswith("_family"):
        # a blank family means continuous
        return st.sampled_from([c for c in BAD_CELLS if c.strip()])
    return st.sampled_from(BAD_CELLS)


@st.composite
def broken_table(draw, table):
    """The table as CSV text with one defect."""
    header, rows = list(table[0]), [list(r) for r in table[1]]
    defect = draw(st.sampled_from(("truncate", "cell", "drop_column", "header_only",
                                   "empty", "stray_row")))
    i = draw(st.integers(0, len(rows) - 1))
    if defect == "truncate":
        rows[i] = rows[i][:draw(st.integers(1, len(header) - 1))]
    elif defect == "cell":
        j = draw(st.integers(1, len(header) - 1))
        rows[i][j] = draw(_bad_cell(header[j]))
    elif defect == "drop_column":
        j = draw(st.sampled_from([j for j, c in enumerate(header) if not _optional(c)]))
        header.pop(j)
        for r in rows:
            r.pop(j)
    elif defect == "header_only":
        rows = []
    elif defect == "empty":
        return ""
    else:
        rows.insert(i, [draw(stray_text)])
    return _csv(header, rows)


def _typed(column, cell):
    if column == "trial_id" or column.endswith("_family"):
        return cell
    return int(cell) if column in ("arm", "n", "z") else float(cell)


@st.composite
def broken_json(draw, table):
    """The table as a JSON list of objects, with one defect."""
    header, rows = table
    objects = [{c: _typed(c, v) for c, v in zip(header, r)} for r in rows]
    text = json.dumps(objects)
    defect = draw(st.sampled_from(("cut", "top_level", "drop_key", "value")))
    if defect == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    if defect == "top_level":
        return draw(st.sampled_from(("5", '"rows"', "{}", "null", "true")))
    obj = draw(st.sampled_from(objects))
    key = draw(st.sampled_from([c for c in header if not (defect == "drop_key" and _optional(c))]))
    if defect == "drop_key":
        del obj[key]
    else:
        values = BAD_JSON_VALUES[:1] + BAD_JSON_VALUES[2:] if key == "trial_id" else BAD_JSON_VALUES
        bad = st.sampled_from(values + ((2, -1) if key in ("arm", "z") else ()))
        if key in ("arm", "n", "z"):
            bad |= fractional  # int() would truncate it to a valid value
        obj[key] = draw(bad)
    return json.dumps(objects)


@st.composite
def broken_file(draw, table):
    """(suffix, bytes) of a malformed CSV or JSON rendering of ``table``."""
    kind = draw(st.sampled_from(("csv", "json", "bytes")))
    if kind == "json":
        return ".json", draw(broken_json(table)).encode("utf-8")
    if kind == "bytes":
        valid = _csv(*table).encode("utf-8")
        at = draw(st.integers(0, len(valid)))
        return draw(st.sampled_from((".csv", ".json"))), valid[:at] + b"\xff\xfe" + valid[at:]
    return ".csv", draw(broken_table(table)).encode("utf-8")


def assert_fails_cleanly(argv, files):
    """Run the CLI on ``files`` ({name: (suffix, bytes)}): exit 2, 3 or 4, no traceback.

    ``argv`` is formatted with each file's path by name and ``out``, an
    output path.  An exception escaping ``main`` fails the test too.
    """
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": str(Path(tmp) / "out")}
        for name, (suffix, data) in files.items():
            paths[name] = str(Path(tmp) / (name + suffix))
            Path(paths[name]).write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc_info:
                main([arg.format(**paths) for arg in argv])
    assert exc_info.value.code in (2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


def assert_pipeline_fails_cleanly(summaries, target):
    """Run ``pipeline`` on the two (suffix, bytes) files: exit 2, 3 or 4, no traceback."""
    assert_fails_cleanly(["pipeline", "--summaries", "{summaries}", "--target", "{target}",
                          "--seed", "1", "--out", "{out}"],
                         {"summaries": summaries, "target": target})


VALID_SUMMARIES = ".csv", _csv(*SUMMARY_TABLE).encode("utf-8")
VALID_TARGET = ".csv", _csv(*TARGET_TABLE).encode("utf-8")


# The pipeline pairs the two files, so a file whose covariate column is
# gone, valid on its own, fails too: its dimension differs from the other's.
@pytest.mark.filterwarnings("ignore::metaborrow.reconstruct.ClampWarning")
@settings(deadline=None, max_examples=60)
@given(broken_file(SUMMARY_TABLE))
def test_malformed_summaries_exit_with_a_documented_code(summaries):
    assert_pipeline_fails_cleanly(summaries, VALID_TARGET)


@pytest.mark.filterwarnings("ignore::metaborrow.reconstruct.ClampWarning")
@settings(deadline=None, max_examples=60)
@given(broken_file(TARGET_TABLE))
def test_malformed_targets_exit_with_a_documented_code(target):
    assert_pipeline_fails_cleanly(VALID_SUMMARIES, target)


@st.composite
def broken_object(draw, valid, required, typed=()):
    """JSON bytes of the object ``valid`` with one defect.

    Cut short, a top level of another type, a ``required`` key dropped,
    a ``typed`` key given a value of the wrong type, or bytes that are
    not UTF-8.
    """
    defect = draw(st.sampled_from(("cut", "top_level", "drop_key", "bytes")
                                  + (("value",) if typed else ())))
    if defect == "top_level":
        return draw(st.sampled_from(("5", '"rows"', "[]", "null", "true"))).encode("utf-8")
    obj = dict(valid)
    if defect == "drop_key":
        del obj[draw(st.sampled_from(required))]
    elif defect == "value":
        obj[draw(st.sampled_from(typed))] = draw(st.sampled_from(BAD_JSON_VALUES))
    text = json.dumps(obj).encode("utf-8")
    if defect == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    if defect == "bytes":
        at = draw(st.integers(0, len(text)))
        return text[:at] + b"\xff\xfe" + text[at:]
    return text


# the input files and the output directory come from flags, which override the config
CONFIG = {"seed": 1, "borrow": "control_only", "meat": "w3", "level": 0.95,
          "outcome_interaction": False}
META_FIT = pipeline.meta_to_dict(fit_dl(casestudy.completed_summaries()))
META_KEYS = ("beta", "cov_beta", "tau2", "q_stat", "df", "columns")


@pytest.mark.filterwarnings("ignore::metaborrow.reconstruct.ClampWarning")
@settings(deadline=None, max_examples=30)
@given(broken_object(CONFIG, ("seed",), tuple(CONFIG)))
def test_malformed_config_exits_with_a_documented_code(config):
    assert_fails_cleanly(["pipeline", "--config", "{config}", "--summaries", "{summaries}",
                          "--target", "{target}", "--out", "{out}"],
                         {"config": (".json", config), "summaries": VALID_SUMMARIES,
                          "target": VALID_TARGET})


@settings(deadline=None, max_examples=30)
@given(broken_object(META_FIT, META_KEYS, META_KEYS))
def test_malformed_meta_fit_exits_with_a_documented_code(meta_fit):
    assert_fails_cleanly(["reconstruct", "--summaries", "{summaries}", "--meta-fit", "{meta_fit}",
                          "--seed", "1", "--out", "{out}.csv"],
                         {"meta_fit": (".json", meta_fit), "summaries": VALID_SUMMARIES})
