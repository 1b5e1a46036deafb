"""Reconstruction: moment restoration, substream determinism, clamping."""

import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence, default_rng

from summary_tables import arm_row, table

from metaborrow.data import Dataset
from metaborrow.errors import ConfigError, DataError
from metaborrow.meta import MetaFit, design_columns
from metaborrow.pipeline import borrow
from metaborrow.reconstruct import (ClampWarning, ReconstructionConfig, _pcg64_words, _SeedWords,
                                    clamped_arms, reconstruct_all)


def meta_fit(beta, columns):
    beta = np.asarray(beta, dtype=float)
    return MetaFit(beta=beta, cov_beta=np.eye(len(beta)), tau2=0.0,
                   q_stat=0.0, df=1, columns=columns)


def arm(tid="t1", armv=1, n=50, y_mean=2.0, y_var=5.0, x_mean=(1.0,),
        x_var=(2.0,), binary=None):
    """A one-arm table: reconstructing it reconstructs that arm alone."""
    return table(arm_row(tid, armv, n, y_mean, y_var, x_mean, x_var, binary))


FIT = meta_fit([0.5, 1.5, -0.8], ("intercept", "arm", "x1_mean"))
CFG = ReconstructionConfig(rng_seed=11)


def substream(seed, tid, armv):
    """The generator an arm draws from: keyed by (seed, crc32 of its trial id, arm)."""
    return default_rng(SeedSequence((seed, zlib.crc32(tid.encode()), armv)))


def assert_same_rows(a, b):
    """Datasets ``a`` and ``b`` hold the same rows: per-row trial ids, then every column."""
    assert [a.trial_ids[i] for i in a.trial] == [b.trial_ids[i] for i in b.trial]
    for name in ("z", "y", "X", "w", "is_target"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_moments_restored_at_large_n():
    # treated arm: mean surface 0.5 + 1.5 + (-0.8) x, residual var
    # y_var - load^2 x_var = 5 - 0.64 * 2 = 3.72
    d = reconstruct_all(arm(n=200_000), FIT, CFG)
    y, x = d.y, d.X[:, 0]
    assert abs(x.mean() - 1.0) < 0.02
    assert abs(x.var(ddof=1) - 2.0) < 0.05
    expected_mean = 0.5 + 1.5 - 0.8 * 1.0
    assert abs(y.mean() - expected_mean) < 4 * np.sqrt(5.0 / 200_000)
    assert y.var(ddof=1) == pytest.approx(5.0, rel=0.03)
    assert np.all(d.z == 1) and not d.is_target.any() and np.all(d.w == 1.0)


def test_interaction_column_loads_only_on_treated_arm():
    fit = meta_fit([0.5, 1.5, -0.8, 0.3],
                   ("intercept", "arm", "x1_mean", "arm:x1_mean"))
    n = 200_000
    treated = reconstruct_all(arm(armv=1, n=n), fit, CFG)
    control = reconstruct_all(arm(armv=0, n=n, y_mean=0.5 - 0.8), fit, CFG)
    yt, yc = treated.y, control.y
    # treated slope -0.8 + 0.3 = -0.5, control slope -0.8
    assert abs(yt.mean() - (0.5 + 1.5 - 0.5 * 1.0)) < 4 * np.sqrt(5.0 / n)
    assert abs(yc.mean() - (0.5 - 0.8 * 1.0)) < 4 * np.sqrt(5.0 / n)
    xt = treated.X[:, 0]
    slope = np.polyfit(xt, yt, 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.02)


@pytest.mark.parametrize("p", [0, 2])
def test_records_carry_covariate_rows(p):
    # p = 0 still gives n rows, each with no covariates; from the arm's
    # substream the covariates come first, each drawn whole in covariate order
    a = arm(n=25, x_mean=(1.0, 0.4)[:p], x_var=(2.0, 0.24)[:p], binary=(False, True)[:p])
    fit = meta_fit([0.5, 1.5, -0.8, 0.2][:2 + p],
                   ("intercept", "arm", "x1_mean", "x2_mean")[:2 + p])
    d = reconstruct_all(a, fit, CFG)
    rng = substream(11, "t1", 1)
    xs = np.column_stack([np.empty((25, 0)), rng.normal(1.0, 2.0**0.5, 25),
                          rng.random(25) < 0.4][:1 + p])
    assert len(d) == 25 and d.X.shape == (25, p)
    assert d.X.tobytes() == xs.tobytes()
    assert d.y.dtype == float and d.z.dtype == int


def test_substreams_are_deterministic_and_order_free():
    rows = [arm_row("t1", 1), arm_row("t1", 0, y_mean=0.0), arm_row("t2", 1, n=30),
            arm_row("t2", 0, n=20)]
    trials = table(*rows)
    d1 = reconstruct_all(trials, FIT, CFG)
    d2 = reconstruct_all(table(*rows[2:], *rows[:2]), FIT, CFG)
    for tid in ("t1", "t2"):
        for z in (1, 0):
            rows1 = (d1.trial == d1.trial_ids.index(tid)) & (d1.z == z)
            rows2 = (d2.trial == d2.trial_ids.index(tid)) & (d2.z == z)
            assert d1.y[rows1].tobytes() == d2.y[rows2].tobytes()
            assert d1.X[rows1].tobytes() == d2.X[rows2].tobytes()
    assert_same_rows(reconstruct_all(trials, FIT, CFG), d1)  # same seed, same draws
    other = ReconstructionConfig(rng_seed=12)
    assert not np.array_equal(reconstruct_all(trials, FIT, other).y, d1.y)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 7, 3**50])
def test_substream_is_the_one_the_key_tuple_seeds(seed):
    # each arm draws what default_rng(SeedSequence((seed, crc32(id), arm))) draws:
    # its covariate, then its outcome noise around the arm's regression line
    keys = [(tid, armv, n) for tid in ("", "t1", "Prüfung-試験") for armv, n in ((1, 7), (0, 5))]
    got = reconstruct_all(table(*(arm_row(tid, armv, n) for tid, armv, n in keys)), FIT,
                          ReconstructionConfig(rng_seed=seed))
    sd = (5.0 - 0.8**2 * 2.0) ** 0.5  # residual SD of every arm
    xs, ys = [], []
    for tid, armv, n in keys:
        rng = substream(seed, tid, armv)
        xs.append(rng.normal(1.0, 2.0**0.5, n))
        ys.append(0.5 + 1.5 * armv + xs[-1] * -0.8 + sd * rng.standard_normal(n))
    assert [got.trial_ids[i] for i in got.trial] == [tid for tid, _, n in keys
                                                     for _ in range(n)]
    assert got.z.tolist() == [armv for _, armv, n in keys for _ in range(n)]
    assert got.X.tobytes() == np.concatenate(xs)[:, None].tobytes()
    assert got.y.tobytes() == np.concatenate(ys).tobytes()


KEY_ROWS = st.integers(1, 12).flatmap(
    lambda width: st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width),
                           max_size=70).map(
        lambda rows: np.array(rows, dtype=np.uint32).reshape(len(rows), width)))


@settings(deadline=None)  # a wall-clock limit per example would flake on a busy machine
@given(KEY_ROWS)
def test_batched_seed_words_are_numpys(keys):
    # row k is what SeedSequence(keys[k]) gives PCG64, and a generator seeded with it
    # is in default_rng(SeedSequence(keys[k]))'s state and draws what it draws
    words = _pcg64_words(keys)
    assert words.shape == (len(keys), 4) and words.dtype == np.uint64
    for key, row in zip(keys, words):
        reference = default_rng(SeedSequence(key))
        assert row.tobytes() == SeedSequence(key).generate_state(4, np.uint64).tobytes()
        rng = Generator(PCG64(_SeedWords(row)))
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.standard_normal(3).tobytes() == reference.standard_normal(3).tobytes()


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                            (8, np.uint64), (4, np.int64), (4, np.float64)])
def test_seed_words_refuse_any_other_request(n_words, dtype):
    seed = _SeedWords(_pcg64_words(np.array([[1, 2, 3]], dtype=np.uint32))[0])
    assert seed.generate_state(4, np.uint64) is seed.words
    with pytest.raises(ValueError, match="^seed words are 4 uint64, not "):
        seed.generate_state(n_words, dtype)


def test_arms_use_distinct_substreams():
    a1 = reconstruct_all(arm("t1", 1), FIT, CFG)
    a0 = reconstruct_all(arm("t1", 0), FIT, CFG)
    b1 = reconstruct_all(arm("t2", 1), FIT, CFG)
    assert not np.array_equal(a1.X, a0.X)
    assert not np.array_equal(a1.X, b1.X)


def test_control_only_borrow_skips_treated_arms():
    trials = table(arm_row("t1", 1), arm_row("t1", 0))
    cfg = ReconstructionConfig(rng_seed=11, borrow="control_only")
    d = reconstruct_all(trials, FIT, cfg)
    assert set(d.z.tolist()) == {0}
    assert len(d) == 50


def test_empty_arm_skipped_by_reconstruct_all():
    trials = table(arm_row("t1", 1), arm_row("t1", 0, n=0, y_mean=0.0, y_var=1.0))
    d = reconstruct_all(trials, FIT, CFG)
    assert set(d.z.tolist()) == {1} and len(d) == 50
    assert len(reconstruct_all(arm(n=0), FIT, CFG)) == 0


def test_overexplained_variance_clamps_with_warning():
    # slope explains 0.64 * 2 = 1.28 > y_var = 1.0
    tight = arm(y_var=1.0, n=50_000)
    (clamp,) = clamped_arms(tight, FIT, CFG)
    assert isinstance(clamp, ClampWarning) and isinstance(clamp, UserWarning)
    assert (clamp.trial_id, clamp.arm) == ("t1", 1)
    assert str(clamp) == ("trial 't1' arm 1: residual variance -0.28 below floor; clamped to "
                          "1e-08 (covariate slopes explain more variance than the arm reports)")
    assert clamped_arms(arm(), FIT, CFG) == ()
    d = reconstruct_all(tight, FIT, CFG)
    y, x = d.y, d.X[:, 0]
    # outcomes are nearly deterministic in x at the floor variance
    resid = y - (0.5 + 1.5 - 0.8 * x)
    assert resid.var() < 1e-6
    assert np.var(y) == pytest.approx(0.64 * 2.0, rel=0.05)


def test_degenerate_zero_covariate_variance():
    d = reconstruct_all(arm(x_var=(0.0,), n=10_000), FIT, CFG)
    x, y = d.X[:, 0], d.y
    assert np.all(x == 1.0)
    assert y.var(ddof=1) == pytest.approx(5.0, rel=0.05)  # all variance residual


def test_binary_covariate_sampling():
    a = arm(n=100_000, x_mean=(0.3,), x_var=(0.21,), binary=(True,))
    xs = reconstruct_all(a, FIT, CFG).X
    assert set(np.unique(xs)) == {0.0, 1.0}
    assert xs.mean() == pytest.approx(0.3, abs=0.01)


def test_meta_layout_mismatches_rejected():
    layouts = (r"for p = 1: \(intercept, arm, x1_mean\) or "
               r"\(intercept, arm, x1_mean, arm:x1_mean\)$")
    wrong_order = meta_fit([1.0, 2.0], ("arm", "intercept"))
    with pytest.raises(DataError, match=r"columns \(arm, intercept\) do not match .*" + layouts):
        reconstruct_all(arm(), wrong_order, CFG)
    stray = meta_fit([1.0, 2.0, 3.0], ("intercept", "arm", "follow_up"))
    with pytest.raises(DataError, match=r"\(intercept, arm, follow_up\) do not match"):
        reconstruct_all(arm(), stray, CFG)
    out_of_range = meta_fit([1.0, 2.0, 3.0], ("intercept", "arm", "x2_mean"))
    with pytest.raises(DataError, match=r"\(intercept, arm, x2_mean\) do not match"):
        reconstruct_all(arm(), out_of_range, CFG)


def test_fit_on_fewer_covariates_is_rejected():
    # a fit made on one covariate has no slope for x2: reading it for two
    # covariates is an error naming both layouts, not a zero slope
    wide = table(*(arm_row(f"t{k}", armv, x_mean=(1.0, 0.5 * k), x_var=(2.0, 1.0))
                   for k in range(3) for armv in (1, 0)))
    for fit in (FIT, meta_fit([0.5, 1.5, -0.8, 0.3], ("intercept", "arm", "x1_mean",
                                                       "arm:x1_mean"))):
        with pytest.raises(DataError, match=r"\(intercept, arm, x1_mean.*\) do not match the "
                                            r"meta design for p = 2: "
                                            r"\(intercept, arm, x1_mean, x2_mean\) or"):
            reconstruct_all(wide, fit, CFG)


def test_config_validation():
    # a setting, not data: exit 2, as PipelineConfig and ScenarioConfig reject it
    with pytest.raises(ConfigError, match="borrow") as exc_info:
        ReconstructionConfig(rng_seed=1, borrow="sometimes")
    assert exc_info.value.exit_code == 2
    # a fractional or bool seed would be cast to another seed's draws
    for seed, message in ((7.9, "rng_seed must be an integer, got 7.9"),
                          (True, "rng_seed must be an integer, got True"),
                          ("7", "rng_seed must be an integer, got '7'"),
                          (-1, "rng_seed must be nonnegative, got -1")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ReconstructionConfig(rng_seed=seed)


# ------------------------------------------------------------- pooled draws

COLUMNS = ("trial", "z", "y", "X", "w", "is_target")


def rows_of(d, part):
    """The rows ``part`` (a slice) of ``d``, as a Dataset over the same trial ids."""
    return Dataset(d.trial_ids, *(getattr(d, name)[part] for name in COLUMNS))


def p_arm(p, tid, armv, n, y_mean=1.0):
    """One arm over p covariates; a covariate after the first is binary."""
    return arm_row(tid, armv, n, y_mean, 5.0, (1.0, 0.4)[:p], (2.0, 0.24)[:p], (False, True)[:p])


def pooled_case(p, head_ids=("t", "b")):
    """A p-covariate table of trials a, b, c, its meta fit, and a 5-row head over ``head_ids``.

    Trial a has both arms, b a control arm, c a treated arm.  The head
    has unequal weights and a row that is not the target's, so a copy
    that resets either shows.
    """
    s = table(p_arm(p, "a", 1, 30, 2.0), p_arm(p, "a", 0, 20), p_arm(p, "b", 0, 25, 0.5),
              p_arm(p, "c", 1, 15, 2.5))
    fit = meta_fit([0.5, 1.5, -0.8, 0.3][:2 + p], design_columns(p))
    rng = default_rng(3)
    head = Dataset(head_ids, [0, 0, 1, 0, 1], [1, 0, 1, 0, 0], rng.normal(size=5),
                   rng.normal(size=(5, p)), rng.uniform(0.5, 2.0, 5),
                   [True, True, False, True, True])
    return s, fit, head


@pytest.mark.parametrize("p", (0, 1, 2))
@pytest.mark.parametrize("mode", ("both_arms", "control_only"))
def test_head_rows_come_first_and_borrowed_rows_are_drawn_as_alone(p, mode):
    s, fit, head = pooled_case(p)
    cfg = ReconstructionConfig(rng_seed=11, borrow=mode)
    pooled = reconstruct_all(s, fit, cfg, head=head)
    alone = reconstruct_all(s, fit, cfg)
    m = len(head)
    assert len(pooled) == m + len(alone) and pooled.p == p
    assert_same_rows(rows_of(pooled, slice(None, m)), head)
    assert_same_rows(rows_of(pooled, slice(m, None)), alone)
    # the head's "b" and the table's "b" name one trial
    assert pooled.trial_ids == ("t", "b", "a", "c")
    assert [pooled.trial_ids[i] for i in pooled.trial[:m]] == ["t", "t", "b", "t", "b"]


@pytest.mark.parametrize("p", (0, 1, 2))
@pytest.mark.parametrize("mode", ("both_arms", "control_only"))
def test_head_of_another_dimension_is_refused(p, mode):
    s, fit, _ = pooled_case(p)
    head = pooled_case(p + 1)[2]
    cfg = ReconstructionConfig(rng_seed=11, borrow=mode)
    message = f"target covariate dimension {p + 1} differs from summaries {p}"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        reconstruct_all(s, fit, cfg, head=head)
    with pytest.raises(ConfigError, match=f"^stage reconstruct: {message}$"):
        borrow(s, fit, head, cfg)


@pytest.mark.parametrize("p", (0, 1, 2))
@pytest.mark.parametrize("mode", ("both_arms", "control_only"))
def test_table_with_no_borrowed_arm_returns_the_head_rows(p, mode):
    _, fit, head = pooled_case(p)
    # an empty arm is never borrowed, and a treated one not under control_only
    nothing = table(p_arm(p, "b", 0, 0), p_arm(p, "c", 1, 15 if mode == "control_only" else 0))
    pooled = reconstruct_all(nothing, fit, ReconstructionConfig(rng_seed=11, borrow=mode),
                             head=head)
    assert_same_rows(pooled, head)
