"""Membership model and importance weights: calibration identity, feature maps."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaborrow import weights
from metaborrow.data import Dataset
from metaborrow.errors import ConfigError, DataError, NumericalError
from metaborrow.weights import (ARM, FeatureMap, compute_weights, default_feature_map,
                                fit_membership, parse_feature_spec)


def pool(x_target, x_source, z_source=None):
    """Target rows ``tgt``, then reconstructed rows ``src``: outcome 0, unit weights.

    ``x_target`` and ``x_source`` are (n, p) covariates.  Arms alternate
    0, 1 in each group, unless ``z_source`` gives the source rows' arms.
    """
    n_t, n_s = len(x_target), len(x_source)
    z_source = np.arange(n_s) % 2 if z_source is None else z_source
    trial = np.repeat([0, 1], [n_t, n_s])
    return Dataset(("tgt", "src"), trial, np.concatenate([np.arange(n_t) % 2, z_source]),
                   np.zeros(n_t + n_s), np.concatenate([x_target, x_source]),
                   np.ones(n_t + n_s), trial == 0, "tgt")


def pooled(n_target=60, n_source=180, shift=1.0, seed=0, p=1):
    rng = np.random.default_rng(seed)
    return pool(rng.normal(0.0, 1.0, (n_target, p)), rng.normal(shift, 1.0, (n_source, p)))


def test_mean_weight_is_one_for_unpenalized_fit():
    for seed, p, shift in ((0, 1, 1.0), (1, 2, 0.5), (2, 1, 0.0), (3, 3, -1.5)):
        d = pooled(seed=seed, p=p, shift=shift)
        fit = fit_membership(d)
        assert fit.converged and fit.ridge_lambda == 0.0
        w = compute_weights(fit).w
        assert w.mean() == pytest.approx(1.0, abs=1e-6)


def test_no_shift_gives_flat_weights():
    d = pooled(n_target=400, n_source=400, shift=0.0, seed=4)
    fit = fit_membership(d)
    w = compute_weights(fit).w
    assert w.mean() == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.abs(w - 1.0) < 0.35)  # only sampling noise separates groups


def test_shift_direction_downweights_source_region():
    # source sits to the right of the target, so the weight must decay in x
    d = pooled(n_target=300, n_source=300, shift=2.0, seed=5)
    fit = fit_membership(d, parse_feature_spec("x1", 1))
    assert fit.alpha[1] < 0
    x = d.X[:, 0]
    w = compute_weights(fit).w
    order = np.argsort(x)
    assert np.all(np.diff(w[order]) <= 1e-12)  # monotone in x under linear map


def test_weights_scale_by_pool_ratio():
    # with n_source = 3 n_target, target-region weights approach
    # (N / n_T) = 4 at the far left tail
    d = pooled(n_target=250, n_source=750, shift=3.0, seed=6)
    fit = fit_membership(d)
    w = compute_weights(fit).w
    x = d.X[:, 0]
    assert w[np.argmin(x)] == pytest.approx(4.0, abs=0.2)
    assert w[np.argmax(x)] < 0.1


def test_probabilities_match_weights():
    d = pooled(seed=7)
    fit = fit_membership(d)
    pi = 1.0 / (1.0 + np.exp(-(default_feature_map(d.p).matrix(d) @ fit.alpha)))
    w = compute_weights(fit).w
    assert w == pytest.approx(len(d) / d.n_target() * pi)


def test_weights_of_the_fitted_rows_reuse_the_fit(monkeypatch):
    d = pooled(seed=7)
    fit = fit_membership(d)
    evaluated = []
    matrix = FeatureMap.matrix
    monkeypatch.setattr(FeatureMap, "matrix",
                        lambda fmap, data: evaluated.append(data) or matrix(fmap, data))
    weighted = compute_weights(fit)
    # the fitted rows, with the fit's read-only weights: the map is not evaluated again
    assert evaluated == []
    assert weighted.w is fit.weights and not weighted.w.flags.writeable
    assert weighted.X is d.X and weighted.y is d.y and weighted.is_target is d.is_target


def test_non_finite_weights_are_a_numerical_error():
    fit = fit_membership(pooled(seed=8))
    broken = replace(fit, weights=np.where(np.arange(len(fit.weights)) == 3, np.inf,
                                           fit.weights))
    with pytest.raises(NumericalError, match="non-finite importance weight"):
        compute_weights(broken)


def test_separated_groups_saturate_but_stay_calibrated():
    rng = np.random.default_rng(9)
    d = pool(rng.uniform(1.0, 2.0, (20, 1)), rng.uniform(-2.0, -1.0, (20, 1)))
    fit = fit_membership(d)
    assert fit.converged
    w = compute_weights(fit).w
    assert w.mean() == pytest.approx(1.0, abs=1e-6)
    # fully separated: target rows absorb the whole pool, source rows vanish
    assert w[:20] == pytest.approx(2.0, abs=1e-6)
    assert w[20:] == pytest.approx(0.0, abs=1e-6)


def test_nonconvergence_raises_after_ridge_escalation(monkeypatch):
    d = pooled(seed=10)
    monkeypatch.setattr(weights, "IRLS_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="did not converge"):
        fit_membership(d)


def test_single_class_datasets_rejected():
    rng = np.random.default_rng(11)
    only_target = Dataset(("tgt",), np.zeros(10, int), np.arange(10) % 2, np.zeros(10),
                          rng.normal(size=(10, 1)), np.ones(10), np.ones(10, bool), "tgt")
    with pytest.raises(DataError, match="both target and non-target"):
        fit_membership(only_target)


def test_compute_weights_requires_target_rows():
    # weights come only from a fit, and rows without a target subject get no fit
    rng = np.random.default_rng(12)
    sourceless = Dataset(("src",), np.zeros(10, int), np.arange(10) % 2, np.zeros(10),
                         rng.normal(size=(10, 1)), np.ones(10), np.zeros(10, bool))
    with pytest.raises(DataError, match="both target and non-target"):
        fit_membership(sourceless)


# -------------------------------------------------------------- feature maps

def test_default_and_linear_feature_maps():
    d = pooled(seed=13, p=2)
    F = default_feature_map(2).matrix(d)
    x = d.X
    assert default_feature_map(2).terms == ((0,), (1,), (0, 0), (1, 1))
    assert F.shape == (len(d), 5)
    assert np.allclose(F[:, 0], 1.0)
    assert np.allclose(F[:, 3], x[:, 0] ** 2)
    assert parse_feature_spec("x1,x2", 2).matrix(d).shape == (len(d), 3)


def test_parse_feature_spec_atoms():
    fm = parse_feature_spec("x1, x1^2, x2, x1*x2, z, z*x2", p=2)
    assert fm.terms == ((0,), (0, 0), (1,), (0, 1), (ARM,), (ARM, 1))
    assert parse_feature_spec(" , X2 ,", p=2).terms == ((1,),)


def test_parse_feature_spec_errors():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_feature_spec("y1", p=2)
    with pytest.raises(ConfigError, match="outside covariate dimension"):
        parse_feature_spec("x3", p=2)
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_feature_spec("xfoo", p=2)
    # the arm factor comes first and only once, and a term has at most two factors
    for spec, atom in (("x1*z", "z"), ("z^2", "z"), ("z*z", "z"), ("z*x1^2", "x1^2"),
                       ("x1*x2*x1", "x2*x1"), ("x1*x2^2", "x1*x2")):
        with pytest.raises(ConfigError, match=re.escape(f"cannot parse feature atom '{atom}'")):
            parse_feature_spec(spec, p=2)


def test_feature_map_intercept_is_implicit_and_covariates_checked():
    d = pooled(seed=14, p=1)
    assert FeatureMap(()).matrix(d).tobytes() == np.ones((len(d), 1)).tobytes()
    for term in ((5,), (ARM, 1), (0, -1)):
        with pytest.raises(DataError, match="outside dimension 1"):
            FeatureMap(((0,), term)).matrix(d)


FEATURE_ATOMS = ("x1", "x2", "x3", "x1^2", "x3^2", "x1*x2", "x2*x1", "x3*x3", "z", "z*x1",
                 "z*x3")


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(FEATURE_ATOMS), max_size=8),
       st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_feature_matrix_columns_are_products(atoms, seed, n):
    # each column after the ones is its atom's product, computed by hand, bit for bit
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, (n, 3))
    z = rng.integers(0, 2, n)
    d = Dataset(("t",), np.zeros(n, int), z, np.zeros(n), x, np.ones(n),
                np.ones(n, bool), "t")
    zf = z.astype(float)
    by_hand = {"z": zf}
    for j in range(3):
        xj = x[:, j]
        by_hand[f"x{j + 1}"], by_hand[f"x{j + 1}^2"] = xj, xj ** 2
        by_hand[f"z*x{j + 1}"] = zf * xj
        for k in range(3):
            by_hand[f"x{j + 1}*x{k + 1}"] = xj * x[:, k]
    F = parse_feature_spec(",".join(atoms), 3).matrix(d)
    assert F.shape == (n, 1 + len(atoms))
    assert F[:, 0].tobytes() == np.ones(n).tobytes()
    for i, atom in enumerate(atoms, start=1):
        assert F[:, i].tobytes() == by_hand[atom].tobytes(), atom
    # column-major, so the IRLS products read contiguous columns; the same values
    # as the row-major column_stack
    assert F.flags.f_contiguous and (n == 1 or not atoms or not F.flags.c_contiguous)
    assert F.tobytes() == np.column_stack([np.ones(n), *(by_hand[a] for a in atoms)]).tobytes()


def test_arm_feature_separates_allocation_shift():
    # target randomizes 1:1 but the source pool is control-heavy; with an
    # arm term the fit detects it and reweights arms back into balance
    rng = np.random.default_rng(15)
    d = pool(rng.normal(size=(200, 1)), rng.normal(size=(400, 1)),
             z_source=np.repeat([0, 1], [300, 100]))
    fmap = parse_feature_spec("x1,z", p=1)
    fit = fit_membership(d, fmap)
    w = compute_weights(fit).w
    z = d.z
    assert w[z == 1].sum() == pytest.approx(w[z == 0].sum(), rel=0.02)
