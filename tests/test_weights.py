"""Membership model and importance weights: calibration identity, feature maps."""

import numpy as np
import pytest

from metaborrow import weights
from metaborrow.data import Dataset
from metaborrow.errors import DataError, NumericalError
from metaborrow.weights import (FeatureMap, FeatureTerm, compute_weights,
                                default_feature_map, fit_membership,
                                linear_feature_map, membership_probabilities,
                                parse_feature_spec)


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
        w = compute_weights(d, fit).w
        assert w.mean() == pytest.approx(1.0, abs=1e-6)


def test_no_shift_gives_flat_weights():
    d = pooled(n_target=400, n_source=400, shift=0.0, seed=4)
    fit = fit_membership(d)
    w = compute_weights(d, fit).w
    assert w.mean() == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.abs(w - 1.0) < 0.35)  # only sampling noise separates groups


def test_shift_direction_downweights_source_region():
    # source sits to the right of the target, so the weight must decay in x
    d = pooled(n_target=300, n_source=300, shift=2.0, seed=5)
    fmap = linear_feature_map(1)
    fit = fit_membership(d, fmap)
    assert fit.alpha[1] < 0
    x = d.X[:, 0]
    w = compute_weights(d, fit).w
    order = np.argsort(x)
    assert np.all(np.diff(w[order]) <= 1e-12)  # monotone in x under linear map


def test_weights_scale_by_pool_ratio():
    # with n_source = 3 n_target, target-region weights approach
    # (N / n_T) = 4 at the far left tail
    d = pooled(n_target=250, n_source=750, shift=3.0, seed=6)
    fit = fit_membership(d)
    w = compute_weights(d, fit).w
    x = d.X[:, 0]
    assert w[np.argmin(x)] == pytest.approx(4.0, abs=0.2)
    assert w[np.argmax(x)] < 0.1


def test_probabilities_match_weights():
    d = pooled(seed=7)
    fit = fit_membership(d)
    pi = membership_probabilities(d, fit)
    w = compute_weights(d, fit).w
    assert w == pytest.approx(len(d) / d.n_target() * pi)



def test_weights_of_the_fitted_rows_reuse_the_fit(monkeypatch):
    d = pooled(seed=7)
    fit = fit_membership(d)
    evaluated = []
    matrix = FeatureMap.matrix
    monkeypatch.setattr(FeatureMap, "matrix",
                        lambda fmap, data: evaluated.append(data) or matrix(fmap, data))
    w = compute_weights(d, fit).w
    assert evaluated == []
    # any other dataset evaluates the map, and the same rows give the same bits
    same_rows = d.with_weights(d.w)
    assert compute_weights(same_rows, fit).w.tobytes() == w.tobytes()
    assert len(evaluated) == 1 and evaluated[0] is same_rows


def test_separated_groups_saturate_but_stay_calibrated():
    rng = np.random.default_rng(9)
    d = pool(rng.uniform(1.0, 2.0, (20, 1)), rng.uniform(-2.0, -1.0, (20, 1)))
    fit = fit_membership(d)
    assert fit.converged
    w = compute_weights(d, fit).w
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
    rng = np.random.default_rng(12)
    d = pooled(seed=12)
    fit = fit_membership(d)
    sourceless = Dataset(("src",), np.zeros(10, int), np.arange(10) % 2, np.zeros(10),
                         rng.normal(size=(10, 1)), np.ones(10), np.zeros(10, bool))
    with pytest.raises(DataError, match="no target subjects"):
        compute_weights(sourceless, fit)


# -------------------------------------------------------------- feature maps

def test_default_and_linear_feature_maps():
    d = pooled(seed=13, p=2)
    F = default_feature_map(2).matrix(d)
    x = d.X
    assert F.shape == (len(d), 5)
    assert np.allclose(F[:, 0], 1.0)
    assert np.allclose(F[:, 3], x[:, 0] ** 2)
    assert linear_feature_map(2).matrix(d).shape == (len(d), 3)


def test_parse_feature_spec_atoms():
    fm = parse_feature_spec("x1, x1^2, x2, x1*x2, z, z*x2", p=2)
    kinds = [t.kind for t in fm.terms]
    assert kinds == ["intercept", "linear", "square", "linear", "interaction",
                     "arm", "arm_linear"]
    assert fm.terms[4].j == 0 and fm.terms[4].k == 1
    assert fm.terms[6].j == 1


def test_parse_feature_spec_errors():
    with pytest.raises(DataError, match="cannot parse"):
        parse_feature_spec("y1", p=2)
    with pytest.raises(DataError, match="outside covariate dimension"):
        parse_feature_spec("x3", p=2)
    with pytest.raises(DataError, match="cannot parse"):
        parse_feature_spec("xfoo", p=2)


def test_feature_map_requires_intercept_and_valid_terms():
    with pytest.raises(DataError, match="intercept"):
        FeatureMap((FeatureTerm("linear", 0),))
    with pytest.raises(DataError, match="unknown feature term"):
        FeatureTerm("cubic", 0)
    d = pooled(seed=14, p=1)
    oob = FeatureMap((FeatureTerm("intercept"), FeatureTerm("linear", 5)))
    with pytest.raises(DataError, match="outside dimension"):
        oob.matrix(d)


def test_arm_feature_separates_allocation_shift():
    # target randomizes 1:1 but the source pool is control-heavy; with an
    # arm term the fit detects it and reweights arms back into balance
    rng = np.random.default_rng(15)
    d = pool(rng.normal(size=(200, 1)), rng.normal(size=(400, 1)),
             z_source=np.repeat([0, 1], [300, 100]))
    fmap = parse_feature_spec("x1,z", p=1)
    fit = fit_membership(d, fmap)
    w = compute_weights(d, fit).w
    z = d.z
    assert w[z == 1].sum() == pytest.approx(w[z == 0].sum(), rel=0.02)
