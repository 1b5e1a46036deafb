"""Importance weights from a target-membership logistic regression.

The pooled dataset (target rows plus reconstructed rows) is treated as
the reference population.  A logistic regression of the target-membership
label on a covariate feature map estimates pi(x) = P(target | x); the
importance weight

    w(x) = (N / n_T) * pi(x)

is the density ratio between the target covariate distribution and the
pooled covariate distribution, applied to every row (target rows are
reweighted too).  For an unpenalized fit with intercept the score
equation forces sum(pi) = n_T, so the weights average to exactly one.

Fitting is Newton/IRLS from a zero start.  If the Hessian goes singular
or the fit fails to converge with a separation signature (huge linear
predictors), the fit is retried with an escalating ridge penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError
from .estimate import weighted_transpose

_TERM_KINDS = ("intercept", "linear", "square", "interaction", "arm", "arm_linear")

IRLS_TOL = 1e-8  # convergence: largest absolute score-equation entry
IRLS_MAX_ITER = 100  # Newton steps per fit, each ridge retry included


@dataclass(frozen=True)
class FeatureTerm:
    """One feature-map term: kind plus covariate indices."""

    kind: str
    j: int = -1
    k: int = -1

    def __post_init__(self):
        if self.kind not in _TERM_KINDS:
            raise DataError(f"unknown feature term kind {self.kind!r}")


@dataclass(frozen=True)
class FeatureMap:
    """Ordered feature terms; the intercept is always present.

    Build with :func:`default_feature_map` (intercept + linear + square
    per covariate) or :func:`parse_feature_spec` for CLI strings like
    ``"x1,x1^2,x2"``.
    """

    terms: tuple

    def __post_init__(self):
        if not any(t.kind == "intercept" for t in self.terms):
            raise DataError("feature map must contain an intercept")

    def matrix(self, d):
        """Evaluate the feature matrix over a Dataset."""
        n, x = len(d), d.X
        z = d.z.astype(float)
        cols = []
        for t in self.terms:
            if t.kind == "intercept":
                cols.append(np.ones(n))
            elif t.kind == "linear":
                self._check(t.j, d.p)
                cols.append(x[:, t.j])
            elif t.kind == "square":
                self._check(t.j, d.p)
                cols.append(x[:, t.j] ** 2)
            elif t.kind == "interaction":
                self._check(t.j, d.p)
                self._check(t.k, d.p)
                cols.append(x[:, t.j] * x[:, t.k])
            elif t.kind == "arm":
                cols.append(z)
            elif t.kind == "arm_linear":
                self._check(t.j, d.p)
                cols.append(z * x[:, t.j])
        return np.column_stack(cols)

    @staticmethod
    def _check(j, p):
        if not 0 <= j < p:
            raise DataError(f"feature term references covariate {j + 1} outside dimension {p}")


def default_feature_map(p):
    """Intercept, each covariate, and each squared covariate."""
    terms = [FeatureTerm("intercept")]
    for j in range(p):
        terms.append(FeatureTerm("linear", j))
    for j in range(p):
        terms.append(FeatureTerm("square", j))
    return FeatureMap(tuple(terms))


def linear_feature_map(p):
    """Intercept plus each covariate, no squares."""
    terms = [FeatureTerm("intercept")] + [FeatureTerm("linear", j) for j in range(p)]
    return FeatureMap(tuple(terms))


def parse_feature_spec(spec, p):
    """Parse a comma-separated feature string, e.g. ``"x1,x1^2,x2,z"``.

    The intercept is implicit.  Accepted atoms: ``xJ``, ``xJ^2``,
    ``xJ*xK``, ``z``, ``z*xJ``.
    """
    terms = [FeatureTerm("intercept")]
    for atom in spec.split(","):
        atom = atom.strip().lower()
        if not atom:
            continue
        if atom == "z":
            terms.append(FeatureTerm("arm"))
        elif atom.startswith("z*"):
            terms.append(FeatureTerm("arm_linear", _covariate_index(atom[2:], p)))
        elif atom.endswith("^2"):
            terms.append(FeatureTerm("square", _covariate_index(atom[:-2], p)))
        elif "*" in atom:
            a, b = atom.split("*", 1)
            terms.append(FeatureTerm("interaction", _covariate_index(a, p), _covariate_index(b, p)))
        else:
            terms.append(FeatureTerm("linear", _covariate_index(atom, p)))
    return FeatureMap(tuple(terms))


def _covariate_index(atom, p):
    atom = atom.strip()
    if not atom.startswith("x"):
        raise DataError(f"cannot parse feature atom {atom!r}")
    try:
        j = int(atom[1:]) - 1
    except ValueError as exc:
        raise DataError(f"cannot parse feature atom {atom!r}") from exc
    if not 0 <= j < p:
        raise DataError(f"feature atom {atom!r} outside covariate dimension {p}")
    return j


@dataclass(frozen=True)
class LogisticFit:
    """Fitted membership model.

    ``ridge_lambda`` is zero for a plain maximum-likelihood fit and
    records the penalty actually used when the ridge path was engaged.
    ``fmap`` is the feature map the fit was made with; the fitted
    probabilities evaluate ``alpha`` on that map.  ``fitted_on`` is the
    Dataset the model was fitted on and ``weights`` (read-only) its
    importance weights from the fit's final probabilities, which
    :func:`compute_weights` attaches to that dataset instead of
    evaluating the map again.
    """

    alpha: np.ndarray
    converged: bool
    iterations: int
    deviance: float
    ridge_lambda: float
    fmap: FeatureMap
    fitted_on: object = field(default=None, repr=False, compare=False)
    weights: np.ndarray = field(default=None, repr=False, compare=False)


def _irls(F, t, lam):
    alpha = np.zeros(F.shape[1])
    for it in range(1, IRLS_MAX_ITER + 1):
        eta = F @ alpha
        pi = _sigmoid(eta)
        score = F.T @ (t - pi) - lam * alpha
        if np.max(np.abs(score)) <= IRLS_TOL:
            return alpha, True, it, eta
        h = pi * (1.0 - pi)
        H = weighted_transpose(F, h) @ F + lam * np.eye(F.shape[1])
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            return alpha, False, it, eta
        alpha = alpha + step
    return alpha, False, it, F @ alpha


def fit_membership(d, fmap=None):
    """Fit the target-membership logistic model over all N subjects.

    ``fmap`` defaults to :func:`default_feature_map`; the returned fit
    keeps it, so weights are computed on the same features.

    Convergence is declared when the largest absolute score-equation
    entry falls below ``IRLS_TOL`` within ``IRLS_MAX_ITER`` steps.  A
    singular Hessian, or non-convergence with any |linear predictor| > 30
    (separation signature), triggers a ridge retry with lambda = 1e-6
    escalating tenfold up to 1e-2.

    Raises
    ------
    DataError
        If the dataset is all-target or all-source.
    NumericalError
        If no fit converges even after ridge escalation.
    """
    if fmap is None:
        fmap = default_feature_map(d.p)
    t = d.is_target.astype(float)
    if t.sum() == 0 or t.sum() == len(t):
        raise DataError("membership fit needs both target and non-target subjects")
    F = fmap.matrix(d)

    alpha, ok, iters, eta = _irls(F, t, 0.0)
    lam = 0.0
    if not ok:
        separated = bool(np.max(np.abs(eta)) > 30)
        lam = 1e-6
        while lam <= 1e-2:
            alpha, ok, iters, eta = _irls(F, t, lam)
            if ok:
                break
            lam *= 10
        if not ok:
            reason = "separation persisted" if separated else "IRLS failed to converge"
            raise NumericalError(f"membership model did not converge ({reason}, ridge up to 1e-2)")
    pi = _probabilities(F, alpha)
    eps = np.finfo(float).tiny
    deviance = float(-2.0 * np.sum(t * np.log(pi + eps) + (1 - t) * np.log(1 - pi + eps)))
    weights = _importance_weights(d, pi)
    weights.flags.writeable = False
    return LogisticFit(alpha=alpha, converged=ok, iterations=iters,
                       deviance=deviance, ridge_lambda=float(lam), fmap=fmap,
                       fitted_on=d, weights=weights)


def _sigmoid(eta):
    """``1 / (1 + exp(-clip(eta, -500, 500)))``, computed in one new array."""
    pi = np.clip(eta, -500, 500)
    np.negative(pi, out=pi)
    np.exp(pi, out=pi)
    pi += 1.0
    return np.divide(1.0, pi, out=pi)


def _probabilities(F, alpha):
    return _sigmoid(F @ alpha)


def _importance_weights(d, pi):
    return (len(d) / d.n_target()) * pi


def membership_probabilities(d, fit):
    """Fitted pi(x) for every subject, on the feature map of ``fit``."""
    return _probabilities(fit.fmap.matrix(d), fit.alpha)


def compute_weights(d, fit, pin_target_weights=False):
    """Attach importance weights w = (N / n_T) * pi(x) to every subject.

    ``pin_target_weights`` is a diagnostic mode that forces weight 1 on
    target rows while reconstructed rows keep the estimated ratio.

    Raises
    ------
    NumericalError
        If any weight is non-finite.  Extremely disjoint covariate
        distributions make the ratio unstable; in that regime the
        analysis should fall back to the target rows alone.
    """
    if d.n_target() == 0:
        raise DataError("dataset has no target subjects")
    # on the rows the model was fitted on, the fit's read-only weights become the column
    w = fit.weights if d is fit.fitted_on else _importance_weights(
        d, membership_probabilities(d, fit))
    if not np.all(np.isfinite(w)):
        raise NumericalError(
            "non-finite importance weight: target and pooled covariate "
            "distributions are too far apart; analyze the target rows alone"
        )
    if pin_target_weights:
        w = np.where(d.is_target, 1.0, w)
    return d.with_weights(w)
