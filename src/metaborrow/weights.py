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

A feature map is an implicit intercept plus terms, each a tuple of
factors: a covariate index or the arm indicator :data:`ARM`, whose
column is the product of the factors' columns.  The weights are a
product of the fit itself: :func:`fit_membership` returns the rows it was
fitted on with their weights from its final probabilities attached; the
map is never evaluated on other rows.

Fitting is Newton/IRLS from a zero start.  If that fit fails, through a
singular Hessian or no convergence within the step limit, it is retried
with an escalating ridge penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .estimate import weighted_transpose

ARM = "z"  # the arm-indicator factor of a feature term

IRLS_TOL = 1e-8  # convergence: largest absolute score-equation entry
IRLS_MAX_ITER = 100  # Newton steps per fit, each ridge retry included


@dataclass(frozen=True)
class FeatureMap:
    """An implicit intercept, then ``terms``: tuples of factors, each a
    covariate index or :data:`ARM`, whose column is their product.

    Build with :func:`default_feature_map` (each covariate and its
    square) or :func:`parse_feature_spec` for CLI strings like
    ``"x1,x1^2,x2"``.
    """

    terms: tuple

    def matrix(self, d):
        """Evaluate the feature matrix over a Dataset: ones, then one column per term.

        The matrix is column-major, so the IRLS products read contiguous columns.
        """
        x, z = d.X, d.z.astype(float)
        F = np.empty((len(d), 1 + len(self.terms)), order="F")
        F[:, 0] = 1.0
        for i, term in enumerate(self.terms, start=1):
            for f in term:
                if f != ARM and not 0 <= f < d.p:
                    raise DataError(
                        f"feature term references covariate {f + 1} outside dimension {d.p}")
            F[:, i] = reduce(np.multiply, [z if f == ARM else x[:, f] for f in term])
        return F


def default_feature_map(p):
    """Intercept, each covariate, and each squared covariate."""
    return FeatureMap(tuple((j,) for j in range(p)) + tuple((j, j) for j in range(p)))


def parse_feature_spec(spec, p):
    """Parse a comma-separated feature string, e.g. ``"x1,x1^2,x2,z"``.

    The intercept is implicit.  Accepted atoms: ``xJ``, ``xJ^2``,
    ``xJ*xK``, ``z``, ``z*xJ``.  The spec is a setting, so a malformed
    one is a ConfigError, as is one that repeats a term in any spelling
    (``x1*x2`` and ``x2*x1``, ``x1^2`` and ``x1*x1``): the repeated
    column would leave the membership fit singular.
    """
    terms, seen = [], {}
    for atom in spec.split(","):
        atom = atom.strip().lower()
        if atom == "z":
            term = (ARM,)
        elif atom.startswith("z*"):
            term = (ARM, _covariate_index(atom[2:], p))
        elif atom.endswith("^2"):
            term = (_covariate_index(atom[:-2], p),) * 2
        elif atom:
            term = tuple(_covariate_index(f, p) for f in atom.split("*", 1))
        else:
            continue
        key = tuple(sorted(term, key=str))  # the factors in one order
        if key in seen:
            raise ConfigError(f"feature atom {atom!r} repeats {seen[key]!r}")
        seen[key] = atom
        terms.append(term)
    return FeatureMap(tuple(terms))


def _covariate_index(atom, p):
    atom = atom.strip()
    if not atom.startswith("x"):
        raise ConfigError(f"cannot parse feature atom {atom!r}")
    try:
        j = int(atom[1:]) - 1
    except ValueError as exc:
        raise ConfigError(f"cannot parse feature atom {atom!r}") from exc
    if not 0 <= j < p:
        raise ConfigError(f"feature atom {atom!r} outside covariate dimension {p}")
    return j


@dataclass(frozen=True)
class LogisticFit:
    """Fitted membership model.

    ``ridge_lambda`` is zero for a plain maximum-likelihood fit and
    records the penalty actually used when the ridge path was engaged.
    ``weighted`` is the Dataset the model was fitted on, with its read-only
    importance weights from the fit's final probabilities attached.
    """

    alpha: np.ndarray
    converged: bool
    iterations: int
    deviance: float
    ridge_lambda: float
    weighted: object = field(default=None, repr=False, compare=False)


def _irls(F, t, lam):
    """Newton steps from zero: (alpha, converged, steps, pi).

    ``pi`` is the sigmoid of ``F @ alpha`` for the returned alpha when
    the fit converged, None otherwise.
    """
    alpha, ridge = np.zeros(F.shape[1]), lam * np.eye(F.shape[1])
    for it in range(1, IRLS_MAX_ITER + 1):
        pi = _sigmoid(F @ alpha)
        score = F.T @ (t - pi) - lam * alpha
        if np.max(np.abs(score)) <= IRLS_TOL:
            return alpha, True, it, pi
        h = np.multiply(pi, 1.0 - pi, out=pi)  # the Newton weights, in pi's buffer
        H = weighted_transpose(F, h) @ F + ridge
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            return alpha, False, it, None
        alpha = alpha + step
    return alpha, False, it, None


def fit_membership(d, fmap=None):
    """Fit the target-membership logistic model over all N subjects.

    ``fmap`` defaults to :func:`default_feature_map`.  The returned fit's
    ``weighted`` is ``d`` with its importance weights w = (N / n_T) * pi(x)
    attached, pi the probabilities of the fit's last IRLS step.

    Convergence is declared when the largest absolute score-equation
    entry falls below ``IRLS_TOL`` within ``IRLS_MAX_ITER`` steps.  A
    failed plain fit (a singular Hessian, or no convergence) is retried with
    ridge lambda = 1e-6, escalating tenfold up to 1e-2; if all fail, the
    error names separation when the plain fit ended with any |eta| > 30.

    Raises
    ------
    DataError
        If the dataset is all-target or all-source.
    NumericalError
        If no fit converges even after ridge escalation, or if a weight is
        non-finite (target and pooled covariates too far apart).
    """
    if fmap is None:
        fmap = default_feature_map(d.p)
    t = d.is_target.astype(float)
    if t.sum() == 0 or t.sum() == len(t):
        raise DataError("membership fit needs both target and non-target subjects")
    F = fmap.matrix(d)

    alpha, ok, iters, pi = _irls(F, t, 0.0)
    lam = 0.0
    if not ok:
        separated = bool(np.max(np.abs(F @ alpha)) > 30)
        lam = 1e-6
        while lam <= 1e-2:
            alpha, ok, iters, pi = _irls(F, t, lam)
            if ok:
                break
            lam *= 10
        if not ok:
            reason = "separation persisted" if separated else "IRLS failed to converge"
            raise NumericalError(f"membership model did not converge ({reason}, ridge up to 1e-2)")
    # for t in {0, 1}, the bits of t log(pi + eps) + (1 - t) log(1 - pi + eps)
    ll = np.where(d.is_target, pi, 1 - pi) + np.finfo(float).tiny
    deviance = float(-2.0 * np.sum(np.log(ll, out=ll)))
    weights = np.multiply(pi, len(d) / d.n_target(), out=pi)
    if not np.all(np.isfinite(weights)):
        raise NumericalError(
            "non-finite importance weight: target and pooled covariate "
            "distributions are too far apart; analyze the target rows alone"
        )
    weights.flags.writeable = False
    return LogisticFit(alpha=alpha, converged=ok, iterations=iters, deviance=deviance,
                       ridge_lambda=float(lam), weighted=d.with_weights(weights))


def _sigmoid(eta):
    """``1 / (1 + exp(-clip(eta, -500, 500)))``, computed in ``eta``'s buffer."""
    pi = np.clip(eta, -500, 500, out=eta)
    np.negative(pi, out=pi)
    np.exp(pi, out=pi)
    pi += 1.0
    return np.divide(1.0, pi, out=pi)
