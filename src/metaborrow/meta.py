"""Random-effects meta-regression on arm-level aggregate data.

The regression is defined at the arm level: each trial contributes one
row per arm, with response equal to the arm's outcome mean, variance
equal to the variance of that mean (``y_var / n``), and design vector
``(1, arm, covariate means...)``, optionally extended with arm-by-mean
interaction columns.  Between-trial heterogeneity is estimated with the
moment (DerSimonian-Laird) estimator generalized to regression via the
trace formula, then folded back into the row variances for the final
weighted least-squares fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DataError, NumericalError
from .estimate import _wls


@dataclass(frozen=True)
class MetaDesign:
    """Arm-level design: responses y, mean-variances v, design matrix X."""

    y: np.ndarray
    v: np.ndarray
    X: np.ndarray
    columns: tuple

    @property
    def q(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class MetaFit:
    """Fitted meta-regression: coefficients, covariance, heterogeneity.

    Attributes
    ----------
    beta : np.ndarray
        Coefficient vector, ordered as ``columns``.
    cov_beta : np.ndarray
        Covariance of ``beta`` from the final weighted fit.
    tau2 : float
        Truncated moment estimate of between-trial variance (>= 0).
    q_stat : float
        Heterogeneity statistic from the fixed-effect stage.
    df : int
        Residual degrees of freedom (rows minus design columns).
    columns : tuple
        Design column names, e.g. ``("intercept", "arm", "x1")``.
    """

    beta: np.ndarray
    cov_beta: np.ndarray
    tau2: float
    q_stat: float
    df: int
    columns: tuple


def build_design(trials, covariate_selector=None, include_interaction=False):
    """Assemble the arm-level MetaDesign from trial summaries.

    Parameters
    ----------
    trials : list of TrialSummary
    covariate_selector : sequence of int or None
        Zero-based covariate indices to include; None means all.
    include_interaction : bool
        Also add ``arm * x_mean`` columns for the selected covariates.

    Raises
    ------
    DataError
        If the trials differ in covariate dimension, fewer rows than
        ``q + 1`` remain, or all rows share one arm value (treatment
        coefficient unidentifiable).
    """
    rows_y, rows_v, rows_x = [], [], []
    arms_seen = set()
    p = trials[0].p if trials else 0
    sel = list(range(p)) if covariate_selector is None else list(covariate_selector)
    for t in trials:
        if t.p != p:
            raise DataError(f"trial {t.trial_id!r}: covariate dimension {t.p} differs from "
                            f"dimension {p} of trial {trials[0].trial_id!r}")
        for a in t.arms:
            if a.n < 1:
                raise DataError(f"trial {a.trial_id!r} arm {a.arm}: empty arm in meta design")
            v = a.y_var / a.n
            if not v > 0:
                raise DataError(f"trial {a.trial_id!r} arm {a.arm}: zero-variance arm rejected")
            x = [1.0, float(a.arm)] + [a.x_mean[j] for j in sel]
            if include_interaction:
                x += [a.arm * a.x_mean[j] for j in sel]
            rows_y.append(a.y_mean)
            rows_v.append(v)
            rows_x.append(x)
            arms_seen.add(a.arm)
    columns = ["intercept", "arm"] + [f"x{j + 1}_mean" for j in sel]
    if include_interaction:
        columns += [f"arm:x{j + 1}_mean" for j in sel]
    X = np.asarray(rows_x, dtype=float)
    q = X.shape[1]
    if len(rows_y) < q + 1:
        raise DataError(f"meta design needs at least {q + 1} arm rows, got {len(rows_y)}")
    if len(arms_seen) < 2:
        raise DataError("all arm rows share one arm value: treatment coefficient unidentifiable")
    return MetaDesign(np.asarray(rows_y), np.asarray(rows_v), X, tuple(columns))


def fit_dl(design):
    """Fit the meta-regression with a moment estimate of heterogeneity.

    Stage 1 is fixed-effect weighted least squares with weights ``1/v``.
    Its residuals give ``Q = sum(e**2 / v)`` and the moment denominator
    ``c = tr(W) - tr((X'WX)^-1 X'W^2X)``, hence
    ``tau2 = max(0, (Q - (R - q)) / c)``.  Stage 2 refits with weights
    ``1/(v + tau2)``; the returned covariance is ``(X'W*X)^-1``.

    Raises
    ------
    NumericalError
        If the weighted design is rank deficient in either stage (names
        the dependent columns), or Q or tau2 is not finite.
    """
    y, v, X = design.y, design.v, design.X
    R, q = X.shape
    w1 = 1.0 / v
    beta_fe, Ainv = _wls(X, w1, y, design.columns)
    resid = y - X @ beta_fe
    q_stat = float(np.sum(resid**2 * w1))
    c = float(np.sum(w1) - np.trace(Ainv @ ((X.T * w1**2) @ X)))
    if c <= 0:
        raise NumericalError("nonpositive moment denominator in heterogeneity estimate")
    tau2 = (q_stat - (R - q)) / c
    if not (np.isfinite(q_stat) and np.isfinite(tau2)):
        raise NumericalError(f"heterogeneity estimate not finite: Q = {q_stat}, tau2 = {tau2}")
    tau2 = max(0.0, tau2)
    w2 = 1.0 / (v + tau2)
    beta, cov = _wls(X, w2, y, design.columns)
    return MetaFit(beta=beta, cov_beta=cov, tau2=float(tau2), q_stat=q_stat,
                   df=R - q, columns=design.columns)


def meta_se(fit, level=0.95):
    """Per-coefficient standard errors and normal-quantile confidence bounds.

    Returns
    -------
    (se, ci_low, ci_high) : three np.ndarray aligned with ``fit.beta``.
    """
    se = np.sqrt(np.diag(fit.cov_beta))
    zq = special.ndtri(0.5 + level / 2.0)
    return se, fit.beta - zq * se, fit.beta + zq * se
