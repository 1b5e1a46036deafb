"""Random-effects meta-regression on arm-level aggregate data.

The regression is defined at the arm level: each row of a
:class:`metaborrow.data.Summaries` table is one design row, with
response equal to the arm's outcome mean, variance equal to the
variance of that mean (``y_var / n``), and design vector
``(1, arm, covariate means...)``, optionally extended with arm-by-mean
interaction columns.  :func:`fit_dl` takes the table itself and
stacks the design from its columns, so the design never leaves the
fit.  For p covariates there are exactly two layouts, and
:func:`design_columns` names them; reconstruction checks a fit
against them.  Between-trial heterogeneity is estimated with the
moment (DerSimonian-Laird) estimator generalized to regression via the
trace formula, then folded back into the row variances for the final
weighted least-squares fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._dist import _norm_ppf
from .errors import DataError, NumericalError
from .estimate import _check_rank, _wls, check_level, weighted_transpose


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


def design_columns(p, include_interaction=False):
    """The meta design's column names for ``p`` covariates.

    ``(intercept, arm, x1_mean, ..., xp_mean)``, followed by
    ``(arm:x1_mean, ..., arm:xp_mean)`` when ``include_interaction``.
    :func:`fit_dl` names its columns with it, and reconstruction
    accepts a fit only when its columns are one of these two layouts.
    """
    means = tuple(f"x{j}_mean" for j in range(1, p + 1))
    return ("intercept", "arm") + means + (
        tuple(f"arm:{m}" for m in means) if include_interaction else ())


@np.errstate(over="ignore", invalid="ignore")
def fit_dl(s, include_interaction=False):
    """Fit the meta-regression on Summaries table ``s``, one design row per arm.

    Each row enters with response ``y_mean`` and variance ``v = y_var / n``;
    the design is ``(1, arm, x_mean...)``, plus the ``arm * x_mean``
    columns when ``include_interaction``, named by :func:`design_columns`.
    Stage 1 is fixed-effect weighted least squares with weights ``1/v``.
    Its residuals give ``Q = sum(e**2 / v)`` and the moment denominator
    ``c = tr(W) - tr((X'WX)^-1 X'W^2X)``, hence
    ``tau2 = max(0, (Q - (R - q)) / c)``.  Stage 2 refits with weights
    ``1/(v + tau2)``; the returned covariance is ``(X'W*X)^-1``.

    Raises
    ------
    DataError
        If an arm is empty or has zero outcome variance, fewer rows than
        ``q + 1`` remain, or all rows share one arm value (treatment
        coefficient unidentifiable).
    NumericalError
        If the weighted design is rank deficient in either stage (names
        the dependent columns), Q or tau2 is not finite, or the refit's
        coefficients or covariance are not.
    """
    empty = s.n < 1
    v = s.y_var / np.maximum(s.n, 1)  # an empty arm is rejected, whatever its v
    bad = np.flatnonzero(empty | ~(v > 0))
    if len(bad):
        i = bad[0]
        problem = "empty arm in meta design" if empty[i] else "zero-variance arm rejected"
        raise DataError(f"trial {s.trial_ids[s.trial[i]]!r} arm {s.arm[i]}: {problem}")
    arm = s.arm.astype(float)
    X = np.column_stack([np.ones(len(s)), arm, s.x_mean]
                        + ([arm[:, None] * s.x_mean] if include_interaction else []))
    R, q = X.shape
    if R < q + 1:
        raise DataError(f"meta design needs at least {q + 1} arm rows, got {R}")
    if s.arm.all() or not s.arm.any():
        raise DataError("all arm rows share one arm value: treatment coefficient unidentifiable")
    y, columns = s.y_mean, design_columns(s.p, include_interaction)
    w1 = 1.0 / v
    _check_rank(weighted_transpose(X, np.sqrt(w1)).T, columns)
    beta_fe, Ainv = _wls(X, w1, y, columns)
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
    _check_rank(weighted_transpose(X, np.sqrt(w2)).T, columns)
    beta, cov = _wls(X, w2, y, columns)
    if not (np.isfinite(beta).all() and np.isfinite(cov).all()):
        raise NumericalError(f"meta-regression fit not finite at tau2 = {tau2}")
    return MetaFit(beta=beta, cov_beta=cov, tau2=float(tau2), q_stat=q_stat,
                   df=R - q, columns=columns)


def meta_se(fit, level=0.95):
    """Per-coefficient standard errors and normal-quantile confidence bounds.

    Returns
    -------
    (se, ci_low, ci_high) : three np.ndarray aligned with ``fit.beta``.
    """
    se = np.sqrt(np.diag(fit.cov_beta))
    zq = -_norm_ppf((1 - check_level(level)) / 2)
    return se, fit.beta - zq * se, fit.beta + zq * se
