"""Treatment-effect estimators on a weighted pooled dataset.

Two estimators share the importance weights:

* :func:`estimate_univariate` — weighted difference of arm means with a
  plug-in variance built from weighted effective sample sizes.
* :func:`fit_weighted_regression` — weighted least squares with a
  heteroskedasticity-consistent sandwich covariance.  Three meat
  conventions are offered because the weight power in the middle matrix
  is a modelling choice with real coverage consequences:

  ``"w4"``   meat sum w^4 e^2 x x'  (weights enter the residual
             covariance squared; conservative in practice)
  ``"w3"``   meat sum w^3 e^2 x x'  (weights enter once; calibrated in
             the simulation settings shipped here)
  ``"hc0"``  meat sum w^2 e^2 x x'  (classical HC0 on the weighted
             score; anti-conservative when weights are informative)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigError, DataError, NumericalError

MEAT_KINDS = ("w4", "w3", "hc0")


def _statistic(est, se):
    """est / se; with se == 0, +-inf for a nonzero estimate and 0 for a zero one.

    A NaN estimate or SE gives NaN.  The survival functions map an
    infinite statistic to p = 0 and a NaN one to p = NaN, so an
    undefined contrast never reports a significant p-value.
    """
    if se == 0:
        return np.inf * np.sign(est) if est else 0.0
    return est / se


@dataclass(frozen=True)
class UnivariateEstimate:
    """Weighted difference in arm means with a normal-approximation CI."""

    delta: float
    variance: float
    se: float
    n_eff_treated: float
    n_eff_control: float
    ci_low: float
    ci_high: float
    z_stat: float
    p_value: float


def estimate_univariate(d, level=0.95):
    """Weighted arm-mean contrast delta = Ybar_w(1) - Ybar_w(0).

    Each arm mean is Ybar_w(z) = sum(w y) / n_eff(z) with effective size
    n_eff(z) = sum of weights in arm z.  The variance is

        var = s2_w(1) / n_eff(1) + s2_w(0) / n_eff(0),
        s2_w(z) = sum(w^2 (y - Ybar_w(z))^2) / n_eff(z),

    i.e. squared weights in the numerator, matching the influence of a
    weighted mean of independent observations.
    """
    w, y, z = d.w, d.y, d.z
    out = {}
    for arm in (0, 1):
        m = z == arm
        n_eff = float(w[m].sum())
        if n_eff <= 0:
            raise DataError(f"arm {arm} has zero total weight; contrast unestimable")
        mean = float(w[m] @ y[m] / n_eff)
        s2 = float((w[m] ** 2) @ (y[m] - mean) ** 2 / n_eff)
        out[arm] = (n_eff, mean, s2)
    n1, m1, s1 = out[1]
    n0, m0, s0 = out[0]
    delta = m1 - m0
    var = s1 / n1 + s0 / n0
    se = float(np.sqrt(var))
    zq = special.ndtri(0.5 + level / 2)
    zs = _statistic(delta, se)
    p = float(2 * special.ndtr(-abs(zs)))
    return UnivariateEstimate(
        delta=float(delta), variance=float(var), se=se,
        n_eff_treated=n1, n_eff_control=n0,
        ci_low=float(delta - zq * se), ci_high=float(delta + zq * se),
        z_stat=float(zs), p_value=p,
    )


@dataclass(frozen=True)
class WeightedFit:
    """Weighted least-squares fit with sandwich covariance.

    ``columns`` names the design columns; the treatment contrast is the
    ``"z"`` coefficient.  ``df`` is N - q, used for t-based intervals.
    """

    beta: np.ndarray
    cov_beta: np.ndarray
    columns: tuple
    n: int
    df: int
    meat: str
    n_eff_treated: float
    n_eff_control: float

    def coef(self, name):
        try:
            i = self.columns.index(name)
        except ValueError as exc:
            raise DataError(f"no column {name!r} in fit ({', '.join(self.columns)})") from exc
        # an ill-conditioned design can round a variance below zero: its SE is NaN
        var = self.cov_beta[i, i]
        return float(self.beta[i]), float(np.sqrt(var)) if var >= 0 else float("nan")

    def z_contrast(self, level=0.95):
        """Estimate, SE, CI, t and p of the ``z`` coefficient, on ``df`` degrees of freedom.

        NumericalError when the SE is not finite, since a NaN interval
        would be reported, or averaged, as a result.
        """
        est, se = self.coef("z")
        if not np.isfinite(se):
            raise NumericalError(f"standard error of the z contrast is {se}")
        tq = special.stdtrit(self.df, 0.5 + level / 2)
        t = _statistic(est, se)
        p = float(2 * special.stdtr(self.df, -abs(t)))
        return {
            "estimate": est, "se": se,
            "ci_low": est - tq * se, "ci_high": est + tq * se,
            "t_stat": float(t), "p_value": p,
        }


def build_outcome_design(d, include_covariates=True, include_interaction=False):
    """Column-major design matrix for the outcome regression, and its column names.

    ``include_covariates=False`` gives the deliberately coarse model
    (intercept and arm only).  ``include_interaction`` adds z*x columns,
    so it needs the covariates: without them it is a ConfigError.
    """
    if include_interaction and not include_covariates:
        raise ConfigError("the z*x interaction needs the covariates in the outcome model")
    names = ["intercept", "z"]
    if include_covariates:
        names += [f"x{j + 1}" for j in range(d.p)]
    if include_interaction:
        names += [f"z:x{j + 1}" for j in range(d.p)]
    X = np.empty((len(d), len(names)), order="F")
    X[:, 0] = 1.0
    X[:, 1] = d.z
    if include_covariates:
        X[:, 2:2 + d.p] = d.X
    if include_interaction:
        np.multiply(X[:, 1:2], d.X, out=X[:, 2 + d.p:])
    return X, tuple(names)


def weighted_transpose(A, v):
    """``A.T * v`` for an (N, q) matrix ``A``: the same values with the same strides.

    The design matrices here are column-major, so ``A.T`` is C-ordered
    and this fills it one column of ``A`` at a time, as q contiguous
    loops of length N.  It is kept over the broadcast, which gives the
    same values, for memory: on a small N the broadcast allocates a
    buffer as large as its output (tracemalloc peak 7.7 kB against
    3.8 kB at N = 100, q = 4, and 46 kB against 23 kB at N = 700, numpy
    2.4).  The result keeps ``A.T``'s layout for any ``A``, since BLAS
    can round a product with a C-ordered left factor differently.
    """
    out = np.empty_like(A.T)
    for j, col in enumerate(A.T):
        np.multiply(col, v, out=out[j])
    return out


def _wls(X, w, y, names):
    """Weighted least squares: returns (beta, bread) with bread = (X'WX)^{-1}.

    Rank is decided from the R factor of sqrt(w) X: a column whose
    diagonal entry is at most 1e-10 of the largest depends on the ones
    before it.  Such a design, or one whose normal equations are
    numerically singular, raises NumericalError naming the dependent
    columns (all of them when none stands out).
    """
    Xw = weighted_transpose(X, np.sqrt(w)).T
    diag = np.abs(np.diag(np.linalg.qr(Xw, mode="r")))
    bad = [names[i] for i in np.flatnonzero(diag <= diag.max() * 1e-10)]
    if not bad:
        XtW = weighted_transpose(X, w)
        try:
            # X'WX squares the condition number: inv can fail on a design of full rank
            bread = np.linalg.inv(XtW @ X)
            return bread @ (XtW @ y), bread
        except np.linalg.LinAlgError:
            pass
    raise NumericalError(
        "weighted design is rank deficient; dependent columns: " + ", ".join(bad or names))


def _fit(d, w, meat, include_covariates=True, include_interaction=False):
    """WLS of y on the outcome design under weights ``w``, with ``meat``'s covariance.

    "homoskedastic" gives SSR / (N - q) (X'WX)^{-1}; the sandwich kinds
    are described in :func:`fit_weighted_regression`.
    """
    X, names = build_outcome_design(d, include_covariates, include_interaction)
    y, z = d.y, d.z
    n, q = X.shape
    if n <= q:
        raise DataError(f"need more than {q} subjects to fit {q} coefficients, got {n}")
    n_eff = [float(w[z == arm].sum()) for arm in (0, 1)]
    for arm in (0, 1):
        if n_eff[arm] <= 0:
            raise DataError(f"arm {arm} has zero total weight; arm unestimable")
    beta, bread = _wls(X, w, y, names)
    e = y - X @ beta
    if meat == "homoskedastic":
        cov = float(e @ e) / (n - q) * bread
    else:
        power = {"w4": 4, "w3": 3, "hc0": 2}[meat]
        cov = bread @ (weighted_transpose(X, w ** power * e ** 2) @ X) @ bread
    return WeightedFit(beta=beta, cov_beta=cov, columns=names, n=n, df=n - q, meat=meat,
                       n_eff_treated=n_eff[1], n_eff_control=n_eff[0])


def fit_weighted_regression(d, include_covariates=True, include_interaction=False,
                            meat="w4"):
    """Importance-weighted WLS of y on (1, z[, x, z*x]) with sandwich SEs.

    beta solves X'WX beta = X'Wy.  The covariance is

        (X'WX)^{-1} M (X'WX)^{-1},   M = sum_i k_i e_i^2 x_i x_i'

    with k_i = w_i^4 ("w4"), w_i^3 ("w3"), or w_i^2 ("hc0").
    """
    if meat not in MEAT_KINDS:
        raise DataError(f"unknown meat {meat!r}; choose from {MEAT_KINDS}")
    return _fit(d, d.w, meat, include_covariates, include_interaction)


def fit_ols(d):
    """Ordinary least squares of y on (1, z, x) with the homoskedastic covariance.

    Ignores weights entirely: cov = sigma2_hat (X'X)^{-1} with
    sigma2_hat = SSR / (N - q), and ``n_eff_*`` count each arm's rows.
    This is the natural analysis of a single randomized trial and the
    comparator for the weighted fits.
    """
    return _fit(d, np.ones(len(d)), "homoskedastic")
