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

from .errors import DataError, NumericalError

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
        return float(self.beta[i]), float(np.sqrt(self.cov_beta[i, i]))

    def contrast(self, name="z", level=0.95):
        """Estimate, SE, CI, t and p for one coefficient."""
        est, se = self.coef(name)
        tq = special.stdtrit(self.df, 0.5 + level / 2)
        t = _statistic(est, se)
        p = float(2 * special.stdtr(self.df, -abs(t)))
        return {
            "estimate": est, "se": se,
            "ci_low": est - tq * se, "ci_high": est + tq * se,
            "t_stat": float(t), "p_value": p,
        }


def build_outcome_design(d, include_covariates=True, include_interaction=False):
    """Design matrix for the outcome regression.

    ``include_covariates=False`` gives the deliberately coarse model
    (intercept and arm only).  ``include_interaction`` adds z*x columns.
    """
    n = len(d)
    z = d.z.astype(float)
    cols = [np.ones(n), z]
    names = ["intercept", "z"]
    if include_covariates:
        x = d.X
        for j in range(d.p):
            cols.append(x[:, j])
            names.append(f"x{j + 1}")
        if include_interaction:
            for j in range(d.p):
                cols.append(z * x[:, j])
                names.append(f"z:x{j + 1}")
    return np.column_stack(cols), tuple(names)


def _wls(X, w, y, names):
    """Weighted least squares: returns (beta, bread) with bread = (X'WX)^{-1}.

    A design that is rank deficient under the weights, or whose normal
    equations are numerically singular, raises NumericalError naming the
    dependent columns, found from the QR diagonal of sqrt(w) X; the QR
    runs only on that path.
    """
    Xw = X * np.sqrt(w)[:, None]
    XtW = X.T * w
    try:
        if np.linalg.matrix_rank(Xw) < X.shape[1]:
            raise np.linalg.LinAlgError
        # X'WX squares the condition number: inv can fail on a design of full rank
        bread = np.linalg.inv(XtW @ X)
    except np.linalg.LinAlgError:
        diag = np.abs(np.diag(np.linalg.qr(Xw)[1]))
        bad = [names[i] for i in np.flatnonzero(diag <= diag.max() * 1e-10)]
        raise NumericalError(
            "weighted design is rank deficient; dependent columns: " + ", ".join(bad or names)
        ) from None
    return bread @ (XtW @ y), bread


def fit_weighted_regression(d, include_covariates=True, include_interaction=False,
                            meat="w4"):
    """Importance-weighted WLS of y on (1, z[, x, z*x]) with sandwich SEs.

    beta solves X'WX beta = X'Wy.  The covariance is

        (X'WX)^{-1} M (X'WX)^{-1},   M = sum_i k_i e_i^2 x_i x_i'

    with k_i = w_i^4 ("w4"), w_i^3 ("w3"), or w_i^2 ("hc0").
    """
    if meat not in MEAT_KINDS:
        raise DataError(f"unknown meat {meat!r}; choose from {MEAT_KINDS}")
    X, names = build_outcome_design(d, include_covariates, include_interaction)
    w, y, z = d.w, d.y, d.z
    n, q = X.shape
    if n <= q:
        raise DataError(f"need more than {q} subjects to fit {q} coefficients, got {n}")
    for arm in (0, 1):
        if w[z == arm].sum() <= 0:
            raise DataError(f"arm {arm} has zero total weight; arm unestimable")
    beta, bread = _wls(X, w, y, names)
    e = y - X @ beta
    power = {"w4": 4, "w3": 3, "hc0": 2}[meat]
    M = (X.T * (w ** power * e ** 2)) @ X
    cov = bread @ M @ bread
    return WeightedFit(
        beta=beta, cov_beta=cov, columns=names, n=n, df=n - q, meat=meat,
        n_eff_treated=float(w[z == 1].sum()), n_eff_control=float(w[z == 0].sum()),
    )


def fit_ols(d, include_covariates=True, include_interaction=False):
    """Ordinary least squares with the classical homoskedastic covariance.

    Ignores weights entirely: cov = sigma2_hat (X'X)^{-1} with
    sigma2_hat = SSR / (N - q).  This is the natural analysis of a
    single randomized trial and the comparator for the weighted fits.
    """
    X, names = build_outcome_design(d, include_covariates, include_interaction)
    y, z = d.y, d.z
    n, q = X.shape
    if n <= q:
        raise DataError(f"need more than {q} subjects to fit {q} coefficients, got {n}")
    for arm in (0, 1):
        if not np.any(z == arm):
            raise DataError(f"arm {arm} has no subjects; arm unestimable")
    beta, bread = _wls(X, np.ones(n), y, names)
    e = y - X @ beta
    sigma2 = float(e @ e) / (n - q)
    return WeightedFit(
        beta=beta, cov_beta=sigma2 * bread, columns=names, n=n, df=n - q,
        meat="homoskedastic",
        n_eff_treated=float(np.sum(z == 1)), n_eff_control=float(np.sum(z == 0)),
    )


def choose_model(identified):
    """Map a model-specification flag to outcome-design options.

    ``identified=True`` fits the full model with covariates and z*x
    interactions; ``False`` fits intercept and arm only.
    """
    if identified:
        return {"include_covariates": True, "include_interaction": True}
    return {"include_covariates": False, "include_interaction": False}
