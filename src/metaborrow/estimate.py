"""Treatment-effect estimators on a weighted pooled dataset.

Two estimators share the importance weights, and each gives its
treatment effect as one :class:`Contrast` (estimate, SE, interval,
statistic, p-value), built by one constructor that refuses a contrast
that is not estimable (a standard error that is not finite and positive,
or an estimate, statistic or interval that is not finite):

* :func:`estimate_univariate` — weighted difference of arm means with a
  plug-in variance built from weighted effective sample sizes, on the
  normal reference.
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

  Its contrast, :meth:`WeightedFit.z_contrast`, is t-based on the fit's
  residual degrees of freedom.

Intervals and p-values use ``math.erfc`` and :mod:`metaborrow._dist` (standard library only),
within 1e-12 relative of scipy.special and of mpmath over df 1 to 48,000 (tests/test_dist.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from ._dist import _norm_ppf, _t_cdf, _t_ppf
from .errors import ConfigError, DataError, NumericalError

MEAT_KINDS = ("w4", "w3", "hc0")
_EPS = np.finfo(float).eps
_RANK_DEFICIENT = "weighted design is rank deficient; dependent columns: "


def check_level(level):
    """``level``; ConfigError (exit 2) unless it is a real number in (0, 1), which NaN is not."""
    if not (isinstance(level, Real) and 0 < level < 1):
        raise ConfigError(f"level must be a number in (0, 1), got {level!r}")
    return level


@dataclass(frozen=True)
class Contrast:
    """One treatment contrast: estimate, SE, interval, statistic and two-sided p-value.

    ``df`` is the Student-t reference's degrees of freedom; None means the
    normal reference.
    """

    estimate: float
    se: float
    ci_low: float
    ci_high: float
    stat: float
    p_value: float
    df: int = None

    def to_dict(self):
        """JSON-ready dict: the statistic is ``t_stat`` on a t reference and ``z_stat`` on
        the normal; ``df`` is not written."""
        return {"estimate": self.estimate, "se": self.se, "ci_low": self.ci_low,
                "ci_high": self.ci_high, "z_stat" if self.df is None else "t_stat": self.stat,
                "p_value": self.p_value}


def _contrast(est, se, level, df=None):
    """The Contrast of ``est`` with standard error ``se`` at ``level``, on ``df`` (t) or None
    (normal).

    NumericalError unless the SE is finite and positive and the estimate,
    the statistic and the interval are finite: a NaN interval would be
    reported, or averaged, as a result, and an SE of 0 would give an
    infinite statistic and p = 0, a significant p-value for a contrast
    that is not estimable.
    """
    if not 0 < se < math.inf:
        raise NumericalError(f"standard error of the z contrast is {se}")
    tail = (1 - check_level(level)) / 2
    q = -(_norm_ppf(tail) if df is None else _t_ppf(df, tail))
    stat, lo, hi = est / se, est - q * se, est + q * se
    if not (math.isfinite(stat) and math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError(f"z contrast not finite: estimate {est}, standard error {se}, "
                             f"statistic {stat}, interval [{lo}, {hi}]")
    # 2 Phi(-|stat|) through erfc, without cancellation
    p = math.erfc(abs(stat) * math.sqrt(0.5)) if df is None else 2 * _t_cdf(df, -abs(stat))
    return Contrast(est, se, lo, hi, stat, p, df)


def _arm_weights(z, w):
    """[control, treated] sums of the weights ``w`` over the arms ``z``; DataError for an arm
    whose sum is not positive, since its contrast has no rows to stand on."""
    n_eff = [float(w[z == arm].sum()) for arm in (0, 1)]
    for arm in (0, 1):
        if n_eff[arm] <= 0:
            raise DataError(f"arm {arm} has zero total weight; contrast unestimable")
    return n_eff


@np.errstate(over="ignore", invalid="ignore")
def estimate_univariate(d, level=0.95):
    """The Contrast of weighted arm means, delta = Ybar_w(1) - Ybar_w(0), on the normal.

    Each arm mean is Ybar_w(z) = sum(w y) / n_eff(z) with effective size
    n_eff(z) = sum of weights in arm z.  The variance is

        var = s2_w(1) / n_eff(1) + s2_w(0) / n_eff(0),
        s2_w(z) = sum(w^2 (y - Ybar_w(z))^2) / n_eff(z),

    i.e. squared weights in the numerator, matching the influence of a
    weighted mean of independent observations.  An arm whose Kish
    effective size n_eff(z)^2 / sum(w^2) is at most 1 (one row, say) is a
    NumericalError: its variance has no degrees of freedom.
    """
    w, y, z = d.w, d.y, d.z
    arms = []
    for arm, n in enumerate(_arm_weights(z, w)):
        m = z == arm
        w2 = w[m] ** 2
        if n * n <= w2.sum() < np.inf:  # an overflowing sum w^2 gives an infinite SE instead
            raise NumericalError(f"arm {arm} has Kish effective size (sum w)^2 / sum w^2 <= 1;"
                                 " its variance is not estimable")
        mean = float(w[m] @ y[m] / n)
        arms.append((mean, float(w2 @ (y[m] - mean) ** 2 / n) / n))
    (m0, v0), (m1, v1) = arms
    return _contrast(m1 - m0, float(np.sqrt(v1 + v0)), level)


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
        """The Contrast of the ``z`` coefficient, t-based on ``df`` degrees of freedom;
        NumericalError when its SE is not finite."""
        return _contrast(*self.coef("z"), level, self.df)


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


def _check_rank(Xw, names):
    """NumericalError naming each column of ``Xw`` = sqrt(w) X whose R-factor diagonal entry
    is at most 1e-10 of the largest: it depends on the ones before it.  qr copies ``Xw``, so
    :func:`_fit` builds X only after dropping it: two N x q arrays live, not three."""
    diag = np.abs(np.diag(np.linalg.qr(Xw, mode="r")))
    bad = [names[i] for i in np.flatnonzero(diag <= diag.max() * 1e-10)]
    if bad:
        raise NumericalError(_RANK_DEFICIENT + ", ".join(bad))


def _wls(X, w, y, names):
    """WLS on a design that passed :func:`_check_rank`: (beta, bread), bread = (X'WX)^{-1}.
    X'WX squares the condition number, so inv can still fail: NumericalError naming all."""
    XtW = weighted_transpose(X, w)
    try:
        bread = np.linalg.inv(XtW @ X)
    except np.linalg.LinAlgError:
        raise NumericalError(_RANK_DEFICIENT + ", ".join(names)) from None
    return bread @ (XtW @ y), bread


def _check_residuals(e, y, w):
    """NumericalError when every positive-weight residual ``e`` is within 64 ulps of the
    largest outcome: max|e| <= 64 eps max|y|.  The fit is then exact to rounding, and a
    sandwich SE built from those residuals measures only rounding, not the data.  Non-finite
    residuals or outcomes pass on to the contrast's own checks."""
    if not w.all():  # rows of weight 0 are not fitted
        live = w > 0
        e, y = e[live], y[live]
    e_max, y_max = np.abs(e).max(), np.abs(y).max()
    if e_max <= 64 * _EPS * y_max < np.inf:
        raise NumericalError(f"outcome fit is exact to rounding (max |residual| {e_max:.3g},"
                             f" max |y| {y_max:.3g}); its standard errors are not estimable")


@np.errstate(over="ignore", invalid="ignore")
def _fit(d, w, meat, include_covariates=True, include_interaction=False):
    """WLS of y on the outcome design under weights ``w``, with ``meat``'s covariance.

    "homoskedastic" gives SSR / (N - q) (X'WX)^{-1}; the sandwich kinds
    are described in :func:`fit_weighted_regression`.
    """
    Xw, names = build_outcome_design(d, include_covariates, include_interaction)
    y, z = d.y, d.z
    n, q = Xw.shape
    if n <= q:
        raise DataError(f"need more than {q} subjects to fit {q} coefficients, got {n}")
    n_eff = _arm_weights(z, w)
    Xw *= np.sqrt(w)[:, None]
    _check_rank(Xw, names)
    del Xw
    X = build_outcome_design(d, include_covariates, include_interaction)[0]
    beta, bread = _wls(X, w, y, names)
    e = y - X @ beta
    _check_residuals(e, y, w)
    if meat == "homoskedastic":
        cov = float(e @ e) / (n - q) * bread
    else:
        power = {"w4": 4, "w3": 3, "hc0": 2}[meat]
        e *= e  # the meat's row weights e^2 w^power, formed in e's buffer
        e *= np.power(w, power)
        cov = bread @ (weighted_transpose(X, e) @ X) @ bread
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
        raise ConfigError(f"unknown meat {meat!r}; choose from {MEAT_KINDS}")
    return _fit(d, d.w, meat, include_covariates, include_interaction)


def fit_ols(d):
    """Ordinary least squares of y on (1, z, x) with the homoskedastic covariance.

    Ignores weights entirely: cov = sigma2_hat (X'X)^{-1} with
    sigma2_hat = SSR / (N - q), and ``n_eff_*`` count each arm's rows.
    This is the natural analysis of a single randomized trial and the
    comparator for the weighted fits.
    """
    return _fit(d, np.ones(len(d)), "homoskedastic")
