"""Normal quantile and Student-t functions on ``math`` and ``statistics`` alone.  F(-|t|) is
I_x(df/2, 1/2) / 2, x = df / (df + t^2): a continued fraction below df = 30 or where
t^2 > 3 df / 7, else DiDonato and Morris' large-parameter expansion (BGRAT, ACM TOMS 708),
led at b = 1/2 by a normal tail.  Tails below about 1e-300 read as 0."""

import math
from functools import lru_cache
from statistics import NormalDist

_LN_PI = math.log(math.pi)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_norm_ppf = NormalDist().inv_cdf  # Wichura's AS241
_BGRAT_D = []  # d_1..d_20 of BGRAT's series at b = 1/2, from c_k = 1 / (2k + 1)!
for _k in range(1, 21):
    _BGRAT_D.append(sum((_i / 2 - _k) * _BGRAT_D[_k - _i - 1] / math.factorial(2 * _i + 1)
                        for _i in range(1, _k)) / _k - 0.5 / math.factorial(2 * _k + 1))


def _log_gamma_ratio(a):
    """ln Gamma(a + 1/2) - ln Gamma(a), a > 0: lgamma values of about a ln a cancel, so
    from a = 15 on it is the difference of Stirling's series, five terms of it."""
    if a < 15:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    s = [sum(b / x ** (2 * k + 1) for k, b in enumerate(_STIRLING)) for x in (a + 0.5, a)]
    return 0.5 * math.log(a) + (a * math.log1p(0.5 / a) - 0.5) + s[0] - s[1]


def _betacf(a, b, x):
    """I_x(a, b)'s continued fraction (modified Lentz), fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 300):
        for step in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + step * d or 1e-300)
            c = 1.0 + step / c or 1e-300
            h *= d * c
        if abs(d * c - 1.0) < 3e-16:
            break
    return h


def _t_cdf(df, t):
    """Student-t CDF on ``df`` > 0 degrees of freedom: 0 and 1 at -+inf, NaN at NaN."""
    t2 = t * t
    if not 1e-300 < t2 < math.inf:  # F rounds to 1/2 below |t| = 1e-150; t^2 overflows; NaN
        return 0.5 if t2 <= 1e-300 else float(t > 0) if t2 > 0 else t
    a, lnx, y = 0.5 * df, -math.log1p(t2 / df), t2 / (df + t2)  # ln x; y = 1 - x
    if a >= 15 and y < 0.3:  # BGRAT: Q(b, z) = erfc(sqrt(z)), r = z^b e^-z / Gamma(b)
        nu, z = a - 0.25, (0.25 - a) * lnx
        q, r = math.erfc(math.sqrt(z)), math.sqrt(z / math.pi) * math.exp(-z)
        if q == 0:
            return float(t > 0)
        v, h = 0.25 / (nu * nu), 0.25 * lnx * lnx
        j = total = q / r
        for n, dn in enumerate(_BGRAT_D):
            j = ((2 * n + 0.5) * (2 * n + 1.5) * j + (z + 2 * n + 1.5) * h ** n) * v
            total += dn * j
            if abs(dn * j) <= 1e-17 * total:
                break
        tail = 0.5 * math.exp(_log_gamma_ratio(a) - 0.5 * math.log(nu)) * r * total
    else:
        front = math.exp(a * lnx + 0.5 * math.log(y) - 0.5 * _LN_PI + _log_gamma_ratio(a))
        tail = (0.5 * front * _betacf(a, 0.5, df / (df + t2)) / a if y > 1.5 / (a + 2.5)
                else 0.5 - front * _betacf(0.5, a, y))  # x < (a + 1) / (a + 2.5): fast on x
    return tail if t < 0 else 1.0 - tail


@lru_cache(maxsize=256)
def _t_ppf(df, p):
    """Student-t quantile on ``df`` > 0 degrees of freedom, for 1e-300 < p < 1."""
    if p >= 0.5:
        return -_t_ppf(df, 1.0 - p) if p > 0.5 else 0.0  # 1 - p is exact here
    if df == 1:
        return -1.0 / math.tan(math.pi * p) if p < 0.25 else math.tan(math.pi * (p - 0.5))
    if df == 2:
        return (2 * p - 1) / math.sqrt(2 * p * (1 - p))
    log_c = _log_gamma_ratio(0.5 * df) - 0.5 * (_LN_PI + math.log(df))  # ln f(0)
    if 0.5 - p < 1e-5:  # F = 1/2 + f(0) t (1 - (df + 1) t^2 / (6 df) + O(t^4))
        u = (p - 0.5) / math.exp(log_c)
        return u * (1 + (df + 1) * u * u / (6 * df))
    x = _norm_ppf(p)  # Cornish-Fisher start, A&S 26.7.5
    w = x * x
    g = ((w + 1) / 4, ((5 * w + 16) * w + 3) / 96, (((3 * w + 19) * w + 17) * w - 15) / 384,
         ((((79 * w + 776) * w + 1482) * w - 1920) * w - 945) / 92160)
    t = x * (1 + sum(gk / df ** k for k, gk in enumerate(g, 1)))
    # capped at the root of F <= f(0) df^((df-1)/2) |t|^-df, beyond the quantile, from where
    # Newton steps on ln F, concave in s = ln|t|, descend to it
    s = min(math.log(-t), (log_c + 0.5 * (df - 1) * math.log(df) - math.log(p)) / df)
    for _ in range(50):
        log_tail = math.log(_t_cdf(df, -math.exp(s)))
        log_dens = log_c - 0.5 * (df + 1) * math.log1p(math.exp(2 * s) / df)
        step = (log_tail - math.log(p)) * math.exp(log_tail - s - log_dens)
        s += step
        if abs(step) < 1e-10:
            break
    return -math.exp(s)
