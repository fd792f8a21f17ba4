"""Scaled Bessel functions, kernel normalizers, and kernel moment integrals.

Everything here works in log space: the normalizer ``log_c_d`` stays finite
for concentration parameters up to 1e6, and the moment and coefficient
integrals only ever exponentiate differences of log normalizers, which are
O(log beta) even when the raw normalizers under- or overflow.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidArgumentError, NumericFailureError, _integer, _positive, _reals, _sign

__all__ = [
    "bessel_i_scaled",
    "log_c_d",
    "lemma_abc",
    "vmf_moments",
]


def bessel_i_scaled(nu: float, x) -> float | np.ndarray:
    """Exponentially scaled modified Bessel function exp(-x) I_nu(x).

    The order is one finite real number and the argument one or an array of
    them (integers or floats, not bools or strings); orders down to -1/2 are
    accepted, and the negative half-integer order backs the one-dimensional
    normalizer that ratio integrands occasionally need.  At x = 0 the value is
    1 for nu = 0, 0 for nu > 0 and +inf (the limit) for nu = -1/2.  Scalar in,
    scalar out; ndarray in, ndarray out.
    """
    nu = float(_reals("bessel order", nu, ()))
    if nu < -0.5:
        raise InvalidArgumentError(f"bessel order must be >= -1/2, got {nu}")
    x_val = _reals("bessel argument", x)
    if x_val.ndim == 0:
        x_val = float(x_val)
    if np.any(x_val < 0.0):
        raise InvalidArgumentError(f"bessel argument must be >= 0, got {x}")
    return _ive(nu, x_val)


# exp(-x) I_nu(x) is summed from its power series up to x = 25 + nu**2 / 2
# and from Hankel's asymptotic series above (Abramowitz & Stegun 9.6.10 and
# 9.7.1).  Above the switch, the exponentially small part that Hankel's series
# leaves out is below exp(-2 x) <= exp(-50) of the value, and
# (4 nu**2 - 1) / (8 x) < 1 keeps its terms falling from the first.
def _switch(nu: float) -> float:
    return 25.0 + 0.5 * nu * nu


# A series stops at its first term below exp(-40), about 4e-18, of its sum:
# past their peak the terms fall, and each is under half an ulp of the sum.
# The test is made on the one argument whose terms fall last.
_STOP = math.exp(-40.0)
# The power series' running sum is scaled down by an exact power of two when
# it passes 2**512, which leaves it room to grow before it could overflow.
# The sum is at most cosh x <= exp(x) for nu >= -1/2, so it can pass 2**512
# only above x = 512 log 2.
_BIG = 2.0**512
_SMALL = 2.0**-512
_RESCALE_FROM = 512 * math.log(2.0)
# log 2 split so that an integer below 2**21 times the high part is exact.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# Below this, x / 2 is subnormal and may round (to 0 at x = 5e-324).
_HALF_EXACT = 2.0**-1021
# The smallest normal float.
_TINY = 2.0**-1022


def _two_sum(a, b):
    """a + b and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _log_half(x):
    """log(x / 2) for x > 0, from log(x) - log(2) where x / 2 would round."""
    if isinstance(x, float):
        return math.log(0.5 * x) if x >= _HALF_EXACT else math.log(x) - math.log(2.0)
    small = x < _HALF_EXACT
    out = np.log(np.where(small, x, 0.5 * x))
    out[small] -= math.log(2.0)
    return out


def _ive_series(nu: float, x, log: bool = False):
    """exp(-x) I_nu(x) from the power series, for 0 < x <= the switch point,
    or its log with ``log``, which stays finite where the value underflows.

    I_nu(x) = (x/2)**nu / Gamma(nu + 1) * sum_k t_k, with t_0 = 1 and
    t_k = t_{k-1} (x/2)**2 / (k (k + nu)).  The sum is carried as s * 2**e;
    the leading factor's exponent nu log(x/2) - lgamma(nu + 1) - x + e log 2
    is summed as an unevaluated pair, so that its size (over 1000 at nu = 50)
    adds no rounding of its own.
    """
    xp = math if isinstance(x, float) else np
    # The largest argument's terms fall last.
    i = None if xp is math else int(x.argmax())
    rescale = (x if i is None else x[i]) > _RESCALE_FROM
    h = 0.5 * x
    t = 1.0 if xp is math else np.ones_like(x)
    s = 1.0 if xp is math else np.ones_like(x)
    e = 0
    for k in itertools.count(1):
        # h twice, not h * h once: a rounded square would enter t_k k times.
        t *= h
        t *= h / (k * (k + nu))
        s += t
        if rescale:
            big = s > _BIG
            scale = _SMALL**big
            s *= scale
            t *= scale
            e = e + 512 * big
        if (t if i is None else t[i]) < _STOP * (s if i is None else s[i]):
            break
    m, f = xp.frexp(s)
    e = e + (f - 1)
    hi, lo = nu * _log_half(x), 0.0
    for part in (-math.lgamma(nu + 1.0), -x, e * _LN2_HI, e * _LN2_LO):
        hi, err = _two_sum(hi, part)
        lo = lo + err
    if log:
        return hi + (xp.log(2.0 * m) + lo)
    r = (2.0 * m) * xp.exp(hi)
    return r + r * lo


def _ive_hankel(nu: float, x):
    """exp(-x) I_nu(x) from Hankel's series, for x above the switch point:
    sum_k u_k / sqrt(2 pi x), u_0 = 1, u_k = -u_{k-1} (4 nu**2 - (2k - 1)**2) / (8 k x).
    """
    xp = math if isinstance(x, float) else np
    # The smallest argument's terms fall last; at a half-integer order they
    # vanish from some term on.
    i = None if xp is math else int(x.argmin())
    mu = 4.0 * nu * nu
    w = 0.125 / x
    u = 1.0 if xp is math else np.ones_like(x)
    s = 1.0 if xp is math else np.ones_like(x)
    for k in itertools.count(1):
        u *= w
        u *= ((2 * k - 1) ** 2 - mu) / k
        s += u
        if abs(u if i is None else u[i]) < _STOP * (s if i is None else s[i]):
            break
    return s / xp.sqrt(2.0 * math.pi * x)


def _ive(nu: float, x):
    """exp(-x) I_nu(x) for a float nu >= -1/2 and a float, or a float array, x >= 0.

    A float x is worked on as a Python float throughout and returns a float.
    """
    at_zero = 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf)
    switch = _switch(nu)
    if isinstance(x, float):
        if x == 0.0:
            return at_zero
        return _ive_series(nu, x) if x <= switch else _ive_hankel(nu, x)
    out = np.full_like(x, at_zero)
    low = (x > 0.0) & (x <= switch)
    if np.any(low):
        out[low] = _ive_series(nu, x[low])
    high = x > switch
    if np.any(high):
        out[high] = _ive_hankel(nu, x[high])
    return out


def _log_ive(nu: float, x):
    """log(exp(-x) I_nu(x)) for x > 0, a float or a float array.

    Where the value falls below the smallest normal float (small x against a
    large nu, always on the power series' side of the switch), the log is
    summed from the series' parts instead, which do not underflow.
    """
    ive = _ive(nu, x)
    if isinstance(x, float):
        return np.log(ive) if ive >= _TINY else _ive_series(nu, x, log=True)
    tiny = ive < _TINY
    out = np.log(np.where(tiny, 1.0, ive))
    if np.any(tiny):
        out[tiny] = _ive_series(nu, x[tiny], log=True)
    return out


def _log_c_any(d: int, beta):
    """log of the concentration normalizer for any dimension d >= 1.

    C_d(b) = b^(d/2 - 1) / ((2 pi)^(d/2) I_{d/2-1}(b)).  A float beta is
    worked on as a float, an array as an array.
    """
    nu = 0.5 * d - 1.0
    return (
        nu * np.log(beta)
        - 0.5 * d * math.log(2.0 * math.pi)
        - (beta + _log_ive(nu, beta))
    )


def log_c_d(d: int, beta: float) -> float:
    """Log of the normalizing constant of the concentration kernel in dimension d.

    Requires an integer d >= 2 and beta > 0.  Stays finite for beta up to 1e6
    and beyond, where the raw constant underflows.
    """
    d = _integer("dimension", d, 2)
    return float(_log_c_any(d, _positive("concentration", beta)))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(n)``: the n Gauss-Legendre nodes and weights on [-1, 1].

    Computed once per n and shared by every caller, so both arrays are
    read-only.
    """
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# The radial ladder: 48 * 2^level Gauss-Legendre nodes at levels 0..6, until
# two successive levels agree within 1e-10 (absolute).  It tops out at 3072
# nodes because ``leggauss(n)`` solves a dense n x n eigenproblem: each
# further level would cost 8x the time and 4x the memory.
_RADIAL_NODES = 48
_RADIAL_TOL = 1e-10
_RADIAL_LEVELS = 6


def _radial_integral(integrand, b: float, what: str) -> np.ndarray:
    """Integrate over [0, b] on the radial ladder until successive levels agree.

    ``integrand(r, w)`` takes the nodes and weights of one level and returns
    the 1-d array of sums refined together; every component must move less
    than the tolerance between levels.  A level whose sums are not all finite
    raises at once, since no finer level can repair it.  Failures raise
    NumericFailureError carrying the last finite sums as ``best``.
    """
    half = 0.5 * b
    prev = None
    deltas = []
    for level in range(_RADIAL_LEVELS + 1):
        x, w = _gauss_legendre(_RADIAL_NODES << level)
        cur = np.asarray(integrand(half * (x + 1.0), half * w), dtype=float)
        if not np.all(np.isfinite(cur)):
            raise NumericFailureError(
                f"{what}: quadrature values are not finite at refinement level {level}",
                best=prev,
                diagnostics={"deltas": deltas, "level": level},
            )
        if prev is not None:
            delta = float(np.max(np.abs(cur - prev)))
            deltas.append(delta)
            if delta <= _RADIAL_TOL:
                return cur
        prev = cur
    raise NumericFailureError(
        f"{what}: quadrature did not converge to {_RADIAL_TOL:g} "
        f"after {_RADIAL_LEVELS} refinements",
        best=prev,
        diagnostics={"deltas": deltas},
    )


def _shell_moments(d: int, beta: float, r: np.ndarray, sigma: int):
    """The kernel C_d(beta) exp(sigma beta <v, s>) on the spheres |v| = r.

    Returns its mass on each sphere, r^(d-1) C_d(beta) / C_d(kappa) with
    kappa = beta r, and three moments of the directions u = v / r it weights:
    E<u, s> = sigma A, E<u, w>^2 = A / kappa for a unit w orthogonal to s, and
    E<u, s>^2 = A / kappa + I_{d/2+1}(kappa) / I_{d/2-1}(kappa), with
    A = I_{d/2}(kappa) / I_{d/2-1}(kappa) (Mardia & Jupp, Directional
    Statistics, 2000).  The last equals 1 - (d - 1) A / kappa by the Bessel
    recurrence, without that form's cancellation at large d.
    """
    nu = 0.5 * d - 1.0
    kappa = beta * r
    i_nu = _ive(nu, kappa)
    i_beta = _ive(nu, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = _ive(nu + 1.0, kappa) / i_nu
        ratio2 = _ive(nu + 2.0, kappa) / i_nu
        # C_d(beta) / C_d(kappa) = r^(-nu) I_nu(kappa) / I_nu(beta), each I_nu scaled.
        mass = r ** (0.5 * d) * np.exp(kappa - beta) * i_nu / i_beta
    # Where exp(-x) I_nu(x) falls below the smallest normal float at kappa or
    # at beta (large d), the ratios and the mass come from log differences.
    tiny = (i_nu < _TINY) | (i_beta < _TINY)
    if np.any(tiny):
        k = kappa[tiny]
        log_i = _log_ive(nu, k)
        ratio[tiny] = np.exp(_log_ive(nu + 1.0, k) - log_i)
        ratio2[tiny] = np.exp(_log_ive(nu + 2.0, k) - log_i)
        log_mass = 0.5 * d * np.log(r[tiny]) + (k - beta) + (log_i - _log_ive(nu, beta))
        mass[tiny] = np.exp(log_mass)
    perp = ratio / kappa
    return mass, sigma * ratio, perp, perp + ratio2


def lemma_abc(d: int, t: float):
    """Radial coefficient integrals (A, B, C) of the expansion at scale t.

    A(t) = int_0^1 (r/t) C_d(1/t)/C_d(r/t) dr
    B(t) = int_0^1  r    C_d(1/t)/C_d(r/t) dr = t A(t)
    C(t) = 2 pi [ t C_d(1/t)/C_{d-2}(1/t) - int_0^1 t C_d(1/t)/C_{d-2}(r/t) dr ]
           - (2 pi)^(d/2) C_d(1/t) / (3 Gamma(d/2 - 1))

    Requires an integer d >= 3 and t > 0.  All normalizer ratios are formed in
    log space.  Returns the tuple (A, B, C).
    """
    d = _integer("dimension", d, 3)
    t = _positive("scale", t)
    beta = 1.0 / t
    log_cd_beta = float(_log_c_any(d, beta))
    log_cdm2_beta = float(_log_c_any(d - 2, beta))
    # The constant term of C: (2 pi)^(d/2) C_d(1/t) / (3 Gamma(d/2 - 1)).
    log_const = (
        0.5 * d * math.log(2.0 * math.pi)
        + log_cd_beta
        - math.log(3.0)
        - math.lgamma(0.5 * d - 1.0)
    )
    try:
        c_const = math.exp(log_const)
    except OverflowError:
        raise NumericFailureError(
            f"lemma_abc: the constant term of C overflows at d = {d}, t = {t!r}",
            diagnostics={"log_const": log_const},
        ) from None
    c_head = 2.0 * math.pi * t * math.exp(log_cd_beta - log_cdm2_beta)

    def integrand(r, w) -> np.ndarray:
        ratio_d = np.exp(log_cd_beta - _log_c_any(d, r * beta))
        a_val = float(np.sum(w * (r / t) * ratio_d))
        ratio_dm2 = np.exp(log_cd_beta - _log_c_any(d - 2, r * beta))
        tail = float(np.sum(w * t * ratio_dm2))
        c_val = c_head - 2.0 * math.pi * tail - c_const
        return np.array([a_val, t * a_val, c_val])

    a_val, b_val, c_val = _radial_integral(integrand, 1.0, "lemma_abc")
    return float(a_val), float(b_val), float(c_val)


def vmf_moments(d: int, s, t: float, sigma: int = 1):
    """First and second moment integrals of the concentration kernel on the unit ball.

    The measure has density C_d(1/t) exp(sigma <s, x> / t) on {|x| <= 1}; its
    total mass is O(t), and the returned moments are the plain integrals
    m1 = int x dmu and m2 = int x x^T dmu, not mass-normalized ratios.  Both
    signs of the exponent are selectable; the default sigma = +1 is the one
    sign convention of the package (star weights, estimators, run configs).

    Returns (m1, m2) with m1 of shape (d,) and m2 symmetric (d, d).  m2 has
    eigenvector structure span{s} plus its orthogonal complement.
    """
    d = _integer("dimension", d, 2)
    s_arr = _reals("direction", s, (d,))
    norm = float(np.linalg.norm(s_arr))
    if abs(norm - 1.0) > 1e-8:
        raise InvalidArgumentError(f"direction must be a unit vector, |s| = {norm!r}")
    beta = 1.0 / _positive("scale", t)
    sigma = _sign(sigma)

    def integrand(r, w) -> np.ndarray:
        mass, mean, perp, par = _shell_moments(d, beta, r, sigma)
        w = w * mass * r
        return np.array([np.sum(w * mean), np.sum(w * r * par), np.sum(w * r * perp)])

    m1_par, raw_par, raw_perp = _radial_integral(integrand, 1.0, "vmf_moments")
    return m1_par * s_arr, raw_perp * np.eye(d) + (raw_par - raw_perp) * np.outer(s_arr, s_arr)
