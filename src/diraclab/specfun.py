"""Scaled Bessel functions, kernel normalizers, and kernel moment integrals.

Everything here works in log space: the normalizer ``log_c_d`` stays finite
for concentration parameters up to 1e6, and the moment and coefficient
integrals only ever exponentiate differences of log normalizers, which are
O(log beta) even when the raw normalizers under- or overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

from .errors import InvalidArgumentError, NumericFailureError

__all__ = [
    "bessel_i_scaled",
    "log_c_d",
    "QuadratureRule",
    "lemma_abc",
    "vmf_moments",
]


def bessel_i_scaled(nu: float, x) -> float | np.ndarray:
    """Exponentially scaled modified Bessel function exp(-x) I_nu(x).

    Orders down to -1/2 are accepted; the negative half-integer order backs
    the one-dimensional normalizer that ratio integrands occasionally need.
    Scalar in, scalar out; ndarray in, ndarray out.
    """
    if not np.all(np.isfinite(nu)):
        raise InvalidArgumentError("bessel order must be finite")
    if np.any(np.asarray(nu) < -0.5):
        raise InvalidArgumentError(f"bessel order must be >= -1/2, got {nu}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise InvalidArgumentError("bessel argument must be finite")
    if np.any(x_arr < 0.0):
        raise InvalidArgumentError(f"bessel argument must be >= 0, got {x}")
    out = special.ive(nu, x_arr)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def _log_bessel_i(nu: float, x) -> np.ndarray:
    """log I_nu(x) for x > 0, via the scaled function: x + log(ive(nu, x))."""
    x_arr = np.asarray(x, dtype=float)
    return x_arr + np.log(special.ive(nu, x_arr))


def _log_c_any(d: int, beta) -> np.ndarray:
    """log of the concentration normalizer for any dimension d >= 1.

    C_d(b) = b^(d/2 - 1) / ((2 pi)^(d/2) I_{d/2-1}(b)).
    """
    beta_arr = np.asarray(beta, dtype=float)
    nu = 0.5 * d - 1.0
    return (
        nu * np.log(beta_arr)
        - 0.5 * d * math.log(2.0 * math.pi)
        - _log_bessel_i(nu, beta_arr)
    )


def log_c_d(d: int, beta: float) -> float:
    """Log of the normalizing constant of the concentration kernel in dimension d.

    Requires an integer d >= 2 and beta > 0.  Stays finite for beta up to 1e6
    and beyond, where the raw constant underflows.
    """
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise InvalidArgumentError(f"dimension must be an integer, got {d!r}")
    if d < 2:
        raise InvalidArgumentError(f"dimension must be >= 2, got {d}")
    if not np.isscalar(beta) or not math.isfinite(beta) or beta <= 0.0:
        raise InvalidArgumentError(f"concentration must be finite and > 0, got {beta!r}")
    return float(_log_c_any(int(d), float(beta)))


@dataclass(frozen=True)
class QuadratureRule:
    """Adaptive Gauss-Legendre product rule on radial and angular factors.

    Node counts double on each refinement level; evaluation stops when two
    successive levels agree within ``tol`` (absolute) and raises
    NumericFailureError, carrying the best estimate, when ``max_refinements``
    levels do not reach agreement.
    """

    n_radial: int = 48
    n_angular: int = 48
    tol: float = 1e-10
    max_refinements: int = 10

    def __post_init__(self) -> None:
        if self.n_radial < 2 or self.n_angular < 2:
            raise InvalidArgumentError("quadrature node counts must be >= 2")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise InvalidArgumentError(f"tolerance must be finite and > 0, got {self.tol}")
        if self.max_refinements < 1:
            raise InvalidArgumentError("max_refinements must be >= 1")

    def radial_nodes(self, level: int, a: float = 0.0, b: float = 1.0):
        """Gauss-Legendre nodes and weights on [a, b] at a refinement level.

        Weights are positive and sum to b - a.
        """
        n = self.n_radial * (1 << level)
        x, w = leggauss(n)
        half = 0.5 * (b - a)
        return a + half * (x + 1.0), half * w

    def angular_nodes(self, level: int):
        """Gauss-Legendre nodes and weights on the polar interval [0, pi]."""
        n = self.n_angular * (1 << level)
        x, w = leggauss(n)
        half = 0.5 * math.pi
        return half * (x + 1.0), half * w


def _adaptive(rule: QuadratureRule, evaluate, what: str):
    """Run ``evaluate(level)`` on doubling levels until successive vectors agree.

    ``evaluate`` returns a 1-d array of simultaneously refined values.  All
    components must move less than ``rule.tol`` between levels.
    """
    prev = None
    deltas = []
    for level in range(rule.max_refinements + 1):
        cur = np.asarray(evaluate(level), dtype=float)
        if prev is not None:
            delta = float(np.max(np.abs(cur - prev)))
            deltas.append(delta)
            if delta <= rule.tol:
                return cur
        prev = cur
    raise NumericFailureError(
        f"{what}: quadrature did not converge to {rule.tol:g} "
        f"after {rule.max_refinements} refinements",
        best=prev,
        diagnostics={"deltas": deltas},
    )


def lemma_abc(d: int, t: float, rule: QuadratureRule | None = None):
    """Radial coefficient integrals (A, B, C) of the expansion at scale t.

    A(t) = int_0^1 (r/t) C_d(1/t)/C_d(r/t) dr
    B(t) = int_0^1  r    C_d(1/t)/C_d(r/t) dr
    C(t) = 2 pi [ t C_d(1/t)/C_{d-2}(1/t) - int_0^1 t C_d(1/t)/C_{d-2}(r/t) dr ]
           - (2 pi)^(d/2) C_d(1/t) / (3 Gamma(d/2 - 1))

    Requires an integer d >= 3 and t > 0.  All normalizer ratios are formed in
    log space.  Returns the tuple (A, B, C).
    """
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise InvalidArgumentError(f"dimension must be an integer, got {d!r}")
    if d < 3:
        raise InvalidArgumentError(f"dimension must be >= 3, got {d}")
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidArgumentError(f"scale must be finite and > 0, got {t!r}")
    if rule is None:
        rule = QuadratureRule()
    d = int(d)
    t = float(t)
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
    c_const = math.exp(log_const)
    c_head = 2.0 * math.pi * t * math.exp(log_cd_beta - log_cdm2_beta)

    def evaluate(level: int) -> np.ndarray:
        r, w = rule.radial_nodes(level)
        ratio_d = np.exp(log_cd_beta - _log_c_any(d, r * beta))
        a_val = float(np.sum(w * (r / t) * ratio_d))
        b_val = float(np.sum(w * r * ratio_d))
        ratio_dm2 = np.exp(log_cd_beta - _log_c_any(d - 2, r * beta))
        tail = float(np.sum(w * t * ratio_dm2))
        c_val = c_head - 2.0 * math.pi * tail - c_const
        return np.array([a_val, b_val, c_val])

    a_val, b_val, c_val = _adaptive(rule, evaluate, "lemma_abc")
    return float(a_val), float(b_val), float(c_val)


def vmf_moments(
    d: int,
    s,
    t: float,
    rule: QuadratureRule | None = None,
    sigma: int = 1,
):
    """First and second moment integrals of the concentration kernel on the unit ball.

    The measure has density C_d(1/t) exp(sigma <s, x> / t) on {|x| <= 1}; its
    total mass is O(t), and the returned moments are the plain integrals
    m1 = int x dmu and m2 = int x x^T dmu, not mass-normalized ratios.  Both
    signs of the exponent are selectable; the default sigma = +1 is the one
    sign convention of the package (star weights, estimators, run configs).

    Returns (m1, m2) with m1 of shape (d,) and m2 symmetric (d, d).  m2 has
    eigenvector structure span{s} plus its orthogonal complement.
    """
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise InvalidArgumentError(f"dimension must be an integer, got {d!r}")
    if d < 2:
        raise InvalidArgumentError(f"dimension must be >= 2, got {d}")
    s_arr = np.asarray(s, dtype=float)
    if s_arr.shape != (d,):
        raise InvalidArgumentError(f"direction must have shape ({d},), got {s_arr.shape}")
    if not np.all(np.isfinite(s_arr)):
        raise InvalidArgumentError("direction must be finite")
    norm = float(np.linalg.norm(s_arr))
    if abs(norm - 1.0) > 1e-8:
        raise InvalidArgumentError(f"direction must be a unit vector, |s| = {norm!r}")
    if not math.isfinite(t) or t <= 0.0:
        raise InvalidArgumentError(f"scale must be finite and > 0, got {t!r}")
    if sigma not in (1, -1):
        raise InvalidArgumentError(f"sign must be +1 or -1, got {sigma!r}")
    if rule is None:
        rule = QuadratureRule()
    d = int(d)
    beta = 1.0 / float(t)
    log_cd = float(_log_c_any(d, beta))
    # Surface measure of the (d-2)-sphere: the azimuthal factor of the polar
    # decomposition around s.  For d = 2 it is 2 (the two half-circles).
    log_omega = (
        math.log(2.0)
        + 0.5 * (d - 1) * math.log(math.pi)
        - math.lgamma(0.5 * (d - 1))
    )

    def evaluate(level: int) -> np.ndarray:
        r, wr = rule.radial_nodes(level)
        th, wth = rule.angular_nodes(level)
        rr = r[:, None]
        mu = np.cos(th)[None, :]
        # exponent = log C_d + sigma beta r mu <= log C_d + beta = O(log beta).
        kernel = np.exp(log_cd + log_omega + sigma * beta * rr * mu)
        base = kernel * rr ** (d - 1) * np.sin(th)[None, :] ** (d - 2)
        base *= wr[:, None] * wth[None, :]
        proj = rr * mu
        m1_par = float(np.sum(base * proj))
        raw_par = float(np.sum(base * proj * proj))
        raw_tr = float(np.sum(base * rr * rr))
        return np.array([m1_par, raw_par, raw_tr])

    m1_par, raw_par, raw_tr = _adaptive(rule, evaluate, "vmf_moments")
    raw_perp = (raw_tr - raw_par) / (d - 1)
    m1 = m1_par * s_arr
    outer = np.outer(s_arr, s_arr)
    m2 = raw_perp * (np.eye(d) - outer) + raw_par * outer
    return m1, m2
