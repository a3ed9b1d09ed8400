"""The exponential-security parameter region and Chernoff-style bounds.

The theorem region is where all three failure probabilities decay
exponentially in m. The closed-form bounds below instantiate the theorem's
constants; they disregard ceilings, so they are asymptotic and may exceed 1
at small m. Values are never clamped here — domination tests compare raw
numbers — clamping belongs to the reporting layer. The bounds check
(mu, lambda, m) by ProtocolParams' rule and wording; chernoff_R adds
2/9 < mu and lambda >= (2+9*mu)/(18*mu).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .protocol import ParameterError, ProtocolParams, _fraction, _mu
from .source import _as_count


def lambda_threshold(mu) -> Fraction:
    """Smallest admissible lambda at a given mu: (2 + 9*mu) / (18*mu)."""
    mu = _fraction(mu, "mu")
    if mu <= 0:
        raise ParameterError(f"mu={mu} must be positive")
    return (2 + 9 * mu) / (18 * mu)


def in_guaranteed_region(mu, lam) -> bool:
    """True iff 2/9 < mu < 1/3 and (2+9*mu)/(18*mu) < lambda < 1, evaluated
    in exact rational arithmetic."""
    return _region_grid([_fraction(mu, "mu")], [_fraction(lam, "lambda")])[0][0]


def _region_grid(mus: list[Fraction], lams: list[Fraction]) -> list[list[bool]]:
    """in_guaranteed_region for each mu (rows) and lam = c/d (columns), Fractions: each mu's threshold t once,
    then t < c/d < 1 as integer products; outside 2/9 < mu < 1/3, t = 1, which no lambda below 1 exceeds."""
    thresholds = [lambda_threshold(mu) if Fraction(2, 9) < mu < Fraction(1, 3) else Fraction(1) for mu in mus]
    return [[t.numerator * lam.denominator < lam.numerator * t.denominator < t.denominator * lam.denominator for lam in lams] for t in thresholds]


def chernoff_no_faulty(mu, m: int) -> float:
    """exp(-(m/6)(1-3*mu)^2), bounding the no-faulty failure probability."""
    m, mu = _as_count(m, "m", error=ParameterError), _mu(mu)
    return math.exp(-(m / 6) * (1 - 3 * float(mu)) ** 2)


def chernoff_S(mu, lam, m: int) -> float:
    """2^(-(1-lambda)*mu*m) + 4*exp(-(m/9)(1-3*mu)^2), bounding the
    faulty-sender failure probability."""
    p = ProtocolParams(mu, lam, m)
    mu_f, lam_f, m = float(p.mu), float(p.lam), p.m
    return 2.0 ** (-(1 - lam_f) * mu_f * m) + 4 * math.exp(-(m / 9) * (1 - 3 * mu_f) ** 2)


def chernoff_R(mu, lam, m: int) -> float:
    """Sum of the two complement-region terms and the consistent-tail term
    exp(-X*delta^2/3), bounding the faulty-R0 failure probability.

    delta = (2+9*mu-18*lambda*mu)/(6-27*mu) and X = (3*mu/2 - 1/3)*m; the
    tail term is an upper tail only for lambda at or above the region
    boundary, so parameters below it are rejected.
    """
    p = ProtocolParams(mu, lam, m)
    if not Fraction(2, 9) < p.mu:
        raise ParameterError(f"mu={p.mu} must satisfy 2/9 < mu < 1/3")
    if p.lam < lambda_threshold(p.mu):
        raise ParameterError(
            f"lambda={p.lam} must satisfy (2+9*mu)/(18*mu) <= lambda < 1 (threshold {lambda_threshold(p.mu)})"
        )
    mu_f, lam_f, m = float(p.mu), float(p.lam), p.m
    delta = (2 + 9 * mu_f - 18 * lam_f * mu_f) / (6 - 27 * mu_f)
    x_bar = (3 * mu_f / 2 - 1 / 3) * m
    tails = 2 * math.exp(-(m / 9) * (1 - 3 * mu_f) ** 2) + 2 * math.exp(-(m / 18) * (1 - 3 * mu_f) ** 2)
    return tails + math.exp(-x_bar * delta**2 / 3)
