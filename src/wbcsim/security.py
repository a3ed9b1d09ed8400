"""The exponential-security parameter region and Chernoff-style bounds.

The theorem region is where all three failure probabilities decay
exponentially in m. The closed-form bounds below instantiate the theorem's
constants; they disregard ceilings, so they are asymptotic and may exceed 1
at small m. Values are never clamped here — domination tests compare raw
numbers — clamping belongs to the reporting layer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .protocol import ParameterError


def lambda_threshold(mu) -> Fraction:
    """Smallest admissible lambda at a given mu: (2 + 9*mu) / (18*mu)."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ParameterError(f"mu={mu} must be positive")
    return (2 + 9 * mu) / (18 * mu)


def in_guaranteed_region(mu, lam) -> bool:
    """True iff 2/9 < mu < 1/3 and (2+9*mu)/(18*mu) < lambda < 1, evaluated
    in exact rational arithmetic."""
    mu = Fraction(mu)
    lam = Fraction(lam)
    if not Fraction(2, 9) < mu < Fraction(1, 3):
        return False
    return lambda_threshold(mu) < lam < 1


def chernoff_no_faulty(mu, m: int) -> float:
    """exp(-(m/6)(1-3*mu)^2), bounding the no-faulty failure probability."""
    mu = float(Fraction(mu))
    if mu >= 1 / 3:
        raise ParameterError(f"mu={mu} must satisfy mu < 1/3")
    return math.exp(-(m / 6) * (1 - 3 * mu) ** 2)


def chernoff_S(mu, lam, m: int) -> float:
    """2^(-(1-lambda)*mu*m) + 4*exp(-(m/9)(1-3*mu)^2), bounding the
    faulty-sender failure probability."""
    mu_f = float(Fraction(mu))
    lam_f = float(Fraction(lam))
    if lam_f < 1 / 2:
        raise ParameterError(f"lambda={lam_f} must satisfy lambda >= 1/2")
    if mu_f >= 1 / 3:
        raise ParameterError(f"mu={mu_f} must satisfy mu < 1/3")
    return 2.0 ** (-(1 - lam_f) * mu_f * m) + 4 * math.exp(-(m / 9) * (1 - 3 * mu_f) ** 2)


def chernoff_R(mu, lam, m: int) -> float:
    """Sum of the two complement-region terms and the consistent-tail term
    exp(-X*delta^2/3), bounding the faulty-R0 failure probability.

    delta = (2+9*mu-18*lambda*mu)/(6-27*mu) and X = (3*mu/2 - 1/3)*m; the
    tail term is an upper tail only for lambda at or above the region
    boundary, so parameters below it are rejected.
    """
    mu_q = Fraction(mu)
    lam_q = Fraction(lam)
    if not Fraction(2, 9) < mu_q < Fraction(1, 3):
        raise ParameterError(f"mu={mu_q} must satisfy 2/9 < mu < 1/3")
    if lam_q < lambda_threshold(mu_q) or lam_q >= 1:
        raise ParameterError(
            f"lambda={lam_q} must satisfy (2+9*mu)/(18*mu) <= lambda < 1 (threshold {lambda_threshold(mu_q)})"
        )
    mu_f, lam_f = float(mu_q), float(lam_q)
    delta = (2 + 9 * mu_f - 18 * lam_f * mu_f) / (6 - 27 * mu_f)
    x_bar = (3 * mu_f / 2 - 1 / 3) * m
    tails = 2 * math.exp(-(m / 9) * (1 - 3 * mu_f) ** 2) + 2 * math.exp(-(m / 18) * (1 - 3 * mu_f) ** 2)
    return tails + math.exp(-x_bar * delta**2 / 3)
