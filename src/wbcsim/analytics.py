"""Failure probabilities: the exact no-faulty result and the tight
lower/upper bounds for the faulty configurations.

Each result is written once, as a 1-D sum over one conditioned count of
binomial pmfs and tails:

- no faulty: the lower tail of l ~ Binom(m, 1/3);
- faulty S: condition on l3 ~ Binom(m, 1/3), leaving l1 ~ Binom(m - l3, 1/2);
- faulty R0: condition on l2 ~ Binom(m, 1/6), leaving l1 ~ Binom(m - l2, 2/5).

Out-of-domain masses are summed from their own tails, never taken as
1 - (in-domain mass), so small values keep their relative precision.

The formulas run over three binomial primitives (pmf, cdf, sf) with two
implementations, and `exact=` only chooses between them: exact rationals
(integer numerators summed into one Fraction; ground truth for the test
oracles) or floats vectorised over scipy.special (`gammaln` for the pmf,
`bdtr`/`bdtrc` for the tails). Float values agree with the exact ones to
about 1e-15 * m relative, up to m ~ 10^4.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Union

import numpy as np
from scipy.special import bdtr, bdtrc, gammaln

from .adversary import _DENOMINATOR, _event_blocks
from .protocol import AdversaryConfig, ProtocolParams, _failed

Probability = Union[float, Fraction]

_THIRD, _SIXTH, _HALF = Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)
_TWO_FIFTHS, _TWO_THIRDS = Fraction(2, 5), Fraction(2, 3)


class BoundKind(enum.Enum):
    EXACT = "exact"
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class FailureReport:
    config: AdversaryConfig
    kind: BoundKind
    value: Probability
    params: ProtocolParams

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError(f"failure probability {self.value} outside [0, 1]")


def _exact_terms(ks: range, n: int, q: Fraction) -> Fraction:
    """sum over k in ks of P(X = k) for X ~ Binom(n, q), as one Fraction."""
    a, b = q.numerator, q.denominator
    return Fraction(sum(math.comb(n, k) * a**k * (b - a) ** (n - k) for k in ks), b**n)


def _float_tail(fn, k, n, q: Fraction, below: float):
    """bdtr/bdtrc extended to k < 0 (value `below`) and k >= n."""
    k, n = np.asarray(k), np.asarray(n)
    return np.where(k < 0, below, fn(np.clip(k, 0, n), n, float(q)))


class _Binomial(NamedTuple):
    """X ~ Binom(n, q): pmf P(X = k), cdf P(X <= k) and sf P(X > k), each
    broadcast over array k and n, plus the backend's scalar type."""

    pmf: Callable
    cdf: Callable
    sf: Callable
    scalar: type


_EXACT = _Binomial(
    pmf=np.frompyfunc(lambda k, n, q: _exact_terms(range(k, k + 1), n, q), 3, 1),
    cdf=np.frompyfunc(lambda k, n, q: _exact_terms(range(min(k, n) + 1), n, q), 3, 1),
    sf=np.frompyfunc(lambda k, n, q: _exact_terms(range(max(k + 1, 0), n + 1), n, q), 3, 1),
    scalar=Fraction,
)
_FLOAT = _Binomial(
    pmf=lambda k, n, q: np.exp(
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) + k * math.log(q) + (n - k) * math.log1p(-q)
    ),
    cdf=lambda k, n, q: _float_tail(bdtr, k, n, q, below=0.0),
    sf=lambda k, n, q: _float_tail(bdtrc, k, n, q, below=1.0),
    scalar=float,
)


def _backend(exact: bool) -> _Binomial:
    return _EXACT if exact else _FLOAT


def _bounds(cfg: AdversaryConfig, p: ProtocolParams, lower, upper) -> tuple[FailureReport, FailureReport]:
    """LOWER/UPPER reports. Float sums of terms that add up to 1 can round
    just above it, so both are capped at 1 (never binding on rationals)."""
    return (
        FailureReport(cfg, BoundKind.LOWER, min(lower, 1.0), p),
        FailureReport(cfg, BoundKind.UPPER, min(upper, 1.0), p),
    )


def pf_no_faulty_exact(p: ProtocolParams, exact: bool = False) -> FailureReport:
    """Exact failure probability with all components correct: the chance
    that fewer than T of the m outcomes back the sender's bit."""
    b = _backend(exact)
    return FailureReport(AdversaryConfig.NO_FAULTY, BoundKind.EXACT, b.scalar(b.cdf(p.T - 1, p.m, _THIRD)), p)


def pf_S_bounds(p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, FailureReport]:
    """Failure probability bounds with a faulty sender playing zeta_S.

    An Event is in the domain of zeta_S when T <= l3 <= m - T and
    T - Q <= l1 <= m - Q - l3. Lower bound: in-domain Events fail with
    probability 2^-Q. Upper bound adds the out-of-domain mass: l3 outside
    its range, or l1 in either tail given l3.
    """
    b = _backend(exact)
    m, T, Q = p.m, p.T, p.Q
    l3 = np.arange(T, m - T + 1)
    n = m - l3
    w = b.pmf(l3, m, _THIRD)
    dom = b.scalar(np.sum(w * (b.sf(T - Q - 1, n, _HALF) - b.sf(n - Q, n, _HALF))))
    l1_tails = b.cdf(T - Q - 1, n, _HALF) + b.sf(n - Q, n, _HALF)
    out = b.scalar(b.cdf(T - 1, m, _THIRD) + b.sf(m - T, m, _THIRD) + np.sum(w * l1_tails))
    lower = dom * _HALF**Q
    return _bounds(AdversaryConfig.S_FAULTY, p, lower, lower + out)


def pf_R_bounds(p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, FailureReport]:
    """Failure probability bounds with a faulty R0 playing zeta_R.

    The lower bound is the failure mass of the domain l1 <= m - T:
    - pink, l1 < T: too few vouched indices, failure guaranteed;
    - blue, T <= l1 <= m - T and l2 > T - Q: enough automatically-consistent
      XX10 indices, failure guaranteed;
    - orange, T <= l1 <= m - T and l2 <= T - Q: failure needs at least
      T - Q + 1 - l2 lucky picks among the T - l2 XX0X indices, each lucky
      w.p. 2/3 (that tail is 1 in the blue region).
    The upper bound adds the out-of-domain green region l1 > m - T.
    """
    b = _backend(exact)
    m, T, Q = p.m, p.T, p.Q
    l2 = np.arange(0, m - T + 1)  # larger l2 leaves l1 < T
    n = m - l2
    window = b.sf(T - 1, n, _TWO_FIFTHS) - b.sf(m - T, n, _TWO_FIFTHS)  # P(T <= l1 <= m - T | l2)
    lucky = b.sf(T - Q - l2, np.maximum(T - l2, 0), _TWO_THIRDS)
    pink, green = b.cdf(T - 1, m, _THIRD), b.sf(m - T, m, _THIRD)
    lower = b.scalar(pink + np.sum(b.pmf(l2, m, _SIXTH) * window * lucky))
    return _bounds(AdversaryConfig.R0_FAULTY, p, lower, lower + b.scalar(green))


def pf_bruteforce(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    kind: BoundKind = BoundKind.UPPER,
    max_m: int = 8,
) -> FailureReport:
    """Exhaustive 6^m oracle: run the protocol on every Event, block by
    block, and sum the integer weights of the failures into one Fraction.

    Faulty configurations apply the optimal incomplete strategy; an Event
    outside the strategy domain scores as failure for UPPER and as success
    for LOWER. NO_FAULTY ignores `kind` and reports EXACT.
    """
    if p.m > max_m:
        raise ValueError(f"exhaustive enumeration limited to m <= {max_m}")
    if cfg is AdversaryConfig.NO_FAULTY:
        kind = BoundKind.EXACT
    elif kind is BoundKind.EXACT:
        raise ValueError("faulty configurations only admit LOWER/UPPER brute-force scoring")
    ood_fails = kind is BoundKind.UPPER
    failed = sum(int(nums[_failed(cfg, p, codes, ood_fails=ood_fails)].sum()) for codes, nums in _event_blocks(p.m))
    total = Fraction(failed, _DENOMINATOR**p.m)
    return FailureReport(cfg, kind, total, p)


def failure_reports(cfg: AdversaryConfig, p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, ...]:
    """A configuration's reports from one call of its formula: (EXACT,) with
    no faulty component, (LOWER, UPPER) otherwise. The last report is the
    one resource minimisation reads.

    The formulas are looked up as module globals on each call, so a wrapper
    set on this module's attribute (a tracer, a test spy) sees every call.
    """
    if cfg is AdversaryConfig.NO_FAULTY:
        return (pf_no_faulty_exact(p, exact),)
    if cfg is AdversaryConfig.S_FAULTY:
        return pf_S_bounds(p, exact)
    return pf_R_bounds(p, exact)
