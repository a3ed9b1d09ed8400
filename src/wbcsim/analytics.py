"""Failure probabilities: the exact no-faulty result and the tight
lower/upper bounds for the faulty configurations.

Each result is written once, as a 1-D sum over one conditioned count of
binomial pmfs and tails:

- no faulty: the lower tail of l ~ Binom(m, 1/3);
- faulty S: condition on l3 ~ Binom(m, 1/3), leaving l1 ~ Binom(m - l3, 1/2);
- faulty R0: condition on l2 ~ Binom(m, 1/6), leaving l1 ~ Binom(m - l2, 2/5).

Out-of-domain masses are summed from their own tails, never taken as
1 - (in-domain mass), so small values keep their relative precision.

Each formula evaluates a block of integer (m, T, Q) rows, the whole state
a bound reads, and sums each row along the conditioned count;
`failure_reports` and the `pf_*` functions are one-row views of it.

Every tail inside a sum is a binomial tail at a fixed k whose trial count
n runs along the row. One recurrence in n computes all of them,

    P(X_n <= k) = P(X_{n+1} <= k) + q * P(X_n = k),
    P(X_{n+1} > k) = P(X_n > k) + q * P(X_n = k),

anchored by one cdf (at the row's largest n) or sf (at its smallest n)
and continued by a cumulative sum of these positive terms. `exact=` only
chooses the backend of pmf, cdf and sf primitives it runs on:

- exact rationals, ground truth for the test oracles: integer numerators
  summed into one Fraction per element. The cdf and sf sum each element
  on its own, so they are also the recurrence's element-wise reference;
- floats: `bdtr`/`bdtrc` anchors and a pmf read from a cached `gammaln`
  log-factorial table, O(1) per element, where a `bdtr`/`bdtrc` per
  element costs an incomplete beta.

There is no cancellation, so each float tail keeps the anchor's precision
plus about 1e-16 per summed term. The pmf's `gammaln` rounding dominates:
float values agree with the exact ones to about 1e-15 * m relative, up to
m ~ 10^4.
"""

from __future__ import annotations

import enum
import functools
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
_TWO_FIFTHS = Fraction(2, 5)


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


def _exact_pmf(k: int, n: int, q: Fraction):
    """P(X = k), 0 outside 0 <= k <= n: one term of `_exact_terms`, built
    without its range and sum, as the recurrence calls it per element."""
    a, b = q.numerator, q.denominator
    return Fraction(math.comb(n, k) * a**k * (b - a) ** (n - k), b**n) if 0 <= k <= n else 0


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    """log(i!) for 0 <= i < size, read-only. Sizes are powers of two, so a
    process keeps at most one table per doubling of the largest m."""
    table = gammaln(np.arange(size) + 1.0)
    table.flags.writeable = False
    return table


def _float_pmf(k, n, q: Fraction):
    """P(X = k) for X ~ Binom(n, q), 0 outside 0 <= k <= n."""
    inside = (0 <= k) & (k <= n)
    k, n_k = np.maximum(k, 0), np.maximum(n - k, 0)  # equal to k, n - k inside; in range outside
    n = k + n_k
    log_fact = _log_factorials(1 << int(n.max()).bit_length())
    log_pmf = log_fact[n] - log_fact[k] - log_fact[n_k] + k * math.log(q) + n_k * math.log1p(-q)
    return np.where(inside, np.exp(log_pmf), 0.0)


class _Binomial(NamedTuple):
    """X ~ Binom(n, q) primitives over integer arrays k and n, plus the
    backend's scalar type; `exact=` chooses only between two of these:
    - pmf(k, n, q): P(X = k), 0 outside 0 <= k <= n;
    - cdf/sf(k, n, q): P(X <= k) and P(X > k) for n >= 0 and any k.
    The exact cdf/sf sum each element's pmfs on their own: they anchor the
    one fixed-k recurrence (`_tail`) and are its element-wise reference.
    """

    pmf: Callable
    cdf: Callable
    sf: Callable
    scalar: type


_EXACT = _Binomial(
    pmf=np.frompyfunc(_exact_pmf, 3, 1),
    cdf=np.frompyfunc(lambda k, n, q: _exact_terms(range(min(k, n) + 1), n, q), 3, 1),
    sf=np.frompyfunc(lambda k, n, q: _exact_terms(range(max(k + 1, 0), n + 1), n, q), 3, 1),
    scalar=Fraction,
)
# bdtr gives nan for k outside [0, n] and bdtrc for k > n; there the tail is 0 or 1
_FLOAT = _Binomial(
    pmf=_float_pmf,
    cdf=lambda k, n, q: np.where(k < 0, 0.0, bdtr(np.minimum(k, n), n, float(q))),
    sf=lambda k, n, q: bdtrc(np.minimum(k, n), n, float(q)),
    scalar=float,
)


def _tail(b: _Binomial, k, n, q: Fraction, valid, upper: bool):
    """P(X_n > k) if upper else P(X_n <= k), X_n ~ Binom(n, q), with one k
    per row and each row of n consecutive ascending integers, on the valid
    prefix of each row and 0 after it (n < 0 counts as 0). The recurrence in
    n (module docstring): an sf anchor at the row's first n and a forward
    cumulative sum for the upper tail; a cdf anchor at its last valid n and
    a reverse one for the lower tail."""
    k = k[:, None]
    if upper:
        terms = b.scalar(q) * b.pmf(k, n - 1, q)
        terms[:, 0] = b.sf(k, n[:, :1], q)[:, 0]
        return np.where(valid, np.cumsum(terms, axis=1), 0)
    terms = b.scalar(q) * b.pmf(k, n, q)
    rows, last = np.arange(len(n)), valid.sum(axis=1) - 1
    terms[rows, last] = b.cdf(k, n[rows, last][:, None], q)[:, 0]
    return np.cumsum(np.where(valid, terms, 0)[:, ::-1], axis=1)[:, ::-1]


def _backend(exact: bool) -> _Binomial:
    return _EXACT if exact else _FLOAT


def _at_most_one(values):
    """Float sums of terms that add up to 1 can round just above it, so
    bounds are capped at 1 (never binding on rationals)."""
    return np.minimum(values, 1.0)


def _no_faulty_rows(m, T, Q, b: _Binomial):
    """Exact failure probability with all components correct: the chance
    that fewer than T of the m outcomes back the sender's bit."""
    return b.cdf(T - 1, m, _THIRD)


def _s_rows(m, T, Q, b: _Binomial):
    """LOWER and UPPER failure bounds with a faulty sender playing zeta_S.

    An Event is in the domain of zeta_S when T <= l3 <= m - T and
    T - Q <= l1 <= n - Q, with n = m - l3. Lower bound: in-domain Events
    fail with probability 2^-Q. Upper bound adds the out-of-domain mass: l3
    outside its range, or l1 in either tail given l3. Row entries run over
    n = T .. m - T; by the symmetry of q = 1/2, P(l1 > n - Q) = P(l1 <= Q - 1).
    """
    n = T[:, None] + np.arange(max(1, (m - 2 * T + 1).max()))
    valid = n <= (m - T)[:, None]
    w = np.where(valid, b.pmf(m[:, None] - n, m[:, None], _THIRD), 0)  # P(l3 = m - n)
    l1_tails = _tail(b, T - Q - 1, n, _HALF, valid, upper=False) + _tail(b, Q - 1, n, _HALF, valid, upper=False)
    dom = np.sum(w * (1 - l1_tails), axis=1)
    out = b.cdf(T - 1, m, _THIRD) + b.sf(m - T, m, _THIRD) + np.sum(w * l1_tails, axis=1)
    lower = dom * np.array([b.scalar(_HALF**q) for q in Q.tolist()])
    return _at_most_one(lower), _at_most_one(lower + out)


def _r_rows(m, T, Q, b: _Binomial):
    """LOWER and UPPER failure bounds with a faulty R0 playing zeta_R.

    The lower bound is the failure mass of the domain l1 <= m - T:
    - pink, l1 < T: too few vouched indices, failure guaranteed;
    - blue, T <= l1 <= m - T and l2 > T - Q: enough automatically-consistent
      XX10 indices, failure guaranteed;
    - orange, T <= l1 <= m - T and l2 <= T - Q: failure needs at most Q - 1
      unlucky picks among the T - l2 XX0X indices, each unlucky w.p. 1/3
      (that tail is 1 in the blue region).
    The upper bound adds the out-of-domain green region l1 > m - T.
    Row entries run over n = m - l2 = T .. m; larger l2 leaves l1 < T.
    """
    n = T[:, None] + np.arange((m - T + 1).max())
    valid = n <= m[:, None]
    w = np.where(valid, b.pmf(m[:, None] - n, m[:, None], _SIXTH), 0)  # P(l2 = m - n)
    window = _tail(b, T - 1, n, _TWO_FIFTHS, valid, upper=True) - _tail(b, m - T, n, _TWO_FIFTHS, valid, upper=True)
    lucky = _tail(b, Q - 1, n - (m - T)[:, None], _THIRD, valid, upper=False)  # T - l2 picks
    pink, green = b.cdf(T - 1, m, _THIRD), b.sf(m - T, m, _THIRD)
    lower = pink + np.sum(w * window * lucky, axis=1)
    return _at_most_one(lower), _at_most_one(lower + green)


def _report_rows(cfg: AdversaryConfig, rows, exact: bool = False) -> dict[BoundKind, np.ndarray]:
    """A configuration's report values over an (N, 3) block of integer
    (m, T, Q) rows, from one call of its formula: {EXACT} with no faulty
    component, {LOWER, UPPER} otherwise, in that order. The last kind is
    the one resource minimisation reads.

    The formulas are looked up as module globals on each call, so a wrapper
    set on this module's attribute (a tracer, a test spy) sees every call.
    """
    b, columns = _backend(exact), np.asarray(rows).T
    if cfg is AdversaryConfig.NO_FAULTY:
        return {BoundKind.EXACT: _no_faulty_rows(*columns, b)}
    lower, upper = _s_rows(*columns, b) if cfg is AdversaryConfig.S_FAULTY else _r_rows(*columns, b)
    return {BoundKind.LOWER: lower, BoundKind.UPPER: upper}


def failure_reports(cfg: AdversaryConfig, p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, ...]:
    """A configuration's reports at one p: (EXACT,) with no faulty
    component, (LOWER, UPPER) otherwise. A one-row view of the formulas."""
    scalar = _backend(exact).scalar
    values = _report_rows(cfg, [(p.m, p.T, p.Q)], exact)
    return tuple(FailureReport(cfg, kind, scalar(v[0]), p) for kind, v in values.items())


def pf_no_faulty_exact(p: ProtocolParams, exact: bool = False) -> FailureReport:
    """Exact failure probability with all components correct (one row of
    `_no_faulty_rows`)."""
    return failure_reports(AdversaryConfig.NO_FAULTY, p, exact)[0]


def pf_S_bounds(p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, FailureReport]:
    """LOWER/UPPER failure bounds with a faulty sender playing zeta_S (one
    row of `_s_rows`)."""
    return failure_reports(AdversaryConfig.S_FAULTY, p, exact)


def pf_R_bounds(p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, FailureReport]:
    """LOWER/UPPER failure bounds with a faulty R0 playing zeta_R (one row
    of `_r_rows`)."""
    return failure_reports(AdversaryConfig.R0_FAULTY, p, exact)


def pf_bruteforce(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    kind: Union[BoundKind, str] = BoundKind.UPPER,
    max_m: int = 8,
) -> FailureReport:
    """Exhaustive 6^m oracle: run the protocol on every Event, block by
    block, and sum the integer weights of the failures into one Fraction.

    Faulty configurations apply the optimal incomplete strategy; an Event
    outside the strategy domain scores as failure for UPPER and as success
    for LOWER. `kind` may also be a BoundKind value ("upper"); NO_FAULTY
    ignores it and reports EXACT.
    """
    kind = BoundKind(kind)
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
