"""Failure probabilities: the exact no-faulty result and the tight
lower/upper bounds for the faulty configurations.

Each result is written once, as a 1-D sum over one conditioned count of
binomial pmfs and tails:

- no faulty: the lower tail of l ~ Binom(m, 1/3);
- faulty S: condition on l3 ~ Binom(m, 1/3), leaving l1 ~ Binom(m - l3, 1/2);
- faulty R0: condition on l2 ~ Binom(m, 1/6), leaving l1 ~ Binom(m - l2, 2/5).

Out-of-domain masses are summed from their own tails, never as
1 - (in-domain mass), so small values keep their relative precision.

Each formula evaluates a block of integer (m, T, Q) rows, the whole state
a bound reads, and sums each row in index order, so a value depends on its
row alone. `_reports` gives a block's reports (`wbcsim exact` hands it
its whole m list); `failure_reports` and `pf_*` are one-row blocks. The
formulas are plain arithmetic (`x * valid` masks, `x.cumsum(axis=1)` sums).

Every tail inside a sum is a binomial tail at a fixed k whose trial count
n runs along the row. One recurrence in n computes all of them,

    P(X_n <= k) = P(X_{n+1} <= k) + q * P(X_n = k),
    P(X_{n+1} > k) = P(X_n > k) + q * P(X_n = k),

anchored by one cdf (at the row's largest n) or sf (at its smallest n)
and continued by a cumulative sum of these positive terms. A formula's
tails of one q and direction (S's two lower tails, R0's two upper ones)
are one `_tail` call on the rows stacked once per k, so a one-row call
pays for its pmf and anchors once. `exact=` only chooses the backend:

- exact rationals, ground truth for the test oracles: integer numerators
  over one 2^a 3^b 5^c denominator per array (`_Smooth`), which every q
  here (1/2, 1/3, 1/6, 2/5) and every 2^-Q divides, so nothing is reduced
  until a report's one Fraction. The pmf walks rows with exact integer
  steps along n or k, and cdf and sf sum one walk down k per element;
- floats: `bdtr`/`bdtrc` anchors and a pmf read from a cached `gammaln`
  log-factorial table, O(1) per element where a `bdtr` costs an
  incomplete beta. There is no cancellation: each tail keeps the anchor's
  precision plus about 1e-16 per summed term; the pmf's rounding
  dominates, so float values agree with the exact ones to about
  1e-15 * m relative, up to m ~ 10^4.

Float S and R0 rows are evaluated on certified windows (`_certified`).
A row's weight, the pmf of l3 or l2, carries its mass within O(sqrt(m))
entries of its mode, so a row keeps the entries n within z standard
deviations of it (at least 400 on a side, so rows of m <= 400 stay whole)
and its tails re-anchor at the window's edges. Every factor beside the
weight is a probability <= 1, so what a window leaves out adds at most
the weight's mass outside it: UPPER adds that and LOWER does not. A window
widens until that certificate is below 1e-17 of each bound. `_certified`
owns every float-only decision: the windows, the formula block budget and
the cap at 1 (float sums of terms that add up to 1 can round above it).
"""

from __future__ import annotations

import enum
import functools
import importlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Union

import numpy as np

from .adversary import _DENOMINATOR, _event_blocks
from .protocol import AdversaryConfig, ProtocolParams, _checked_config, _failed_weights

Probability = Union[float, Fraction]


class _Rate(Fraction):
    """A success probability q = a/d: a Fraction that also holds what the
    backends read of it, computed once. Exact: a, b = d - a, d and the
    exponents e of d (`_Smooth`); float: `float`, `log` (log q), `log1m`
    (log1p(-q)) and `var` (float(q) * float(1 - q))."""

    def __init__(self, numerator, denominator):
        self.a, self.b, self.d = self.numerator, self.denominator - self.numerator, self.denominator
        self.e = {2: (1, 0, 0), 3: (0, 1, 0), 5: (0, 0, 1), 6: (1, 1, 0)}[self.d]
        self.float, self.log, self.log1m = float(self), math.log(self), math.log1p(-self)
        self.var = self.float * float(1 - self)


_THIRD, _SIXTH, _HALF, _TWO_FIFTHS = _Rate(1, 3), _Rate(1, 6), _Rate(1, 2), _Rate(2, 5)

# Float rows start on windows of _Z0 standard deviations of their weight,
# and widen until what a window leaves out is below _CERTIFIED of each bound;
# 18 certifies every row of the 1e-30 scan to m = 12000 on its first window.
# A window keeps at least _MIN_HALF_WIDTH entries on each side of the mode:
# shorter rows cost less than a call's fixed work, so rows of m <= 400 stay whole.
_Z0 = 18.0
_CERTIFIED = 1e-17
_MIN_HALF_WIDTH = 400
# A float formula block spans at most this many row entries, so memory stays
# flat however many rows a scan has; its stacked tails hold each row twice.
_FORMULA_ENTRIES = 1 << 13


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


@functools.lru_cache(maxsize=256)
def _power(e: tuple[int, int, int], less=(0, 0, 0)) -> int:
    """2^a * 3^b * 5^c for (a, b, c) = e - less."""
    return 2 ** (e[0] - less[0]) * 3 ** (e[1] - less[1]) * 5 ** (e[2] - less[2])


class _Smooth:
    """Exact rationals: Python-int numerators `num` over one 2^a 3^b 5^c per array, e = (a, b, c). Sums
    and differences raise both operands to the larger exponents, products add them (an ndarray has none),
    so no gcd runs; numpy defers its operators to these. Assigning may rescale `num` (not a view's base)."""

    __array_ufunc__ = None
    __slots__ = ("num", "e")

    def __init__(self, num, e=(0, 0, 0)):  # num: an object array
        self.num, self.e = num, e

    def tolist(self) -> list[Fraction]:  # of a 1-D array
        d = _power(self.e)
        return [Fraction(x, d) for x in self.num.tolist()]

    def __getitem__(self, index):
        return _Smooth(self.num[index], self.e)

    def __setitem__(self, index, value):
        self.e, (self.num, num) = _aligned(self, value)
        self.num[index] = num

    def __add__(x, y, ufunc=np.add):  # x or y may be an int
        e, nums = _aligned(x, y)
        return _Smooth(ufunc(*nums), e)

    __sub__ = lambda x, y: _Smooth.__add__(x, y, np.subtract)
    __rsub__ = lambda x, y: _Smooth.__add__(y, x, np.subtract)

    def __mul__(self, other):
        if isinstance(other, np.ndarray) and other.dtype == bool:  # a mask
            return _Smooth(np.where(other, self.num, 0), self.e)
        if not isinstance(other, _Smooth):  # an int or an int array
            return _Smooth(self.num * other, self.e)
        (a, b, c), (x, y, z) = self.e, other.e
        return _Smooth(self.num * other.num, (a + x, b + y, c + z))

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, p):  # an array of integer exponents p >= 0, over the denominator^max(p)
        top, p = int(p.max()), p.astype(object)
        return _Smooth(self.num**p * _power(self.e) ** (top - p), (top * self.e[0], top * self.e[1], top * self.e[2]))

    def cumsum(self, axis):
        return _Smooth(self.num.cumsum(axis=axis), self.e)


def _aligned(x, y):
    """The larger exponents of x and y (an int has none), and their numerators over them."""
    if not isinstance(x, _Smooth) or not isinstance(y, _Smooth):
        e = (y if isinstance(y, _Smooth) else x).e
        return e, [v.num if isinstance(v, _Smooth) else v * _power(e) for v in (x, y)]
    e = x.e if x.e == y.e else tuple(map(max, x.e, y.e))
    return e, (x.num if x.e == e else x.num * _power(e, x.e), y.num if y.e == e else y.num * _power(e, y.e))


def _walk(ks, ns, q: _Rate, top: int) -> list[int]:
    """Numerators of P(X = k), X ~ Binom(n, q), over d^top along paired sequences of k and n: a step to
    n + 1 at one k multiplies by (n+1)b / ((n+1-k) d), one to k - 1 at one n by kb / ((n-k+1) a)."""
    a, b, d = q.a, q.b, q.d
    num, last_k, last_n = [], -2, -2  # the last nonzero step's k and n
    for k, n in zip(ks, ns):
        if n == last_n + 1 and k == last_k:
            c = c * (n * b) // ((n - k) * d)
        elif n == last_n and k == last_k - 1:
            c = c * ((k + 1) * b) // ((n - k) * a)  # 0 at k = -1
        else:
            c = math.comb(n, k) * a**k * b ** (n - k) * d ** (top - n) if 0 <= k <= n else 0
        if c:
            last_k, last_n = k, n
        else:
            last_n = -2
        num.append(c)
    return num


def _walk_sum(k: int, n: int, q: _Rate, top: int, tail: str) -> int:
    """The numerator over d^top of P(X > k) if tail is "sf" else P(X <= k), X ~ Binom(n, q), n >= 0:
    the pmf walked down j from n or min(k, n), a step to j - 1 multiplying by jb / ((n-j+1) a)."""
    a, b, d = q.a, q.b, q.d
    first, stop = (n, max(k, -1)) if tail == "sf" else (min(k, n), -1)
    if first <= stop:
        return 0
    c = total = math.comb(n, first) * a**first * b ** (n - first) * d ** (top - n)
    for j in range(first, stop + 1, -1):
        c = c * (j * b) // ((n - j + 1) * a)
        total += c
    return total


def _exact(k, n, q: _Rate, tail=None) -> _Smooth:
    """P(X = k), one `_walk` over the broadcast k and n in row order (tails step n at one k, weights k
    at one n); or with tail "sf" or "cdf", P(X > k) or P(X <= k), each a walk down k from n or min(k, n)."""
    shape = max(k.shape, n.shape)  # k and n differ at most in a last axis of length 1
    ks = (k if k.shape == shape else k.repeat(shape[-1], axis=-1)).ravel().tolist()
    ns = (n if n.shape == shape else n.repeat(shape[-1], axis=-1)).ravel().tolist()
    top = max(max(ns), 0)
    num = _walk(ks, ns, q, top) if tail is None else [_walk_sum(k_, n_, q, top, tail) for k_, n_ in zip(ks, ns)]
    return _Smooth(np.array(num, dtype=object).reshape(shape), (top * q.e[0], top * q.e[1], top * q.e[2]))


# exp(x) is exactly 0 below log(2^-1075) = -745.13...; a pmf's log sum reads _LOG_BIG for a
# negative k or n - k, which takes it far below that
_LOG_TINY, _LOG_BIG = -746.0, 1e300

# scipy.special, imported on the first float call: it is about half of a command's start-up
_special = functools.cache(lambda: importlib.import_module("scipy.special"))


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    """log(i!) for 0 <= i < size, then 2 * size entries _LOG_BIG, which an index -2 * size < i < 0
    reads when it wraps; read-only. Sizes are powers of two, one table per doubling of m."""
    table = np.full(3 * size, _LOG_BIG)
    table[:size] = _special().gammaln(np.arange(size) + 1.0)
    table.flags.writeable = False
    return table


def _float_pmf(k, n, q: _Rate, log_fact=None):
    """P(X = k) for X ~ Binom(n, q), 0 outside 0 <= k <= n, over the broadcast k and n; log_fact is
    a `_log_factorials` table whose size exceeds every |k| and |n| (by default, the smallest such)."""
    n_k = n - k
    if log_fact is None:
        log_fact = _log_factorials(1 << int(max(np.abs(k).max(), np.abs(n).max())).bit_length())
    # log_fact[n] - log_fact[k] - log_fact[n_k] + k log q + n_k log(1 - q). Outside, a read of a
    # negative k or n_k wraps to _LOG_BIG, so the sum is below _LOG_TINY, as where exp underflows
    # to 0: the pmf is 0 at both, and the sums are set to 0 before exp, which is slow on them
    pmf = log_fact.take(n, mode="clip") - log_fact.take(k, mode="wrap")
    pmf -= log_fact.take(n_k, mode="wrap")
    pmf += k * q.log
    pmf += n_k * q.log1m
    np.copyto(pmf, 0.0, where=(zero := pmf < _LOG_TINY))
    np.copyto(np.exp(pmf, out=pmf), 0.0, where=zero)
    return pmf


class _Binomial(NamedTuple):
    """X ~ Binom(n, q) primitives over integer arrays k and n: pmf(k, n, q), P(X = k), 0 outside
    0 <= k <= n; cdf/sf(k, n, q), P(X <= k) and P(X > k) for n >= 0; scalar(q), the backend's q."""

    pmf: Callable
    cdf: Callable
    sf: Callable
    scalar: type


_EXACT = _Binomial(
    pmf=_exact,
    cdf=functools.partial(_exact, tail="cdf"),
    sf=functools.partial(_exact, tail="sf"),
    scalar=lambda q: _Smooth(np.array(q.a, dtype=object), q.e),
)
# bdtr gives nan for k < 0 (fmax makes it 0) and both give nan for k > n (taken at k = n)
_FLOAT = _Binomial(
    pmf=_float_pmf,
    cdf=lambda k, n, q: np.fmax(_special().bdtr(np.minimum(k, n), n, q.float), 0.0),
    sf=lambda k, n, q: _special().bdtrc(np.minimum(k, n), n, q.float),
    scalar=lambda q: q.float,
)


@functools.cache
def _float_rows(size: int) -> _Binomial:
    """The float backend for a block of rows of 2m < size, its pmfs reading one `_log_factorials`
    table: a formula's k and n, padding included, lie within 2m of 0."""
    return _FLOAT._replace(pmf=functools.partial(_float_pmf, log_fact=_log_factorials(size)))


def _tail(b: _Binomial, ks: tuple, n, q: _Rate, valid, upper: bool) -> list:
    """P(X_n > k) if upper else P(X_n <= k), X_n ~ Binom(n, q), for each k array of ks (one k per row),
    on rows of consecutive ascending n, valid on a prefix and 0 after it (n < 0 counts as 0). The
    recurrence in n: an sf anchor at a row's first n and a forward cumulative sum for the upper tail, a
    cdf anchor at its last valid n and a reverse one for the lower. The rows are stacked once per k and
    split after one pass; each row is still summed alone, so each tail keeps the bits of its own call."""
    k = np.concatenate(ks)
    if len(ks) > 1:  # the rows, once per k
        n, valid = np.concatenate([n] * len(ks)), np.concatenate([valid] * len(ks))
    if upper:
        terms = b.scalar(q) * b.pmf(k[:, None], n - 1, q)
        terms[:, 0] = b.sf(k, np.maximum(n[:, 0], 0), q)
        tails = terms.cumsum(axis=1) * valid
    else:
        terms = b.scalar(q) * b.pmf(k[:, None], n, q)
        rows, last = np.arange(len(n)), valid.sum(axis=1) - 1
        terms[rows, last] = b.cdf(k, np.maximum(n[rows, last], 0), q)
        tails = (terms * valid)[:, ::-1].cumsum(axis=1)[:, ::-1]
    return [tails[i : i + len(ks[0])] for i in range(0, len(n), len(ks[0]))]


def _no_faulty_rows(m, T, Q, b: _Binomial):
    """Exact failure probability with all components correct: fewer than T of m outcomes back the sender."""
    return b.cdf(T - 1, m, _THIRD)


def _window(b: _Binomial, m, lo, hi, q: _Rate, z):
    """The entries of each row, n = m - X with X ~ Binom(m, q) the weight's
    count: an (N, W) grid of consecutive n from each row's first kept n,
    valid up to its last, and the weight's mass at the n of [lo, hi] the
    window leaves out (one sf and one cdf, 0 where it keeps an edge). It
    keeps the n of [lo, hi] within z standard deviations of X's mode; with
    z None (the exact backend) the whole [lo, hi], leaving nothing out."""
    left_out = 0
    if z is not None:
        mode, h = m - (m + 1) * q.a // q.d, _half_width(m, q, z)
        n_lo, n_hi = np.maximum(lo, mode - h), np.minimum(hi, mode + h)
        left_out = np.where(n_lo > lo, b.sf(m - n_lo, m, q), 0.0) + np.where(n_hi < hi, b.cdf(m - n_hi - 1, m, q), 0.0)
        lo, hi = n_lo, n_hi
    n = lo[:, None] + np.arange(max(0, int((hi - lo).max())) + 1)
    return n, n <= hi[:, None], left_out


def _half_width(m, q: _Rate, z):
    """Entries a window keeps on each side of the mode: z sd of Binom(m, q), at least _MIN_HALF_WIDTH."""
    return np.ceil(np.minimum(np.maximum(z * np.sqrt(m * q.var), float(_MIN_HALF_WIDTH)), m)).astype(np.int64)


def _row_width(m, z=_Z0):
    """The most entries a float S or R0 row at each m spans at z (S's weight has the larger sd)."""
    return np.minimum(m, 2 * _half_width(m, _THIRD, z) + 1)


def _row_sum(x):
    """Each row's sum in index order, so the zeros padding it to its block's width add exactly nothing."""
    return x.cumsum(axis=1)[:, -1]


def _s_rows(m, T, Q, b: _Binomial, z=None):
    """LOWER and UPPER failure bounds with a faulty sender playing zeta_S,
    and how far a window (`_window`, float only) can have moved each.

    An Event is in the domain of zeta_S when T <= l3 <= m - T and
    T - Q <= l1 <= n - Q, with n = m - l3. Lower bound: in-domain Events
    fail with probability 2^-Q. Upper bound adds the out-of-domain mass: l3
    outside its range, or l1 in either tail given l3. Row entries run over
    n = T .. m - T; by the symmetry of q = 1/2, P(l1 > n - Q) = P(l1 <= Q - 1)."""
    n, valid, left_out = _window(b, m, T, m - T, _THIRD, z)
    w = b.pmf(m[:, None] - n, m[:, None], _THIRD) * valid  # P(l3 = m - n)
    below, above = _tail(b, (T - Q - 1, Q - 1), n, _HALF, valid, upper=False)  # P(l1 < T - Q), P(l1 > n - Q)
    l1_tails = below + above
    dom = _row_sum(w * (1 - l1_tails))
    out = b.cdf(T - 1, m, _THIRD) + b.sf(m - T, m, _THIRD) + _row_sum(w * l1_tails)
    two_to_minus_q = b.scalar(_HALF) ** Q
    lower = dom * two_to_minus_q
    # a left-out entry adds at most its weight to UPPER and 2^-Q times it to LOWER
    return lower, lower + out + left_out, left_out * two_to_minus_q, left_out


def _r_rows(m, T, Q, b: _Binomial, z=None):
    """LOWER and UPPER failure bounds with a faulty R0 playing zeta_R, and
    how far a window (`_window`, float only) can have moved each.

    The lower bound is the failure mass of the domain l1 <= m - T:
    - pink, l1 < T: too few vouched indices, failure guaranteed;
    - blue, T <= l1 <= m - T and l2 > T - Q: enough automatically-consistent
      XX10 indices, failure guaranteed;
    - orange, T <= l1 <= m - T and l2 <= T - Q: failure needs at most Q - 1
      unlucky picks among the T - l2 XX0X indices, each unlucky w.p. 1/3
      (that tail is 1 in the blue region).
    The upper bound adds the out-of-domain green region l1 > m - T. Row
    entries run over n = m - l2 = T .. m; larger l2 leaves l1 < T."""
    n, valid, left_out = _window(b, m, T, m, _SIXTH, z)
    w = b.pmf(m[:, None] - n, m[:, None], _SIXTH) * valid  # P(l2 = m - n)
    above_lo, above_hi = _tail(b, (T - 1, m - T), n, _TWO_FIFTHS, valid, upper=True)
    window = above_lo - above_hi  # P(T <= l1 <= m - T)
    (lucky,) = _tail(b, (Q - 1,), n - (m - T)[:, None], _THIRD, valid, upper=False)  # T - l2 picks
    pink, green = b.cdf(T - 1, m, _THIRD), b.sf(m - T, m, _THIRD)
    lower = pink + _row_sum(w * window * lucky)
    # a left-out entry adds at most its weight to either bound
    return lower, lower + green + left_out, left_out, left_out


def _certified(formula, m, T, Q, z=None):
    """Float LOWER and UPPER of a faulty formula, each row on a window that
    moves both by at most _CERTIFIED of their values (both capped at 1
    first). Rows start at z = _Z0 standard deviations of their weight; those
    whose left-out mass is too large are evaluated again at twice the width,
    up to the whole row. Rows run in blocks of as many rows of their largest
    m and width (`_row_width`) as _FORMULA_ENTRIES holds; one row is one
    block, with no index arrays."""
    z = np.float64(_Z0) if z is None else z
    step = max(1, _FORMULA_ENTRIES // _row_width(m.max(), z)) if len(m) > 1 else 1
    blocks = []
    for rows in (slice(lo, lo + step) for lo in range(0, len(m), step)):
        ms, Ts, Qs = m[rows], T[rows], Q[rows]
        top = int(ms.max())
        whole = top <= _MIN_HALF_WIDTH  # every window is the whole row and leaves nothing out
        lower, upper, *moved = formula(ms, Ts, Qs, _float_rows(1 << (2 * top).bit_length()), None if whole else z)
        lower, upper = np.minimum(lower, 1.0), np.minimum(upper, 1.0)
        if not whole:
            wide = (moved[0] > _CERTIFIED * lower) | (moved[1] > _CERTIFIED * upper)
            if wide.any():
                lower[wide], upper[wide] = _certified(formula, ms[wide], Ts[wide], Qs[wide], 2 * z)
        blocks.append((lower, upper))
    return blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))


def _report_rows(cfg: AdversaryConfig, rows, exact: bool = False) -> dict[BoundKind, np.ndarray]:
    """A configuration's report values over integer (m, T, Q) rows, an
    (N, 3) array, from its formula (float S and R0 rows through `_certified`):
    {EXACT} with no faulty component, {LOWER, UPPER} otherwise; the last is
    the one resource minimisation reads. Formulas are looked up as module
    globals on each call, so a wrapper set on them (a tracer, a spy) sees all."""
    b, columns = _EXACT if exact else _FLOAT, np.asarray(rows).T
    if _checked_config(cfg) is AdversaryConfig.NO_FAULTY:
        return {BoundKind.EXACT: _no_faulty_rows(*columns, b)}
    formula = _s_rows if cfg is AdversaryConfig.S_FAULTY else _r_rows
    lower, upper = formula(*columns, b)[:2] if exact else _certified(formula, *columns)
    return {BoundKind.LOWER: lower, BoundKind.UPPER: upper}


def _reports(cfg: AdversaryConfig, ps: list[ProtocolParams], exact: bool = False) -> list[tuple[FailureReport, ...]]:
    """A configuration's reports at each p of ps, from one block of rows:
    (EXACT,) with no faulty component, (LOWER, UPPER) otherwise."""
    values = _report_rows(cfg, [(p.m, p.T, p.Q) for p in ps], exact)
    columns = [(kind, v.tolist()) for kind, v in values.items()]
    return [tuple([FailureReport(cfg, kind, column[i], p) for kind, column in columns]) for i, p in enumerate(ps)]


def failure_reports(cfg: AdversaryConfig, p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, ...]:
    """A configuration's reports at one p: (EXACT,) with no faulty
    component, (LOWER, UPPER) otherwise. A one-row view of `_reports`."""
    return _reports(cfg, [p], exact)[0]


def pf_no_faulty_exact(p: ProtocolParams, exact: bool = False) -> FailureReport:
    """Exact failure probability with all components correct (one row of `_no_faulty_rows`)."""
    return failure_reports(AdversaryConfig.NO_FAULTY, p, exact)[0]


def pf_S_bounds(p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, FailureReport]:
    """LOWER/UPPER failure bounds with a faulty sender playing zeta_S (one row of `_s_rows`)."""
    return failure_reports(AdversaryConfig.S_FAULTY, p, exact)


def pf_R_bounds(p: ProtocolParams, exact: bool = False) -> tuple[FailureReport, FailureReport]:
    """LOWER/UPPER failure bounds with a faulty R0 playing zeta_R (one row of `_r_rows`)."""
    return failure_reports(AdversaryConfig.R0_FAULTY, p, exact)


def pf_bruteforce(cfg: AdversaryConfig, p: ProtocolParams) -> tuple[FailureReport, ...]:
    """Exhaustive 6^m oracle: run the protocol on every Event, block by
    block, and sum the integer weights of the failures into Fractions. The
    reports are failure_reports(cfg, p, exact=True)'s, from one enumeration:
    (EXACT,) with no faulty component, (LOWER, UPPER) for the optimal
    incomplete strategy otherwise, which score an Event outside its domain
    as success and as failure."""
    if p.m > 8:
        raise ValueError("exhaustive enumeration limited to m <= 8")
    kinds = (BoundKind.EXACT,) if _checked_config(cfg) is AdversaryConfig.NO_FAULTY else (BoundKind.LOWER, BoundKind.UPPER)
    weights = sum(_failed_weights(cfg, p, codes, nums)[:, 0] for codes, nums in _event_blocks(p.m)).cumsum()
    return tuple(FailureReport(cfg, kind, Fraction(int(w), _DENOMINATOR**p.m), p) for kind, w in zip(kinds, weights))
