"""The WBC(3,1) state machine.

Four phases: invocation (S sends bit + check set), check (receivers test
length and consistency), cross-calling (R0 forwards to R1), and cross-check
(R1 may adopt R0's value). Thresholds T and Q are derived from the two real
parameters mu and lambda with exact rational ceilings, so boundary cases
like mu*m integral never misclassify.

The phases are written once, in an array engine that runs them on every row
of an (N, m) matrix of outcome codes, one Event per row. One failure kernel,
`_failed_weights`, runs it block by block for Monte-Carlo, the 6^m sums and
the strategy search; `run_protocol` and the public phase functions are views
of it on a single row. Explicit strategies are checked once, where they
enter (`_checked_ks`); the engine trusts their counts.

The engine ranks and counts a block in one pass each. The faulty party's
view packs its three classes into fields of w bits, one int64 running sum
over the flattened block holding every class rank of every row, less each
row's start (`_view`). The lowest k_c indices of each class come from one
biased subtract-and-mask on that sum (`_lowest`). The per-Event counts of
the check and cross-check phases are one matrix-vector product per mask
(`_counts`). The width w is one more than m's bit length; past m = 2^20,
where three fields no longer fit in int64, the same code runs on Python ints
in object arrays.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .source import R0_BIT, R1_BIT, S_CLASS, Event, _is_count


class ParameterError(ValueError):
    """A protocol parameter violates its admissible range."""


class OutOfDomainError(Exception):
    """The Event's local count list is outside the adversary strategy domain."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _AbortType:
    """Singleton 'abort' output, the third value besides 0 and 1."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ABORT"


ABORT = _AbortType()
OutputValue = Union[int, _AbortType]


class AdversaryConfig(enum.Enum):
    NO_FAULTY = "no-faulty"
    S_FAULTY = "s-faulty"
    R0_FAULTY = "r0-faulty"


class Outcome(enum.Enum):
    ACHIEVED = "achieved"
    FAILURE = "failure"


@dataclass(frozen=True)
class StrategyS:
    """Check-set composition of a faulty sender.

    k0_* counts go into sigma0 (sent to R0), k1_* into sigma1 (sent to R1),
    drawn from S's local classes 0011 / mixed / 1100.
    """

    k0_0011: int
    k0_mixed: int
    k0_1100: int
    k1_0011: int
    k1_mixed: int
    k1_1100: int


@dataclass(frozen=True)
class StrategyR:
    """Check-set composition of a faulty R0, drawn from its local classes
    0011 / XX10 / XX0X."""

    k_0011: int
    k_xx10: int
    k_xx0x: int


def _thresholds(mu: Fraction, lam: Fraction, m):
    """T = ceil(mu*m) and Q = T - ceil(lam*T) + 1 for an int m or an object
    array of int m, as floor divisions of Python ints: a float mu or lambda
    can have a numerator near 2^53, so its product with m or T would
    overflow int64 from m ~ 1000."""
    T = -(-mu.numerator * m // mu.denominator)
    return T, T + (-lam.numerator * T // lam.denominator) + 1


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol parameters (mu, lambda, m) with derived thresholds T, Q."""

    mu: Fraction
    lam: Fraction
    m: int
    T: int
    Q: int

    @classmethod
    def create(cls, mu, lam, m: int) -> "ProtocolParams":
        """Check the ranges and derive the check-set length threshold
        T = ceil(mu*m) and inconsistency budget Q = T - ceil(lam*T) + 1 in
        exact rational arithmetic. mu and lam may be decimal strings, ints,
        Fractions or floats, m any integer type but bool. The ranges imply
        1 <= Q <= T <= m."""
        mu = Fraction(mu)
        lam = Fraction(lam)
        if not 0 < mu < Fraction(1, 3):
            raise ParameterError(f"mu={mu} violates 0 < mu < 1/3")
        if not Fraction(1, 2) < lam < 1:
            raise ParameterError(f"lambda={lam} violates 1/2 < lambda < 1")
        if not _is_count(m):
            raise ParameterError(f"m={m!r} must be a positive count")
        m = operator.index(m)
        T, Q = _thresholds(mu, lam, m)
        return cls(mu=mu, lam=lam, m=m, T=T, Q=Q)


@dataclass(frozen=True)
class Transcript:
    """Phase-by-phase record of one protocol run."""

    x_s: int
    x0: int
    x1: int
    sigma0: frozenset[int]
    sigma1: frozenset[int]
    y_s: int
    y0: OutputValue
    y_tilde1: OutputValue
    y01: OutputValue
    rho01: frozenset[int]
    y1: OutputValue

    def to_json(self) -> str:
        def enc(v):
            return "abort" if v is ABORT else v

        return json.dumps(
            {
                "x_S": self.x_s,
                "x0": self.x0,
                "x1": self.x1,
                "sigma0": sorted(self.sigma0),
                "sigma1": sorted(self.sigma1),
                "y_S": self.y_s,
                "y0": enc(self.y0),
                "y_tilde1": enc(self.y_tilde1),
                "y01": enc(self.y01),
                "rho01": sorted(self.rho01),
                "y1": enc(self.y1),
            }
        )


# -- the array engine ---------------------------------------------------------
#
# Row r of an (N, m) int8 code matrix is one Event; column i - 1 holds index
# i. Check sets are (N, m) boolean masks. Output values are int8 codes: 0 and
# 1 for bits, _ABORT for ABORT.

_ABORT = 2
# Each receiver's bit of every outcome code as a bit table: bit `code` of
# _R0_BITS is R0's bit at an index with that code.
_R0_BITS, _R1_BITS = (np.int8(sum(bit << code for code, bit in enumerate(bits))) for bits in (R0_BIT, R1_BIT))
_S_CLASSES = np.array(S_CLASS, np.int8)
# R0's class of each index, for x_S = 0 and 1, at code + 6 * (index in
# sigma0): XX0X (2) where R0 measured x_S, otherwise 0011 (0) if S vouched
# for the index and XX10 (1) if not.
_R0_CLASSES = np.array(
    [[2 if R0_BIT[code] == x_s else 1 - vouched for vouched in (0, 1) for code in range(6)] for x_s in (0, 1)], np.int8
)

# Callers pass rows to the engine in blocks of at most this many outcome
# codes (rows times m), so memory stays flat however many rows there are.
_BLOCK_ELEMENTS = 1 << 14


def _block_rows(m: int) -> int:
    """Rows per block for Events of length m (one row even if m is larger)."""
    return max(1, _BLOCK_ELEMENTS // m)


def _bits(table: np.int8, codes: np.ndarray) -> np.ndarray:
    """A receiver's bit at every index, read from its bit table."""
    return (table >> codes) & 1


def _counts(mask: np.ndarray) -> np.ndarray:
    """Members of each row of a (..., m) boolean mask, as one float64
    matrix-vector product over the block (exact, since m < 2^53)."""
    return mask.astype(np.float64) @ np.ones(mask.shape[-1])


def _fields(m: int) -> tuple[int, np.ndarray]:
    """The field width w for Events of length m, and each class c's packed
    unit 1 << (w * c). With w one more than m's bit length, 2^(w - 1)
    exceeds m; the units are int64 while three fields fit in its 63 value
    bits (m < 2^20), Python ints in an object array past that."""
    w = m.bit_length() + 1
    return w, np.array([1 << (w * c) for c in range(3)], np.int64 if 3 * w <= 63 else object)


def _honest_sigma(codes: np.ndarray, x_s: int) -> np.ndarray:
    """A correct sender's check set: every index where S measured the pair
    x_S x_S, code 0 (0011) for x_S = 0 and code 5 (1100) for x_S = 1."""
    return codes == (0 if x_s == 0 else 5)


def _checked_config(cfg) -> AdversaryConfig:
    """cfg, after checking that it is an AdversaryConfig (its value string is not)."""
    if not isinstance(cfg, AdversaryConfig):
        raise ValueError(f"unknown adversary configuration {cfg!r}")
    return cfg


def _encode(cfg: AdversaryConfig, codes: np.ndarray, units: np.ndarray, x_s: int = 0, sigma0=None) -> np.ndarray:
    """The faulty party's class c of each index, as its packed unit
    units[c]: S's class by its pair; R0's after receiving sigma0 (by default
    the correct sender's check set), 0011 where it measured 1 - x_s and S
    vouched for the index, XX10 where it measured 1 - x_s otherwise, XX0X
    where it measured x_s."""
    if _checked_config(cfg) is AdversaryConfig.S_FAULTY:
        return np.take(units[_S_CLASSES], codes)
    if cfg is AdversaryConfig.R0_FAULTY:
        sigma0 = _honest_sigma(codes, x_s) if sigma0 is None else sigma0
        return np.take(units[_R0_CLASSES[x_s]], codes + 6 * sigma0.view(np.int8))
    raise ValueError(f"only a faulty party has a strategy view, not {cfg!r}")


class _Ranked(NamedTuple):
    """One party's view of a block of rows, packed in fields of w bits:
    field c of cum[r, i] - start[r] counts the indices of class c in row r
    up to and including index i, so at a class-c index it is the index's
    rank in its class (the lowest member has rank 1). top[r, i] is the top
    bit of the index's own field, and sizes[c] the class sizes of every
    row: the party's local count lists, class-major."""

    cum: np.ndarray
    start: np.ndarray
    top: np.ndarray
    sizes: np.ndarray
    w: int


def _view(cfg: AdversaryConfig, codes: np.ndarray, x_s: int = 0, sigma0: Optional[np.ndarray] = None) -> _Ranked:
    """The faulty party's ranked classes of each row of a block: one
    running sum of the packed units over the flattened block, and each
    row's start in it. An int64 sum may wrap around over a block; a row's
    own sum stays below 2^63, and the wrap cancels in the difference."""
    n, m = codes.shape
    w, units = _fields(m)
    enc = _encode(cfg, codes, units, x_s, sigma0)
    cum = np.cumsum(enc.reshape(-1)).reshape(n, m)
    start = np.zeros(n, cum.dtype)
    start[1:] = cum[:-1, -1]
    shifts = np.array([0, w, 2 * w], cum.dtype)[:, None]
    sizes = (((cum[:, -1] - start) >> shifts) & ((1 << w) - 1)).astype(np.int64)
    return _Ranked(cum, start, enc << (w - 1), sizes, w)


def _lowest(view: _Ranked, ks) -> np.ndarray:
    """Mask of the lowest ks[c] indices of each class c in each row, for
    0 <= ks[c] <= m. ks is class-major and each ks[c] broadcasts against
    the rows: (3, N) holds one strategy per row, (3, K, 1) K strategies for
    every row, and the mask is then (K, N, m).

    The row start folds into packed(k + bias) = start + sum of
    (k_c + bias) << (w * c) with bias = 2^(w - 1) > m. Field c of
    packed - cum is then k_c + bias - rank_c, between 1 and 2^w - 1, so no
    field borrows from the next, and its top bit is set iff rank_c <= k_c.
    Each index reads only its own class's top bit."""
    w = view.w
    k0, k1, k2 = (k.astype(view.cum.dtype, copy=False) for k in ks)
    bias = sum(1 << (w * c + w - 1) for c in range(3))
    packed = view.start + bias + k0 + (k1 << w) + (k2 << (2 * w))
    return ((packed[..., None] - view.cum) & view.top) != 0


# Out-of-domain reasons by the engine's code: zeta_S's first failing
# condition (1-3) and zeta_R's (4). Code 0 means in domain.
_REASONS = {
    1: "cond1: T-Q={TQ} > l1={l1}",
    2: "cond2: Q={Q} > l2={l2}",
    3: "cond3: T={T} > l3={l3}",
    4: "l1={l1} > m-T={mT}",
}


def _reason(code: int, local, p: ProtocolParams) -> str:
    l1, l2, l3 = (int(x) for x in local)
    return _REASONS[int(code)].format(T=p.T, Q=p.Q, TQ=p.T - p.Q, mT=p.m - p.T, l1=l1, l2=l2, l3=l3)


def _zeta_S_rows(local: np.ndarray, p: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """zeta_S on each row's local count list (l1, l2, l3), class-major: the
    reason code and the class-major strategy counts (T-Q, Q, 0; 0, 0, l3),
    zero outside the domain."""
    l1, l2, l3 = local
    ood = np.zeros(len(l1), np.int8)
    for code, fails in ((3, p.T > l3), (2, p.Q > l2), (1, p.T - p.Q > l1)):
        ood[fails] = code  # the first failing condition is written last
    ok = (ood == 0).astype(np.int64)
    zero = np.zeros_like(ok)
    return ood, np.stack([(p.T - p.Q) * ok, p.Q * ok, zero, zero, zero, l3 * ok])


def _zeta_R_rows(local: np.ndarray, p: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """zeta_R on each row's local count list, class-major: the reason code
    and the class-major strategy counts (0, l2, max(0, T - l2)), zero
    outside the domain."""
    l1, l2, _ = local
    ood = np.where(l1 > p.m - p.T, 4, 0).astype(np.int8)
    ok = (ood == 0).astype(np.int64)
    return ood, np.stack([np.zeros_like(ok), l2 * ok, np.maximum(p.T - l2, 0) * ok])


_STRATEGIES = {
    AdversaryConfig.S_FAULTY: (StrategyS, ("0011", "mixed", "1100")),
    AdversaryConfig.R0_FAULTY: (StrategyR, ("0011", "XX10", "XX0X")),
}


def _checked_ks(cfg: AdversaryConfig, strategy, view) -> np.ndarray:
    """An explicit strategy as the class-major one-row k array the engine
    takes, after checking that it is cfg's strategy class and asks each
    class of the local count list in the view's first row for a whole
    number of indices between 0 and as many as it holds."""
    if cfg not in _STRATEGIES:
        raise ValueError(f"no strategy allowed in the {cfg.value} configuration")
    kind, names = _STRATEGIES[cfg]
    if not isinstance(strategy, kind):
        raise ValueError(f"a {cfg.value} strategy must be a {kind.__name__}, not {type(strategy).__name__}")
    ks = dataclasses.astuple(strategy)
    for i, k in enumerate(ks):
        size = view.sizes[i % 3, 0]
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"{kind.__name__} requests {k!r} indices from class {names[i % 3]}, not a whole number")
        if not 0 <= k <= size:
            raise ValueError(f"strategy requests {k} indices from class {names[i % 3]} of size {size}")
    return np.array(ks)[:, None]


def _check(bits: np.ndarray, x: int, sigma: np.ndarray, T: int) -> np.ndarray:
    """Check phase: accept x iff the check set has at least T indices and
    the receiver measured the opposite bit at every one of them."""
    ok = (_counts(sigma) >= T) & (_counts(sigma & (bits == x)) == 0)
    return np.where(ok, x, _ABORT).astype(np.int8)


def _cross_check(y_tilde1, y01, rho01, r1_bits, p: ProtocolParams) -> np.ndarray:
    """Cross-check phase of R1.

    Adopts y01 iff R1 is confused (both values bits and different), the
    forwarded check set reaches length T, and R1 measured 1 - y01 on at
    least lam*T + |rho01| - T of its indices. In integers: at most Q - 1 of
    rho01's indices are inconsistent, since |rho01| - consistent is an
    integer and T - ceil(lam*T) = Q - 1.
    """
    confused = (y_tilde1 != _ABORT) & (y01 != _ABORT) & (y_tilde1 != y01)
    length, ones = _counts(rho01), _counts(rho01 & r1_bits.view(bool))
    inconsistent = np.where(y01 == 1, ones, length - ones)
    adopt = confused & (length >= p.T) & (inconsistent < p.Q)
    return np.where(adopt, y01, y_tilde1)


class _Rows(NamedTuple):
    """The engine's per-row results. `ood` is 0 in the strategy domain and
    otherwise a `_REASONS` code; the outputs of such a row are
    meaningless."""

    x0: int
    x1: int
    y0: np.ndarray
    y_tilde1: np.ndarray
    y01: np.ndarray
    y1: np.ndarray
    sigma0: np.ndarray
    sigma1: np.ndarray
    rho01: np.ndarray
    ood: np.ndarray


def _run_rows(codes: np.ndarray, p: ProtocolParams, cfg: AdversaryConfig, x_s: int, view, ks=None) -> _Rows:
    """Run the four phases on every row of an (N, m) outcome-code matrix.

    A faulty party replaces only the messages it controls: a faulty S its
    invocation, a faulty R0 its check and cross-calling. `view` is the
    faulty party's `_view` of codes for x_s (None without one). `ks` holds
    explicit strategies, class-major (6 counts for a faulty S, 3 for a
    faulty R0), each count within its class and broadcast against the
    rows: (k, N) plays one strategy per row, (k, K, 1) each of K strategies
    on every row, and the outputs are then (K, N). When None, the faulty
    party plays its optimal incomplete strategy on each row's local count
    list.
    """
    n = len(codes)
    ood = np.zeros(n, np.int8)

    # Invocation. A faulty S targets y0 = 0, y1 = 1 (the other target is symmetric).
    if cfg is AdversaryConfig.S_FAULTY:
        if ks is None:
            ood, ks = _zeta_S_rows(view.sizes, p)
        x0, x1 = 0, 1
        sigma0, sigma1 = _lowest(view, ks[:3]), _lowest(view, ks[3:])
    else:
        x0 = x1 = x_s
        sigma0 = sigma1 = _honest_sigma(codes, x_s)

    # Check, then cross-calling. R1 always checks; a faulty R0 skips its check,
    # forwards a forgery instead of (y0, sigma0), and reports that forgery's
    # bit to the outside.
    r1_bits = _bits(_R1_BITS, codes)
    y_tilde1 = _check(r1_bits, x1, sigma1, p.T)
    if cfg is AdversaryConfig.R0_FAULTY:
        if ks is None:
            ood, ks = _zeta_R_rows(view.sizes, p)
        y0 = y01 = np.full(n, 1 - x_s, np.int8)
        rho01 = _lowest(view, ks)
    else:
        y0 = _check(_bits(_R0_BITS, codes), x0, sigma0, p.T)
        y01, rho01 = y0, sigma0

    y1 = _cross_check(y_tilde1, y01, rho01, r1_bits, p)
    return _Rows(x0, x1, y0, y_tilde1, y01, y1, sigma0, sigma1, rho01, ood)


def _achieved(cfg: AdversaryConfig, y_s: int, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Weak broadcast verdict of each row.

    Validity binds every correct component to the correct sender's bit;
    consistency forbids two correct receivers deciding on opposite bits.
    """
    if cfg is AdversaryConfig.NO_FAULTY:
        return (y0 == y_s) & (y1 == y_s)
    if cfg is AdversaryConfig.S_FAULTY:
        return (y0 == _ABORT) | (y1 == _ABORT) | (y0 == y1)
    if cfg is AdversaryConfig.R0_FAULTY:
        return y1 == y_s
    raise ValueError(f"unknown adversary configuration {cfg!r}")


def _failed_weights(cfg: AdversaryConfig, p: ProtocolParams, codes, nums, ks=None, ood_fails=True) -> np.ndarray:
    """The failed weight (the sum of `nums` over the rows that fail for
    x_S = 0) of each column of `ks` (explicit strategies, class-major) or,
    when None, of the optimal strategy, under which a row outside its domain
    fails iff `ood_fails`. Each block is ranked once and runs its strategies
    a few at a time, so no engine call exceeds the block budget."""
    step = _block_rows(codes.shape[1])
    weights = np.zeros(1 if ks is None else ks.shape[1], np.int64)
    for lo in range(0, len(codes), step):
        block = codes[lo : lo + step]
        view = None if cfg is AdversaryConfig.NO_FAULTY else _view(cfg, block)
        per = max(1, step // len(block))
        for k in range(0, len(weights), per):
            rows = _run_rows(block, p, cfg, 0, view, None if ks is None else ks[:, k : k + per, None])
            failed = np.where(rows.ood != 0, ood_fails, ~_achieved(cfg, 0, rows.y0, rows.y1))
            weights[k : k + per] += failed @ nums[lo : lo + step]
    return weights


# -- one-row views ------------------------------------------------------------


def _one_row(event: Event) -> np.ndarray:
    return np.array([event.codes], np.int8)


def _mask(indices: frozenset[int], m: int) -> np.ndarray:
    mask = np.zeros((1, m), bool)
    mask[0, [i - 1 for i in indices]] = True
    return mask


def _indices(mask_row: np.ndarray) -> frozenset[int]:
    return frozenset((np.flatnonzero(mask_row) + 1).tolist())


def _code(value: OutputValue) -> np.ndarray:
    return np.array([_ABORT if value is ABORT else value], np.int8)


def _value(code) -> OutputValue:
    return ABORT if code == _ABORT else int(code)


def _sender_bit(x_s) -> int:
    if x_s not in (0, 1):
        raise ValueError(f"the sender's value is a bit, not {x_s!r}")
    return int(x_s)


def invocation_honest(event: Event, x_s: int):
    """Invocation phase for a correct sender: the bit x_S to both receivers,
    with the check set of every index where S measured x_S x_S."""
    x_s = _sender_bit(x_s)
    sigma = _indices(_honest_sigma(_one_row(event), x_s)[0])
    return x_s, sigma, x_s, sigma, x_s


def check_phase(event: Event, receiver: str, x_j: int, sigma_j: frozenset[int], p: ProtocolParams) -> OutputValue:
    """Check phase of receiver 'R0' or 'R1': accept x_j iff the check set is
    long enough and the receiver measured the opposite bit at every index."""
    bits = _bits(_R0_BITS if receiver == "R0" else _R1_BITS, _one_row(event))
    return _value(_check(bits, x_j, _mask(sigma_j, event.m), p.T)[0])


def cross_check(
    y_tilde1: OutputValue,
    y01: OutputValue,
    rho01: frozenset[int],
    event: Event,
    p: ProtocolParams,
) -> OutputValue:
    """Cross-check phase of R1 (see `_cross_check`)."""
    r1_bits = _bits(_R1_BITS, _one_row(event))
    return _value(_cross_check(_code(y_tilde1), _code(y01), _mask(rho01, event.m), r1_bits, p)[0])


def run_protocol(
    event: Event,
    p: ProtocolParams,
    cfg: AdversaryConfig,
    x_s: int = 0,
    strategy=None,
) -> Transcript:
    """Run the four phases once and return the full transcript.

    A faulty party replaces only the messages it controls: a faulty S its
    invocation, a faulty R0 its check and cross-calling. The strategy may be
    given explicitly (any legal check-set composition, a `StrategyS` or
    `StrategyR`); when None, the optimal incomplete strategy is derived from
    the adversary's local count list, raising OutOfDomainError when the
    Event falls outside its domain.
    """
    if event.m != p.m:
        raise ValueError(f"event length {event.m} != params m {p.m}")
    x_s = _sender_bit(x_s)
    codes = _one_row(event)
    view = None if cfg is AdversaryConfig.NO_FAULTY else _view(cfg, codes, x_s)
    ks = None if strategy is None else _checked_ks(cfg, strategy, view)
    r = _run_rows(codes, p, cfg, x_s, view, ks)
    if r.ood[0]:
        raise OutOfDomainError(_reason(r.ood[0], view.sizes[:, 0], p))
    return Transcript(
        x_s,
        r.x0,
        r.x1,
        _indices(r.sigma0[0]),
        _indices(r.sigma1[0]),
        x_s,
        _value(r.y0[0]),
        _value(r.y_tilde1[0]),
        _value(r.y01[0]),
        _indices(r.rho01[0]),
        _value(r.y1[0]),
    )


def classify_weak_broadcast(cfg: AdversaryConfig, y_s: int, y0: OutputValue, y1: OutputValue) -> Outcome:
    """Score output values against the weak broadcast conditions (see
    `_achieved`)."""
    y_s = _sender_bit(y_s)
    for v in (y0, y1):
        if v is not ABORT and v not in (0, 1):
            raise ValueError("receiver outputs must be 0, 1, or ABORT")
    return Outcome.ACHIEVED if _achieved(cfg, y_s, _code(y0), _code(y1))[0] else Outcome.FAILURE


def classify_broadcast(cfg: AdversaryConfig, y_s: int, y0: int, y1: int) -> Outcome:
    """Score output bits against the (strong) broadcast conditions.

    On bits they coincide with the weak ones: weak consistency for a faulty
    sender reduces to y0 == y1.
    """
    for v in (y_s, y0, y1):
        if v not in (0, 1):
            raise ValueError("broadcast outputs are binary; ABORT is not allowed")
    return classify_weak_broadcast(cfg, y_s, y0, y1)


def classify_transcript(cfg: AdversaryConfig, t: Transcript) -> Outcome:
    """Weak broadcast verdict for a full transcript."""
    return classify_weak_broadcast(cfg, t.x_s, t.y0, t.y1)

