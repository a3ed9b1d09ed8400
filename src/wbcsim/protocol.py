"""The WBC(3,1) state machine.

Four phases: invocation (S sends bit + check set), check (receivers test
length and consistency), cross-calling (R0 forwards to R1), and cross-check
(R1 may adopt R0's value). Every ProtocolParams derives its thresholds T
and Q from mu, lambda and m with exact rational ceilings, so boundary cases
like mu*m integral never misclassify.

The phases are written once, in an array engine that runs them on every row
of an (N, m) matrix of outcome codes, one Event per row. One failure kernel,
`_failed_weights`, runs it block by block for Monte-Carlo, the 6^m sums and
the strategy search; `run_protocol` is its one public entry for a single
row. Explicit strategies are checked once, where they enter
(`_checked_ks`); the engine trusts their counts.

The engine packs each block once into bitplanes, 64 indices per uint64
word (`_planes`): where S measured 0011, where it measured 1100, and each
receiver's bit. A check set or class is then a word mask, and every count
in the check and cross-check phases is a popcount (`_count`). The faulty
party's view holds the bytes of its three class masks and, for each byte,
the class's members before it: one running popcount over the block
(`_view`). The lowest k_c members of each class are then whole bytes up to
the one where the count runs out, and a select inside that byte, read from
a table (`_lowest`). Rows have no width limit.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .source import R0_BIT, R1_BIT, Event, _as_count, _is_count


class ParameterError(ValueError):
    """A protocol parameter violates its admissible range."""


def _fraction(value, name: str) -> Fraction:
    """A parameter as an exact Fraction; NaN, an infinity or text that is
    not a number raise ParameterError naming the parameter; any other type
    (None, an object) raises Fraction's TypeError, as is Python's convention."""
    try:
        return Fraction(value)
    except (ValueError, OverflowError) as exc:
        raise ParameterError(f"{name}={value!r} is not a finite number") from exc


def _mu(value) -> Fraction:
    """mu as a Fraction if 0 < mu < 1/3, the protocol's and the Chernoff bounds' range."""
    mu = _fraction(value, "mu")
    if not 0 < mu < Fraction(1, 3):
        raise ParameterError(f"mu={mu} must satisfy 0 < mu < 1/3")
    return mu


def _lam(value) -> Fraction:
    """lambda as a Fraction if 1/2 < lambda < 1, the protocol's range."""
    lam = _fraction(value, "lambda")
    if not Fraction(1, 2) < lam < 1:
        raise ParameterError(f"lambda={lam} must satisfy 1/2 < lambda < 1")
    return lam


class OutOfDomainError(Exception):
    """The Event's local count list is outside the adversary strategy domain."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Abort:
    """The 'abort' output besides 0 and 1; pickles and copies as the one ABORT."""

    def __repr__(self):
        return "ABORT"

    def __reduce__(self):
        return "ABORT"


ABORT = _Abort()
OutputValue = Union[int, _Abort]


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
    """Protocol parameters (mu, lambda, m). Every construction, `replace`
    included, checks 0 < mu < 1/3, 1/2 < lambda < 1 and m >= 1 and derives
    T = ceil(mu*m) and Q = T - ceil(lam*T) + 1 in exact rational arithmetic;
    the ranges imply 1 <= Q <= T <= m. mu and lam may be decimal strings,
    ints, Fractions or floats, m any integer type but bool."""

    mu: Fraction
    lam: Fraction
    m: int
    T: int = field(init=False)
    Q: int = field(init=False)

    def __post_init__(self):
        mu, lam = _mu(self.mu), _lam(self.lam)
        m = _as_count(self.m, "m", error=ParameterError)
        for name, value in zip(("mu", "lam", "m", "T", "Q"), (mu, lam, m, *_thresholds(mu, lam, m))):
            object.__setattr__(self, name, value)  # frozen

    @classmethod
    def create(cls, mu, lam, m: int) -> "ProtocolParams":
        """The same as ProtocolParams(mu, lam, m)."""
        return cls(mu, lam, m)


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


# -- the array engine ---------------------------------------------------------
#
# Row r of an (N, m) int8 code matrix is one Event; column i - 1 holds index
# i. The engine packs each row into bitplanes of W = ceil(m / 64) uint64
# words, little-endian: bit (i - 1) % 64 of word (i - 1) // 64 stands for
# index i, and the bits past m are 0. Check sets, class masks and strategy
# picks are (..., N, W) word masks, and every count is a popcount; the
# lowest-k selection reads the words' bytes. Output values are int8 codes:
# 0 and 1 for bits, _ABORT for ABORT.

_ABORT = 2
# Each receiver's bit of every outcome code as a bit table: bit `code` of
# _R0_BITS is R0's bit at an index with that code.
_R0_BITS, _R1_BITS = (np.int8(sum(bit << code for code, bit in enumerate(bits))) for bits in (R0_BIT, R1_BIT))

# Callers pass rows to the engine in blocks of at most _BLOCK_CODES outcome
# codes and _BLOCK_ROWS rows, so memory stays flat however many rows there
# are: a block's Monte-Carlo draws take at most 1 MiB, and short rows, each
# padded to a whole word per plane, do not multiply the rows. A search call
# gets the same 1 MiB, as tracemalloc measures it: per row, 3 int64 counts a
# byte and 4 words a word for each mask built, _PAIR_BYTES for each strategy pair.
_BLOCK_CODES = 1 << 17
_BLOCK_ROWS = 1 << 12
_PAIR_BYTES = 11


def _block_rows(m: int) -> int:
    """Rows per block for Events of length m (one row even if m is larger)."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_CODES // m))


def _as_words(row_bytes: np.ndarray) -> np.ndarray:
    """(..., B) bytes as (..., ceil(B / 8)) words, padded with zero bytes."""
    *lead, n = row_bytes.shape
    words = np.zeros((*lead, 8 * -(-n // 8)), np.uint8)
    words[..., :n] = row_bytes
    return words.view("<u8")


def _pack(bits: np.ndarray) -> np.ndarray:
    """(..., 8 B) bits (any nonzero value is set) as (..., W) words: the
    whole array packed at once, in one call however short its rows."""
    return _as_words(np.packbits(bits, axis=None, bitorder="little").reshape(*bits.shape[:-1], -1))


def _unpack(words: np.ndarray, m: int) -> np.ndarray:
    """(..., W) words as (..., m) booleans."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=m, bitorder="little").view(bool)


def _count(words: np.ndarray) -> np.ndarray:
    """Members of each row of a (..., W) word mask."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


class _Planes(NamedTuple):
    """A block's bitplanes, each (N, W): the indices where S measured 0011
    (code 0) and 1100 (code 5), and R0's and R1's bit at every index."""

    c0: np.ndarray
    c5: np.ndarray
    r0: np.ndarray
    r1: np.ndarray


def _planes(codes: np.ndarray) -> _Planes:
    """The bitplanes of an (N, m) code matrix, each row padded to whole
    bytes with code 6, which no plane holds."""
    n, m = codes.shape
    padded = np.full((n, 8 * -(-m // 8)), 6, np.int8)
    padded[:, :m] = codes
    bits = np.empty((4, *padded.shape), np.int8)
    np.equal(padded, 0, out=bits[0])
    np.equal(padded, 5, out=bits[1])
    for plane, table in zip(bits[2:], (_R0_BITS, _R1_BITS)):
        np.right_shift(table, padded, out=plane)
    return _Planes(*_pack(np.bitwise_and(bits, 1, out=bits)))


def _honest_sigma(planes: _Planes, x_s: int) -> np.ndarray:
    """A correct sender's check set: every index where S measured the pair
    x_S x_S, code 0 (0011) for x_S = 0 and code 5 (1100) for x_S = 1."""
    return planes.c0 if x_s == 0 else planes.c5


def _checked_config(cfg) -> AdversaryConfig:
    """cfg, after checking that it is an AdversaryConfig (its value string is not)."""
    if not isinstance(cfg, AdversaryConfig):
        raise ValueError(f"unknown adversary configuration {cfg!r}")
    return cfg


# Entry 9 * b + n: byte b with only its lowest n set bits, n = 0..8.
_LOWEST_BITS = np.array(
    [sum(1 << j for j in [j for j in range(8) if b >> j & 1][:n]) for b in range(256) for n in range(9)], np.uint8
)
_NONE, _ALL = np.int64(0), np.int64(8)  # a byte's 0..8 members; numpy bounds skip np.clip's dtype-limit check


class _View(NamedTuple):
    """One party's view of a block of rows. Its three classes are held by
    the B = ceil(m / 8) bytes of their word masks, class-major (3, N, B):
    `offsets`, each byte's row of _LOWEST_BITS (9 times the byte), and
    `before`, the class's members in all earlier bytes of the block, its
    earlier rows included; `start` (3, N) is that count at each row's first
    byte. `sizes` (3, N) are the class sizes of every row, the party's
    local count lists, and `planes` the block's bitplanes."""

    planes: _Planes
    offsets: np.ndarray
    before: np.ndarray
    start: np.ndarray
    sizes: np.ndarray

    def rows(self, lo: int, hi: int) -> _View:
        """The view of rows lo..hi-1; their running counts stay the block's."""
        return _View(_Planes(*(plane[lo:hi] for plane in self.planes)), *(x[:, lo:hi] for x in self[1:]))


def _view(cfg: AdversaryConfig, codes: np.ndarray, x_s: int = 0) -> _View:
    """The faulty party's classes of each row of a block: S's by its pair
    (0011 / mixed / 1100); R0's after receiving the correct sender's check
    set sigma0 for x_s: XX0X where it measured x_s, otherwise 0011 where S
    vouched for the index and XX10 where not."""
    n_bytes = -(-codes.shape[1] // 8)
    planes, inside = _planes(codes), _pack(np.arange(8 * n_bytes) < codes.shape[1])
    if _checked_config(cfg) is AdversaryConfig.S_FAULTY:
        members = [planes.c0, inside & ~(planes.c0 | planes.c5), planes.c5]
    elif cfg is AdversaryConfig.R0_FAULTY:
        sigma0 = _honest_sigma(planes, x_s)
        xx0x = planes.r0 if x_s == 1 else inside & ~planes.r0
        members = [sigma0 & ~xx0x, inside & ~(sigma0 | xx0x), xx0x]
    else:
        raise ValueError(f"only a faulty party has a strategy view, not {cfg!r}")
    member_bytes = np.stack(members).view(np.uint8)[..., :n_bytes]
    counts = np.bitwise_count(member_bytes)
    before = counts.astype(np.int64)
    np.cumsum(before.reshape(-1), out=before.reshape(-1))
    sizes = before[..., -1].copy()
    before -= counts
    sizes -= before[..., 0]
    return _View(planes, np.multiply(member_bytes, 9, dtype=np.int16), before, before[..., 0], sizes)


def _lowest(view: _View, ks) -> np.ndarray:
    """Word mask of the lowest ks[c] indices of each class c in each row,
    for 0 <= ks[c] <= m. ks is class-major and each ks[c] broadcasts against
    the rows: (3, N) holds one strategy per row, (3, K, 1) K strategies for
    every row, and the mask is then (K, N, W).

    Each byte keeps the lowest k_c + start - before of its class members,
    clipped to 0..8: none, all, or, in the byte where the count runs out,
    the lowest few, read from _LOWEST_BITS (a select within the byte)."""
    ks = np.asarray(ks)
    rows = (3,) + (1,) * (ks.ndim - 2) + view.start.shape[1:]
    need = (ks + view.start.reshape(rows))[..., None] - view.before.reshape(*rows, -1)
    np.clip(need, _NONE, _ALL, out=need)
    need += view.offsets.reshape(*rows, -1)
    kept = np.take(_LOWEST_BITS, need)
    return _as_words(kept[0] | kept[1] | kept[2])


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
    ok = (_count(sigma) >= T) & ~np.any(sigma & (bits if x == 1 else ~bits), axis=-1)
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
    length, ones = _count(rho01), _count(rho01 & r1_bits)
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
    faulty party's `_view` of codes for x_s, which holds the block's
    bitplanes (None without a faulty party: the engine packs codes). `ks` holds
    explicit strategies, class-major (6 counts for a faulty S, 3 for a
    faulty R0), each count within its class and broadcast against the
    rows: (k, N) plays one strategy per row, (k, K, 1) each of K strategies
    on every row, and the outputs are then (K, N); a faulty S's (3, K, 1)
    plays every (sigma0, sigma1) pair of its K k-vectors from one mask each,
    (K, K, N). When None, the faulty party plays zeta_S or zeta_R on each row.
    """
    n = len(codes)
    ood = np.zeros(n, np.int8)
    planes = _planes(codes) if view is None else view.planes

    # Invocation. A faulty S targets y0 = 0, y1 = 1 (the other target is symmetric).
    if cfg is AdversaryConfig.S_FAULTY:
        if ks is None:
            ood, ks = _zeta_S_rows(view.sizes, p)
        x0, x1 = 0, 1
        masks = _lowest(view, ks[:3])  # sigma0's; 3 counts are both check sets', sigma0's on axis 0, sigma1's on 1
        sigma0, sigma1 = (masks, _lowest(view, ks[3:])) if len(ks) == 6 else (masks[:, None], masks[None])
    else:
        x0 = x1 = x_s
        sigma0 = sigma1 = _honest_sigma(planes, x_s)

    # Check, then cross-calling. R1 always checks; a faulty R0 skips its check,
    # forwards a forgery instead of (y0, sigma0), and reports that forgery's
    # bit to the outside.
    y_tilde1 = _check(planes.r1, x1, sigma1, p.T)
    if cfg is AdversaryConfig.R0_FAULTY:
        if ks is None:
            ood, ks = _zeta_R_rows(view.sizes, p)
        y0 = y01 = np.full(n, 1 - x_s, np.int8)
        rho01 = _lowest(view, ks)
    else:
        y0 = _check(planes.r0, x0, sigma0, p.T)
        y01, rho01 = y0, sigma0

    y1 = _cross_check(y_tilde1, y01, rho01, planes.r1, p)
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


def _failed_weights(cfg: AdversaryConfig, p: ProtocolParams, codes, nums, ks=None) -> np.ndarray:
    """The weights (sums of `nums`) of the rows that fail for x_S = 0 inside
    the strategy domain (row 0) and of the rows outside it (row 1), one
    column per column of `ks` (explicit strategies, class-major, which have
    no outside) or, when None, for the optimal strategy; (2, K, K) for a
    faulty S's (3, K) set of k-vectors, sigma0's k-vector major. Each block
    is ranked once and plays every strategy on runs of its rows, as many as
    the block budget's bytes hold."""
    grid, m = (1,), codes.shape[1]
    step = run = _block_rows(m)
    if ks is not None:  # every strategy on every row, one mask per k-vector (3 counts each)
        ks, grid = ks[:, :, None], ks.shape[1:] * (2 if cfg is AdversaryConfig.S_FAULTY and len(ks) == 3 else 1)
        row_bytes = ks.size // 3 * 8 * (3 * -(-m // 8) + 4 * -(-m // 64)) + int(np.prod(grid)) * _PAIR_BYTES
        run = max(1, 8 * _BLOCK_CODES // row_bytes)
    weights = np.zeros((2, *grid), np.int64)
    for lo in range(0, len(codes), step):
        block = codes[lo : lo + step]
        view = None if cfg is AdversaryConfig.NO_FAULTY else _view(cfg, block)
        for r in range(0, len(block), run):
            part = view if run >= len(block) else view.rows(r, r + run)
            rows = _run_rows(block[r : r + run], p, cfg, 0, part, ks)
            inside, w = rows.ood == 0, nums[lo : lo + step][r : r + run]
            weights[0] += (inside & ~_achieved(cfg, 0, rows.y0, rows.y1)) @ w
            weights[1] += ~inside @ w
    return weights


# -- one-row views ------------------------------------------------------------


def _one_row(event: Event) -> np.ndarray:
    return np.array([event.codes], np.int8)


def _indices(words: np.ndarray, m: int) -> frozenset[int]:
    return frozenset((np.flatnonzero(_unpack(words, m)) + 1).tolist())


def _code(value: OutputValue) -> np.ndarray:
    return np.array([_ABORT if value is ABORT else value], np.int8)


def _value(code) -> OutputValue:
    return ABORT if code == _ABORT else int(code)


def _is_bit(value) -> bool:
    """Whether value is 0 or 1 as a count (`_is_count`): no bool, no float."""
    return _is_count(value, least=0) and value <= 1


def _sender_bit(x_s) -> int:
    if not _is_bit(x_s):
        raise ValueError(f"the sender's value is a bit, not {x_s!r}")
    return operator.index(x_s)


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
        _indices(r.sigma0[0], p.m),
        _indices(r.sigma1[0], p.m),
        x_s,
        _value(r.y0[0]),
        _value(r.y_tilde1[0]),
        _value(r.y01[0]),
        _indices(r.rho01[0], p.m),
        _value(r.y1[0]),
    )


def classify_weak_broadcast(cfg: AdversaryConfig, y_s: int, y0: OutputValue, y1: OutputValue) -> Outcome:
    """Score output values against the weak broadcast conditions (see
    `_achieved`)."""
    y_s = _sender_bit(y_s)
    for v in (y0, y1):
        if v is not ABORT and not _is_bit(v):
            raise ValueError("receiver outputs must be 0, 1, or ABORT")
    return Outcome.ACHIEVED if _achieved(cfg, y_s, _code(y0), _code(y1))[0] else Outcome.FAILURE


def classify_broadcast(cfg: AdversaryConfig, y_s: int, y0: int, y1: int) -> Outcome:
    """Score output bits against the (strong) broadcast conditions.

    On bits they coincide with the weak ones: weak consistency for a faulty
    sender reduces to y0 == y1.
    """
    if not all(map(_is_bit, (y_s, y0, y1))):
        raise ValueError("broadcast outputs are binary; ABORT is not allowed")
    return classify_weak_broadcast(cfg, y_s, y0, y1)
