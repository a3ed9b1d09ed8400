"""The WBC(3,1) state machine.

Four phases: invocation (S sends bit + check set), check (receivers test
length and consistency), cross-calling (R0 forwards to R1), and cross-check
(R1 may adopt R0's value). Thresholds T and Q are derived from the two real
parameters mu and lambda with exact rational ceilings, so boundary cases
like mu*m integral never misclassify.

The phases are written once, in an array engine that runs them on every row
of an (N, m) matrix of outcome codes, one Event per row. Monte-Carlo and the
exhaustive oracles feed it blocks of rows; `run_protocol` and the public
phase functions are views of it on a single row.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .source import R0_BIT, R1_BIT, S_CLASS, Event


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


def _is_count(value) -> bool:
    """Whether value is a positive integer of a Python or numpy integer type
    (one that operator.index accepts), a bool excluded."""
    try:
        return not isinstance(value, bool) and operator.index(value) >= 1
    except TypeError:
        return False


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
        T = math.ceil(mu * m)
        Q = T - math.ceil(lam * T) + 1
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
_R0_BITS = np.array(R0_BIT, np.int8)
_R1_BITS = np.array(R1_BIT, np.int8)
_S_CLASSES = np.array(S_CLASS, np.int8)
# R0's class of each index, for x_S = 0 and 1, at code + 6 * (index in
# sigma0): XX0X (2) where R0 measured x_S, otherwise 0011 (0) if S vouched
# for the index and XX10 (1) if not.
_R0_CLASSES = np.array(
    [[2 if R0_BIT[code] == x_s else 1 - vouched for vouched in (0, 1) for code in range(6)] for x_s in (0, 1)], np.int8
)
_S_NAMES = ("0011", "mixed", "1100")
_R_NAMES = ("0011", "XX10", "XX0X")

# Callers pass rows to the engine in blocks of at most this many outcome
# codes (rows times m), so memory stays flat however many rows there are.
_BLOCK_ELEMENTS = 1 << 14


def _block_rows(m: int) -> int:
    """Rows per block for Events of length m (one row even if m is larger)."""
    return max(1, _BLOCK_ELEMENTS // m)


class _Ranked(NamedTuple):
    """One party's view of each row, by its three classes c: member[c] marks
    the indices of class c, rank[c] counts them up to and including each
    index (the lowest member has rank 1), and sizes[:, c] is the class size.
    The sizes are the party's local count lists."""

    member: np.ndarray
    rank: np.ndarray
    sizes: np.ndarray


def _lowest(view: _Ranked, ks: np.ndarray, names) -> np.ndarray:
    """Mask of the lowest ks[r, c] indices of each class c in each row r."""
    bad = (ks < 0) | (ks > view.sizes)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise ValueError(f"strategy requests {ks[r, c]} indices from class {names[c]} of size {view.sizes[r, c]}")
    return (view.member & (view.rank <= ks.T[:, :, None])).any(axis=0)


def _honest_sigma(codes: np.ndarray, x_s: int) -> np.ndarray:
    """A correct sender's check set: every index where S measured the pair
    x_S x_S, code 0 (0011) for x_S = 0 and code 5 (1100) for x_S = 1."""
    return codes == (0 if x_s == 0 else 5)


def _r0_classes(codes: np.ndarray, sigma0: np.ndarray, x_s: int) -> np.ndarray:
    """R0's classes after receiving sigma0: 0011 (class 0) where it measured
    1 - x_s and S vouched for the index, XX10 (1) where it measured 1 - x_s
    otherwise, XX0X (2) where it measured x_s."""
    return np.take(_R0_CLASSES[x_s], codes + 6 * sigma0.view(np.int8))


def _view(cfg: AdversaryConfig, codes: np.ndarray, x_s: int = 0, sigma0: Optional[np.ndarray] = None) -> _Ranked:
    """The faulty party's ranked classes of each row: S's by its pair, R0's
    after receiving sigma0 (by default the correct sender's check set)."""
    if cfg is AdversaryConfig.S_FAULTY:
        cls = np.take(_S_CLASSES, codes)
    elif cfg is AdversaryConfig.R0_FAULTY:
        cls = _r0_classes(codes, _honest_sigma(codes, x_s) if sigma0 is None else sigma0, x_s)
    else:
        raise ValueError(f"only a faulty party has a strategy view, not {cfg!r}")
    member = cls == np.arange(3, dtype=cls.dtype)[:, None, None]
    rank = np.cumsum(member, axis=2, dtype=np.int32)
    return _Ranked(member, rank, rank[:, :, -1].T)


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
    """zeta_S on each row's local count list (l1, l2, l3): the reason code
    and the strategy counts (T-Q, Q, 0; 0, 0, l3), zero outside the domain."""
    l1, l2, l3 = local.T
    ood = np.select([p.T - p.Q > l1, p.Q > l2, p.T > l3], [1, 2, 3], 0).astype(np.int8)
    ks = np.zeros((len(local), 6), np.intp)
    ks[:, 0], ks[:, 1], ks[:, 5] = p.T - p.Q, p.Q, l3
    ks[ood != 0] = 0
    return ood, ks


def _zeta_R_rows(local: np.ndarray, p: ProtocolParams) -> tuple[np.ndarray, np.ndarray]:
    """zeta_R on each row's local count list: the reason code and the
    strategy counts (0, l2, max(0, T - l2)), zero outside the domain."""
    l1, l2, _ = local.T
    ood = np.where(l1 > p.m - p.T, 4, 0).astype(np.int8)
    ks = np.stack([np.zeros_like(l2), l2, np.maximum(p.T - l2, 0)], axis=1)
    ks[ood != 0] = 0
    return ood, ks


def _ks(strategy) -> np.ndarray:
    """A strategy's counts (an `adversary.StrategyS` or `StrategyR`) as the
    one-row k array the engine takes."""
    return np.array([dataclasses.astuple(strategy)])


def _check(bits: np.ndarray, x: int, sigma: np.ndarray, T: int) -> np.ndarray:
    """Check phase: accept x iff the check set has at least T indices and
    the receiver measured the opposite bit at every one of them."""
    ok = (np.count_nonzero(sigma, axis=1) >= T) & ~(sigma & (bits == x)).any(axis=1)
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
    inconsistent = np.count_nonzero(rho01 & (r1_bits == y01[:, None]), axis=1)
    adopt = confused & (np.count_nonzero(rho01, axis=1) >= p.T) & (inconsistent < p.Q)
    return np.where(adopt, y01, y_tilde1)


class _Rows(NamedTuple):
    """The engine's per-row results. `ood` is 0 in the strategy domain and
    otherwise a `_REASONS` code; the outputs of such a row are
    meaningless. `local` holds the faulty party's local count lists."""

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
    local: Optional[np.ndarray]


def _run_rows(codes: np.ndarray, p: ProtocolParams, cfg: AdversaryConfig, x_s: int, ks=None) -> _Rows:
    """Run the four phases on every row of an (N, m) outcome-code matrix.

    A faulty party replaces only the messages it controls: a faulty S its
    invocation, a faulty R0 its check and cross-calling. `ks` holds one
    explicit strategy per row ((N, 6) counts for a faulty S, (N, 3) for a
    faulty R0); when None, the faulty party plays its optimal incomplete
    strategy on each row's local count list.
    """
    n = len(codes)
    ood, local = np.zeros(n, np.int8), None

    # Invocation. A faulty S targets y0 = 0, y1 = 1 (the other target is symmetric).
    if cfg is AdversaryConfig.S_FAULTY:
        view = _view(cfg, codes)
        local = view.sizes
        if ks is None:
            ood, ks = _zeta_S_rows(local, p)
        x0, x1 = 0, 1
        sigma0, sigma1 = _lowest(view, ks[:, :3], _S_NAMES), _lowest(view, ks[:, 3:], _S_NAMES)
    else:
        x0 = x1 = x_s
        sigma0 = sigma1 = _honest_sigma(codes, x_s)

    # Check, then cross-calling. R1 always checks; a faulty R0 skips its check,
    # forwards a forgery instead of (y0, sigma0), and reports that forgery's
    # bit to the outside.
    r1_bits = np.take(_R1_BITS, codes)
    y_tilde1 = _check(r1_bits, x1, sigma1, p.T)
    if cfg is AdversaryConfig.R0_FAULTY:
        view = _view(cfg, codes, x_s, sigma0)
        local = view.sizes
        if ks is None:
            ood, ks = _zeta_R_rows(local, p)
        y0 = y01 = np.full(n, 1 - x_s, np.int8)
        rho01 = _lowest(view, ks, _R_NAMES)
    else:
        y0 = _check(np.take(_R0_BITS, codes), x0, sigma0, p.T)
        y01, rho01 = y0, sigma0

    y1 = _cross_check(y_tilde1, y01, rho01, r1_bits, p)
    return _Rows(x0, x1, y0, y_tilde1, y01, y1, sigma0, sigma1, rho01, ood, local)


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


def _failed(cfg: AdversaryConfig, p: ProtocolParams, codes: np.ndarray, ks=None, ood_fails: bool = True) -> np.ndarray:
    """Which rows fail the weak broadcast conditions for x_S = 0, running the
    engine on one block of rows at a time. A row outside the strategy domain
    fails iff `ood_fails` (worst-case scoring, as for the upper bounds)."""
    step = _block_rows(codes.shape[1])
    failed = []
    for lo in range(0, len(codes), step):
        rows = _run_rows(codes[lo : lo + step], p, cfg, 0, None if ks is None else ks[lo : lo + step])
        failed.append(np.where(rows.ood != 0, ood_fails, ~_achieved(cfg, 0, rows.y0, rows.y1)))
    return np.concatenate(failed)


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


def invocation_honest(event: Event, x_s: int):
    """Invocation phase for a correct sender: the bit x_S to both receivers,
    with the check set of every index where S measured x_S x_S."""
    sigma = _indices(_honest_sigma(_one_row(event), x_s)[0])
    return x_s, sigma, x_s, sigma, x_s


def check_phase(event: Event, receiver: str, x_j: int, sigma_j: frozenset[int], p: ProtocolParams) -> OutputValue:
    """Check phase of receiver 'R0' or 'R1': accept x_j iff the check set is
    long enough and the receiver measured the opposite bit at every index."""
    bits = np.take(_R0_BITS if receiver == "R0" else _R1_BITS, _one_row(event))
    return _value(_check(bits, x_j, _mask(sigma_j, event.m), p.T)[0])


def cross_check(
    y_tilde1: OutputValue,
    y01: OutputValue,
    rho01: frozenset[int],
    event: Event,
    p: ProtocolParams,
) -> OutputValue:
    """Cross-check phase of R1 (see `_cross_check`)."""
    r1_bits = np.take(_R1_BITS, _one_row(event))
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
    given explicitly (any legal check-set composition, an
    `adversary.StrategyS` or `StrategyR`); when None, the
    optimal incomplete strategy is derived from the adversary's local count
    list, raising OutOfDomainError when the Event falls outside its domain.
    """
    if event.m != p.m:
        raise ValueError(f"event length {event.m} != params m {p.m}")
    if not isinstance(cfg, AdversaryConfig):
        raise ValueError(f"unknown adversary configuration {cfg!r}")
    if strategy is not None and cfg is AdversaryConfig.NO_FAULTY:
        raise ValueError("no strategy allowed in the no-faulty configuration")
    ks = None if strategy is None else _ks(strategy)
    r = _run_rows(_one_row(event), p, cfg, x_s, ks)
    if r.ood[0]:
        raise OutOfDomainError(_reason(r.ood[0], r.local[0], p))
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
    if y_s not in (0, 1):
        raise ValueError("the sender's value is a bit")
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

