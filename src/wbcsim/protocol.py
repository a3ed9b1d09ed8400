"""The WBC(3,1) state machine.

Four phases: invocation (S sends bit + check set), check (receivers test
length and consistency), cross-calling (R0 forwards to R1), and cross-check
(R1 may adopt R0's value). Thresholds T and Q are derived from the two real
parameters mu and lambda with exact rational ceilings, so boundary cases
like mu*m integral never misclassify.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .source import Event, global_counts, project_S

if TYPE_CHECKING:
    from .adversary import StrategyR, StrategyS


class ParameterError(ValueError):
    """A protocol parameter violates its admissible range."""


class OutOfDomainError(Exception):
    """The Event's local count list is outside the adversary strategy domain."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class DomainVerdict:
    """Result of a strategy domain check; out-of-domain carries the reason."""

    in_domain: bool
    reason: str | None = None

    def __post_init__(self):
        if not self.in_domain and not self.reason:
            raise ValueError("an out-of-domain verdict needs a reason")


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
        Fractions or floats; the ranges imply 1 <= Q <= T <= m."""
        mu = Fraction(mu)
        lam = Fraction(lam)
        if not 0 < mu < Fraction(1, 3):
            raise ParameterError(f"mu={mu} violates 0 < mu < 1/3")
        if not Fraction(1, 2) < lam < 1:
            raise ParameterError(f"lambda={lam} violates 1/2 < lambda < 1")
        if m < 1:
            raise ParameterError(f"m={m} must be a positive count")
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


def invocation_honest(event: Event, x_s: int):
    """Invocation phase for a correct sender.

    The check set collects every index where S measured the pair x_S x_S:
    code 0 (0011) for x_S = 0, code 5 (1100) for x_S = 1.
    """
    want = 0 if x_s == 0 else 5
    sigma = frozenset(i for i, c in enumerate(event.codes, start=1) if c == want)
    return x_s, sigma, x_s, sigma, x_s


def check_phase(event: Event, receiver: str, x_j: int, sigma_j: frozenset[int], p: ProtocolParams) -> OutputValue:
    """Check phase of receiver 'R0' or 'R1': accept x_j iff the check set is
    long enough and the receiver measured the opposite bit at every index."""
    bit = event.r0_bit if receiver == "R0" else event.r1_bit
    if len(sigma_j) >= p.T and all(bit(i) != x_j for i in sigma_j):
        return x_j
    return ABORT


def cross_check(
    y_tilde1: OutputValue,
    y01: OutputValue,
    rho01: frozenset[int],
    event: Event,
    p: ProtocolParams,
) -> OutputValue:
    """Cross-check phase of R1.

    Adopts y01 iff R1 is confused (both values defined and different), the
    forwarded check set reaches length T, and R1 measured 1 - y01 on at
    least lam*T + |rho01| - T of its indices (exact rational comparison).
    """
    if y_tilde1 is ABORT or y01 is ABORT or y_tilde1 == y01:
        return y_tilde1
    if len(rho01) < p.T:
        return y_tilde1
    consistent = sum(1 for i in rho01 if event.r1_bit(i) == 1 - y01)
    if consistent >= p.lam * p.T + len(rho01) - p.T:
        return y01
    return y_tilde1


def _in_domain(derived):
    """Pass a derived strategy through; turn an out-of-domain verdict into
    OutOfDomainError."""
    if isinstance(derived, DomainVerdict):
        raise OutOfDomainError(derived.reason)
    return derived


def run_protocol(
    event: Event,
    p: ProtocolParams,
    cfg: AdversaryConfig,
    x_s: int = 0,
    strategy: Optional[Union["StrategyS", "StrategyR"]] = None,
) -> Transcript:
    """Run the four phases once and return the full transcript.

    A faulty party replaces only the messages it controls: a faulty S its
    invocation, a faulty R0 its check and cross-calling. The strategy may be
    given explicitly (any legal check-set composition); when None, the
    optimal incomplete strategy is derived from the adversary's local count
    list, raising OutOfDomainError when the Event falls outside its domain.
    """
    if event.m != p.m:
        raise ValueError(f"event length {event.m} != params m {p.m}")
    if not isinstance(cfg, AdversaryConfig):
        raise ValueError(f"unknown adversary configuration {cfg!r}")
    if strategy is not None and cfg is AdversaryConfig.NO_FAULTY:
        raise ValueError("no strategy allowed in the no-faulty configuration")

    # Invocation. A faulty S targets y0 = 0, y1 = 1 (the other target is symmetric).
    if cfg is AdversaryConfig.S_FAULTY:
        if strategy is None:
            strategy = _in_domain(adversary.zeta_S(project_S(global_counts(event)), p))
        x0, x1, y_s = 0, 1, x_s
        sigma0, sigma1 = adversary.assemble_check_sets_S(event, strategy)
    else:
        x0, sigma0, x1, sigma1, y_s = invocation_honest(event, x_s)

    # Check, then cross-calling. R1 always checks; a faulty R0 skips its check,
    # forwards a forgery instead of (y0, sigma0), and reports that forgery's
    # bit to the outside.
    y_tilde1 = check_phase(event, "R1", x1, sigma1, p)
    if cfg is AdversaryConfig.R0_FAULTY:
        if strategy is None:
            strategy = _in_domain(adversary.zeta_R(adversary.local_counts_R(event, sigma0, x_s=x_s), p))
        y01, rho01 = adversary.assemble_rho_R(event, sigma0, strategy, x_s=x_s)
        y0 = y01
    else:
        y0 = check_phase(event, "R0", x0, sigma0, p)
        y01, rho01 = y0, sigma0

    y1 = cross_check(y_tilde1, y01, rho01, event, p)
    return Transcript(x_s, x0, x1, sigma0, sigma1, y_s, y0, y_tilde1, y01, rho01, y1)


def classify_weak_broadcast(cfg: AdversaryConfig, y_s: int, y0: OutputValue, y1: OutputValue) -> Outcome:
    """Score output values against the weak broadcast conditions.

    Validity binds every correct component to the correct sender's bit;
    consistency forbids two correct receivers deciding on opposite bits.
    """
    if y_s not in (0, 1):
        raise ValueError("the sender's value is a bit")
    for v in (y0, y1):
        if v is not ABORT and v not in (0, 1):
            raise ValueError("receiver outputs must be 0, 1, or ABORT")
    if cfg is AdversaryConfig.NO_FAULTY:
        ok = y0 == y_s and y1 == y_s
    elif cfg is AdversaryConfig.S_FAULTY:
        ok = not (y0 in (0, 1) and y1 in (0, 1) and y0 != y1)
    elif cfg is AdversaryConfig.R0_FAULTY:
        ok = y1 == y_s
    else:
        raise ValueError(f"unknown adversary configuration {cfg!r}")
    return Outcome.ACHIEVED if ok else Outcome.FAILURE


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


# Imported last, because adversary imports this module's names. run_protocol
# looks adversary's functions up on the module at each call.
from . import adversary  # noqa: E402
