"""Adversary strategies for the faulty-sender and faulty-R0 configurations.

A strategy only fixes how many indices from each locally distinguishable
outcome class go into each check set; the failure probability does not
depend on which indices are picked within a class, so assembly always takes
the lowest indices. The optimal incomplete strategies zeta_S and zeta_R are
defined on restricted domains of local count lists; outside the domain the
verdict is OutOfDomain, which bound computations score as worst case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .protocol import (
    AdversaryConfig,
    ProtocolParams,
    _block_rows,
    _failed,
    _ks,
    _mask,
    _one_row,
    _reason,
    _view,
    _zeta_R_rows,
    _zeta_S_rows,
)
from .source import OUTCOME_PROBS, Event, LocalCountListR, LocalCountListS


@dataclass(frozen=True)
class DomainVerdict:
    """Result of a strategy domain check; out-of-domain carries the reason."""

    in_domain: bool
    reason: str | None = None

    def __post_init__(self):
        if not self.in_domain and not self.reason:
            raise ValueError("an out-of-domain verdict needs a reason")


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


def _strategy_view(zeta_rows, l: LocalCountListS, p: ProtocolParams, kind: type):
    local = (l.l1, l.l2, l.l3)
    ood, ks = zeta_rows(np.array([local]), p)
    return DomainVerdict(False, _reason(ood[0], local, p)) if ood[0] else kind(*ks[0].tolist())


def zeta_S(l: LocalCountListS, p: ProtocolParams) -> Union[StrategyS, DomainVerdict]:
    """Optimal incomplete strategy (T-Q, Q, 0; 0, 0, l3) of a faulty sender.

    Defined when T-Q <= l1, Q <= l2 and T <= l3; otherwise returns the
    out-of-domain verdict naming the first failing condition.
    """
    return _strategy_view(_zeta_S_rows, l, p, StrategyS)


def zeta_R(l: LocalCountListR, p: ProtocolParams) -> Union[StrategyR, DomainVerdict]:
    """Optimal incomplete strategy (0, l2, n_min) of a faulty R0.

    n_min tops the check set up to length T with only-potentially-consistent
    XX0X indices. Defined when l1 <= m - T.
    """
    return _strategy_view(_zeta_R_rows, l, p, StrategyR)


def local_counts_R(event: Event, sigma0: frozenset[int], x_s: int = 0) -> LocalCountListR:
    """R0's local count list (0011, XX10, XX0X) after receiving sigma0."""
    view = _view(AdversaryConfig.R0_FAULTY, _one_row(event), x_s, _mask(sigma0, event.m))
    return LocalCountListR(*view.sizes[0].tolist())


# Event probabilities are integer numerators over _DENOMINATOR**m.
_DENOMINATOR = math.lcm(*(q.denominator for q in OUTCOME_PROBS))
_NUMERATORS = np.array([int(q * _DENOMINATOR) for q in OUTCOME_PROBS], np.int64)


def _event_blocks(m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All 6^m Events in itertools.product order, as engine-sized blocks of
    codes, each with its rows' probability numerators over 12^m."""
    place = 6 ** np.arange(m - 1, -1, -1)
    step = _block_rows(m)
    for lo in range(0, 6**m, step):
        codes = (np.arange(lo, min(lo + step, 6**m))[:, None] // place % 6).astype(np.int8)
        yield codes, np.prod(_NUMERATORS[codes], axis=1)


def _all_events(m: int) -> Iterator[tuple[Event, Fraction]]:
    den = _DENOMINATOR**m
    for codes, nums in _event_blocks(m):
        for row, num in zip(codes.tolist(), nums.tolist()):
            yield Event(tuple(row)), Fraction(num, den)


def _strategy_ks(cfg: AdversaryConfig, counts: np.ndarray) -> np.ndarray:
    """Every k-vector that draws at most the available indices per class,
    one per row."""
    check_sets = 2 if cfg is AdversaryConfig.S_FAULTY else 1
    return np.array(list(itertools.product(*[range(b + 1) for b in counts] * check_sets)))


def _events_by_local_list(m: int, cfg: AdversaryConfig) -> dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]]:
    """Group all 6^m Events by the faulty party's local count list. Each
    group is its rows' codes, in itertools.product order, with their
    probability numerators over 12^m."""
    blocks = list(_event_blocks(m))
    sizes = np.concatenate([_view(cfg, codes).sizes for codes, _ in blocks])
    codes, nums = (np.concatenate(parts) for parts in zip(*blocks))
    keys, group = np.unique(sizes, axis=0, return_inverse=True)
    group = group.reshape(-1)
    return {tuple(key): (codes[group == g], nums[group == g]) for g, key in enumerate(keys.tolist())}


def _failed_weights(cfg: AdversaryConfig, p: ProtocolParams, codes: np.ndarray, nums: np.ndarray, ks: np.ndarray):
    """Failed weight numerator of each strategy (a row of ks) on one group's
    rows. Each strategy is paired with every row; the pairs run through the
    engine a few strategies at a time, so no block exceeds its size."""
    n = len(codes)
    per = max(1, _block_rows(codes.shape[1]) // n)
    weights = []
    for lo in range(0, len(ks), per):
        chunk = ks[lo : lo + per]
        failed = _failed(cfg, p, np.tile(codes, (len(chunk), 1)), ks=np.repeat(chunk, n, axis=0))
        weights.append(failed.reshape(len(chunk), n) @ nums)
    return np.concatenate(weights)


def _best_failed_weight(cfg: AdversaryConfig, p: ProtocolParams, codes: np.ndarray, nums: np.ndarray) -> int:
    """The largest failed weight numerator any strategy reaches on one
    local count list group (exhaustive enumeration of k-vectors)."""
    ks = _strategy_ks(cfg, _view(cfg, codes[:1]).sizes[0])
    return int(_failed_weights(cfg, p, codes, nums, ks).max())


def conditional_failure_probability(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    events: tuple[np.ndarray, np.ndarray],
    strategy: Union[StrategyS, StrategyR],
) -> Fraction:
    """Exact failure probability of one strategy, conditioned on one
    `_events_by_local_list` group (codes, numerators) of Events."""
    codes, nums = events
    return Fraction(int(_failed_weights(cfg, p, codes, nums, _ks(strategy))[0]), int(nums.sum()))


def max_conditional_failure(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    events: tuple[np.ndarray, np.ndarray],
) -> Fraction:
    """Best conditional failure probability any strategy achieves on one
    `_events_by_local_list` group (codes, numerators) of Events."""
    codes, nums = events
    return Fraction(_best_failed_weight(cfg, p, codes, nums), int(nums.sum()))


def best_failure_probability_bruteforce(cfg: AdversaryConfig, p: ProtocolParams, max_m: int = 6) -> Fraction:
    """Highest failure probability achievable by any complete strategy.

    A complete strategy maps each local count list to a check-set
    composition, so the optimum factorizes: for every local count list,
    take the best strategy's failed weight; the group's probability times
    its best conditional failure probability is that weight over 12^m.
    Exact rationals; m is capped because enumeration is 6^m Events times
    all k-vectors. Faulty configurations only: the no-faulty oracle is
    analytics.pf_bruteforce.
    """
    if p.m > max_m:
        raise ValueError(f"brute force limited to m <= {max_m}")
    groups = _events_by_local_list(p.m, cfg).values()
    return Fraction(sum(_best_failed_weight(cfg, p, codes, nums) for codes, nums in groups), _DENOMINATOR**p.m)
