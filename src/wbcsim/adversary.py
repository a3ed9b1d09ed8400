"""Adversary strategies for the faulty-sender and faulty-R0 configurations.

A strategy only fixes how many indices from each locally distinguishable
outcome class go into each check set; the failure probability does not
depend on which indices are picked within a class, so assembly always takes
the lowest indices. The optimal incomplete strategies zeta_S and zeta_R are
defined on restricted domains of local count lists; outside the domain they
raise OutOfDomainError, which bound computations score as worst case.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .protocol import (
    AdversaryConfig,
    OutOfDomainError,
    ProtocolParams,
    StrategyR,
    StrategyS,
    _block_rows,
    _checked_config,
    _checked_ks,
    _failed_weights,
    _one_row,
    _reason,
    _sender_bit,
    _view,
    _zeta_R_rows,
    _zeta_S_rows,
)
from .source import OUTCOME_PROBS, R0_BIT, S_CLASS, Event, LocalCountListR, LocalCountListS


def _strategy_view(zeta_rows, l: LocalCountListS, p: ProtocolParams, kind: type):
    if l.m != p.m:
        raise ValueError(f"local count list of {l.m} outcomes != params m {p.m}")
    local = (l.l1, l.l2, l.l3)
    ood, ks = zeta_rows(np.array(local)[:, None], p)
    if ood[0]:
        raise OutOfDomainError(_reason(ood[0], local, p))
    return kind(*ks[:, 0].tolist())


def zeta_S(l: LocalCountListS, p: ProtocolParams) -> StrategyS:
    """Optimal incomplete strategy (T-Q, Q, 0; 0, 0, l3) of a faulty sender.

    Defined when T-Q <= l1, Q <= l2 and T <= l3; otherwise raises
    OutOfDomainError naming the first failing condition.
    """
    return _strategy_view(_zeta_S_rows, l, p, StrategyS)


def zeta_R(l: LocalCountListR, p: ProtocolParams) -> StrategyR:
    """Optimal incomplete strategy (0, l2, n_min) of a faulty R0.

    n_min tops the check set up to length T with only-potentially-consistent
    XX0X indices. Defined when l1 <= m - T; otherwise raises OutOfDomainError.
    """
    return _strategy_view(_zeta_R_rows, l, p, StrategyR)


def local_counts_R(event: Event, x_s: int = 0) -> LocalCountListR:
    """R0's local count list (0011, XX10, XX0X) after receiving the correct
    sender's check set for the bit x_s."""
    view = _view(AdversaryConfig.R0_FAULTY, _one_row(event), _sender_bit(x_s))
    return LocalCountListR(*view.sizes[:, 0].tolist())


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
    class-major: one strategy per column (a faulty S's pairs sigma0-major)."""
    ks = np.array(list(itertools.product(*[range(b + 1) for b in counts]))).T
    return np.vstack([ks.repeat(len(ks[0]), 1), np.tile(ks, len(ks[0]))]) if cfg is AdversaryConfig.S_FAULTY else ks


# Each code's class for S (by its pair) and for R0 at x_S = 0 (XX0X where R0 measured 0, else 0011 for code 0)
_CLASSES = {
    AdversaryConfig.S_FAULTY: S_CLASS,
    AdversaryConfig.R0_FAULTY: tuple(2 if bit == 0 else int(code != 0) for code, bit in enumerate(R0_BIT)),
}


def _events_by_local_list(m: int, cfg: AdversaryConfig) -> dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]]:
    """Group all 6^m Events by the faulty party's local count list, read
    off each code's class. Each group is its rows' codes, in
    itertools.product order, with their probability numerators over 12^m."""
    if _checked_config(cfg) not in _CLASSES:
        raise ValueError(f"only a faulty party has a local count list, not {cfg!r}")
    codes, nums = (np.concatenate(parts) for parts in zip(*_event_blocks(m)))
    # the list sums to m, so (l1, l2) names it: key l1 * (m + 1) + l2
    key = np.take(np.array([m + 1, 1, 0], np.int16)[list(_CLASSES[cfg])], codes).sum(axis=1)
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    lists = [(l1, l2, m - l1 - l2) for l1, l2 in (divmod(k, m + 1) for k in key[order[np.r_[0, cuts]]].tolist())]
    return dict(zip(lists, zip(np.split(codes[order], cuts), np.split(nums[order], cuts))))


def _best_failed_weight(cfg: AdversaryConfig, p: ProtocolParams, codes: np.ndarray, nums: np.ndarray, counts) -> int:
    """The largest failed weight numerator any strategy reaches on one
    group of Events that share the local count list `counts` (exhaustive
    enumeration of k-vectors). A faulty S's pairs go as a (6, K, K) grid."""
    ks = _strategy_ks(cfg, counts)
    grid = ks.reshape(6, math.isqrt(ks.shape[1]), -1) if cfg is AdversaryConfig.S_FAULTY else ks
    return int(_failed_weights(cfg, p, codes, nums, grid)[0].max())


def conditional_failure_probability(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    events: tuple[np.ndarray, np.ndarray],
    strategy: Union[StrategyS, StrategyR],
) -> Fraction:
    """Exact failure probability of one strategy, conditioned on one
    `_events_by_local_list` group (codes, numerators) of Events."""
    codes, nums = events
    ks = _checked_ks(cfg, strategy, _view(cfg, codes[:1]))
    return Fraction(int(_failed_weights(cfg, p, codes, nums, ks)[0, 0]), int(nums.sum()))


def max_conditional_failure(
    cfg: AdversaryConfig,
    p: ProtocolParams,
    events: tuple[np.ndarray, np.ndarray],
) -> Fraction:
    """Best conditional failure probability any strategy achieves on one
    `_events_by_local_list` group (codes, numerators) of Events."""
    codes, nums = events
    return Fraction(_best_failed_weight(cfg, p, codes, nums, _view(cfg, codes[:1]).sizes[:, 0]), int(nums.sum()))


def best_failure_probability_bruteforce(cfg: AdversaryConfig, p: ProtocolParams) -> Fraction:
    """Highest failure probability achievable by any complete strategy.

    A complete strategy maps each local count list to a check-set
    composition, so the optimum factorizes: for every local count list,
    take the best strategy's failed weight; the group's probability times
    its best conditional failure probability is that weight over 12^m.
    Exact rationals; m is capped: the search costs 6^m Events times K masks
    per check set, not K^2, K their group's k-vectors. Faulty
    configurations only: the no-faulty oracle is analytics.pf_bruteforce.
    """
    if p.m > 6:
        raise ValueError("brute force limited to m <= 6")
    groups = _events_by_local_list(p.m, cfg).items()
    return Fraction(sum(_best_failed_weight(cfg, p, codes, nums, key) for key, (codes, nums) in groups), _DENOMINATOR**p.m)
