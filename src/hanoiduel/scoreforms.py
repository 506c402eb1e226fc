"""Closed-form game values: verdicts, score invariants, minimum move counts.

Normal play on three pegs is always a first-player win, and the winning
certificates are exactly the constructive transfers.  Scoring play is
settled by a handful of exact rational invariants of the weight triple:

* ``beta1``  score of the minimal transfer to the target peg,
* ``beta2``  score of the round trip moving the largest disk,
* ``beta3``  best minimal-transfer score over both non-start pegs,
* ``gamma``  w12 + w13 + w23 - 3 min(w), which is positive unless all
  weights are equal and is half the score gained by one run of the
  sixteen-move pump around the cheapest edge.

The scores and lengths of the other certificate lines (the two-disk
families, the exceptional three-disk lines and their pumps) are stated
once, in ``construct``, and composed here.  Minimum-move results are exact
where a route of matching length exists and otherwise a lower/upper bound
pair, the upper bound being the best pumped route:
``route_length + 16 * pumps_needed``.

All quantities are exact ``Fraction`` arithmetic; infinity is ``math.inf``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial

from .core import Ending, GameConfig, Weights
from .notation import Atom, SeqExpr, seq_length
from .construct import (
    EXCEPTIONAL_PUMP_PEGS,
    exceptional_delta,
    exceptional_three_disk,
    invert_sigma,
    minimal_transfer,
    permute_seq,
    pumps_needed,
    return_transfer,
    scoring_strategy,
    small_pair_return,
    standard_sigma,
    two_disk_family,
    two_disk_family_delta,
)


class Outcome(str, Enum):
    FIRST_WIN = "FirstWin"
    SECOND_WIN = "SecondWin"
    DRAW = "Draw"
    TIE = "Tie"


@dataclass(frozen=True)
class Verdict:
    """Game value with an optional witnessing line.

    ``certificate`` is a forcing line for the winner (None when no single
    line certifies, e.g. draws).  ``predicted_delta`` is the exact final
    score of the certificate under scoring play, None for normal play.
    """

    outcome: Outcome
    certificate: SeqExpr | None = None
    predicted_delta: Fraction | None = None


@dataclass(frozen=True)
class ScoringInvariants:
    beta1: Fraction
    beta2: Fraction
    beta3: Fraction
    gamma: Fraction
    all_equal: bool
    alpha: Fraction | None


@dataclass(frozen=True)
class MinMovesResult:
    """Minimum number of moves to settle the game, exactly or as bounds."""

    lower: int | float
    upper: int | float

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


def _exactly(value: int | float) -> MinMovesResult:
    return MinMovesResult(value, value)


def delta_minimal_13(disks: int, w: Weights) -> Fraction:
    """Exact score of the 2^n - 1 move transfer from peg 1 to peg 3."""
    if disks % 2 == 1:
        return w.w13
    return w.w12 + w.w23 - w.w13


def delta_minimal_11(disks: int, w: Weights) -> Fraction:
    """Exact score of the 2^(n+1) - 1 move round trip on peg 1 (n >= 2)."""
    if disks < 2:
        raise ValueError("round trips are defined for two or more disks")
    if disks % 2 == 1:
        return 3 * w.w23 - w.w12 - w.w13
    return w.w12 + w.w13 - w.w23


# Relabelling that swaps pegs 2 and 3: finishing on peg 2 is finishing on
# peg 3 of the swapped board.
_SWAP_23 = {1: 1, 2: 3, 3: 2}


def invariants_of(disks: int, w: Weights) -> ScoringInvariants:
    return ScoringInvariants(
        beta1=delta_minimal_13(disks, w),
        beta2=delta_minimal_11(disks, w) if disks >= 2 else w.w13,
        beta3=max(
            delta_minimal_13(disks, w), delta_minimal_13(disks, w.permuted(_SWAP_23))
        ),
        gamma=sum(w.as_tuple()) - 3 * min(w.as_tuple()),
        all_equal=w.is_uniform,
        alpha=w.w12 if w.is_uniform else None,
    )


# ---------------------------------------------------------------------------
# Normal play.


def _normal_play(cfg: GameConfig) -> tuple[Outcome, Callable[[], SeqExpr | None], int | float]:
    """Normal-play outcome of a cell, a builder of its witnessing line on
    cfg's board (the line may be None) and the closed-form move count.

    On three pegs the first player always wins and the count is the length
    of the line: the exact forced-win radius except for return-largest
    with four or more disks.  There the line is the 2^(n+1) - 1 round trip
    of ``return_transfer``, so the count is only an upper bound: the
    searched radius is 2^n + 7 (checked through n=9).  The count is still
    reported as exact.  The line is built only when called for, since a
    count alone is cheap at any n.
    """
    n, ending = cfg.disks, cfg.ending
    if cfg.pegs == 3:
        if ending is Ending.RETURN_LARGEST:
            line, count = partial(return_transfer, n), 2 ** (n + 1) - 1
        elif ending is Ending.RETURN_SMALLEST or (ending is Ending.ANY_SMALLEST and n >= 3):
            # The two-disk shuffle is shortest once n >= 3.
            line, count = small_pair_return, 7
        elif ending is Ending.ANY_LARGEST and n == 1:
            line, count = partial(Atom, 1, 2), 1
        else:
            line, count = partial(minimal_transfer, n, 1, 3), 2**n - 1
        sigma = standard_sigma(cfg)
        return Outcome.FIRST_WIN, lambda: permute_seq(line(), sigma), count
    # Four or more pegs: the defender has room to dodge except in the
    # smallest games.
    if n == 1:
        if ending is Ending.TO_PEG:
            other = cfg.final_peg
        else:
            other = min(p for p in range(1, cfg.pegs + 1) if p != cfg.start_peg)
        a, b = sorted((cfg.start_peg, other))
        return Outcome.FIRST_WIN, lambda: Atom(a, b) if b <= 9 else None, 1
    if n == 2 and ending in (Ending.ANY_LARGEST, Ending.ANY_SMALLEST):
        # Wins in three plies, but the defender picks among spare pegs, so
        # no fixed move line certifies.
        return Outcome.FIRST_WIN, lambda: None, 3
    return Outcome.DRAW, lambda: None, math.inf


def normal_verdict(cfg: GameConfig) -> Verdict:
    """Who wins normal play under optimal defence, with a certificate."""
    outcome, line, _ = _normal_play(cfg)
    return Verdict(outcome, line())


def min_moves_normal(cfg: GameConfig) -> MinMovesResult:
    """Closed-form number of moves for the first player to win.

    Exact except for three-peg return-largest with four or more disks,
    where it is only an upper bound although reported as exact; see
    ``_normal_play``.
    """
    return _exactly(_normal_play(cfg)[2])


# ---------------------------------------------------------------------------
# Scoring play.


# The two-disk families that finish each ending, in the order the verdict
# tries them.
_ENDING_FAMILIES = {
    Ending.TO_PEG: (1, 2),
    Ending.RETURN_LARGEST: (5,),
    Ending.RETURN_SMALLEST: (5,),
    Ending.ANY_LARGEST: (1, 2, 4, 3, 5),
    Ending.ANY_SMALLEST: (1, 2, 4, 3, 5),
}


def _one_disk_move(cfg: GameConfig, ws: Weights) -> tuple[Fraction, Atom]:
    """The first player's single move on the standard board and its score:
    to peg 3 under to-peg, else along the better of the two edges."""
    if cfg.ending is Ending.TO_PEG or ws.w13 > ws.w12:
        return ws.w13, Atom(1, 3)
    return ws.w12, Atom(1, 2)


def _winning_families(cfg: GameConfig, ws: Weights) -> list[int]:
    families = _ENDING_FAMILIES[cfg.ending]
    return [f for f in families if two_disk_family_delta(f, ws) > 0]


def _scoring_play(
    cfg: GameConfig, w: Weights
) -> tuple[Outcome, Callable[[], tuple[SeqExpr | None, Fraction | None]]]:
    """Scoring-play outcome of a cell on three pegs, and a builder of its
    certificate and the certificate's exact score (both None for a draw).

    The outcome needs no line: one disk is settled by the sign of the
    single move's score, two disks by whether any family of the ending
    wins, and more disks by the weights alone, a draw only when all are
    equal and not positive.  The certificate is built only when called
    for, since with non-uniform weights on n >= 3 it is the pumped route
    of ``scoring_strategy``, counted on integers of about n bits.
    """
    sigma = standard_sigma(cfg)
    ws = w.permuted(invert_sigma(sigma))
    n = cfg.disks
    if n == 1:
        delta, move = _one_disk_move(cfg, ws)
        outcome = (Outcome.FIRST_WIN if delta > 0
                   else Outcome.TIE if delta == 0 else Outcome.SECOND_WIN)
        return outcome, lambda: (permute_seq(move, sigma), delta)
    if n == 2:
        winners = _winning_families(cfg, ws)
        if not winners:
            return Outcome.DRAW, lambda: (None, None)
        return Outcome.FIRST_WIN, lambda: (
            permute_seq(two_disk_family(winners[0]), sigma),
            two_disk_family_delta(winners[0], ws),
        )
    if ws.is_uniform:
        if ws.w12 > 0:
            return Outcome.FIRST_WIN, lambda: (normal_verdict(cfg).certificate, ws.w12)
        return Outcome.DRAW, lambda: (None, None)

    def pumped() -> tuple[SeqExpr, Fraction]:
        plan = scoring_strategy(cfg, w)
        return plan.full, plan.predicted_delta

    return Outcome.FIRST_WIN, pumped


def scoring_outcome(cfg: GameConfig, w: Weights) -> Outcome:
    """Game value of scoring play on three pegs, without a certificate:
    ``scoring_verdict(cfg, w).outcome``, at the cost of a few weight
    comparisons at any n."""
    return _scoring_play(cfg, w)[0]


def scoring_verdict(cfg: GameConfig, w: Weights) -> Verdict:
    """Game value of scoring play on three pegs, with a certificate."""
    outcome, line = _scoring_play(cfg, w)
    return Verdict(outcome, *line())


def _pumped(length: int, delta: Fraction, gamma: Fraction) -> int:
    """Length of a route of score ``delta`` with the pumps that make it win
    (each pump adds 16 moves and 2 gamma)."""
    return length + 16 * pumps_needed(delta, 2 * gamma)


def _pumped_n3(ws: Weights, gamma: Fraction) -> int:
    """Shortest pumped three-disk route to peg 3 over every cheapest edge.

    The pump around w13 rides the minimal transfer; the pumps around w12
    and w23 ride the exceptional 11- and 13-move lines instead.
    """
    cheapest = min(ws.as_tuple())
    lengths = []
    for edge, value in zip(("w12", "w13", "w23"), ws.as_tuple()):
        if value != cheapest:
            continue
        if edge not in EXCEPTIONAL_PUMP_PEGS:
            lengths.append(_pumped(7, delta_minimal_13(3, ws), gamma))
            continue
        for variant in (1, 2):
            length = seq_length(exceptional_three_disk(edge, variant))
            delta = exceptional_delta(edge, variant, ws)
            lengths.append(_pumped(length, delta, gamma))
    return min(lengths)


def min_moves_scoring(cfg: GameConfig, w: Weights) -> MinMovesResult:
    """Minimum number of moves to settle scoring play, exact or bounded.

    With one disk the single forced first move already settles any nonzero
    score (for either player), so the count is 1 unless the score ties.
    With two disks it is the shortest family line of the ending against
    the shortest winning one.  Bounded results give the best pumped-route
    upper bound together with the structural lower bound.
    """
    ws = w.permuted(invert_sigma(standard_sigma(cfg)))
    n = cfg.disks
    if n == 1:
        return _exactly(1 if _one_disk_move(cfg, ws)[0] else math.inf)
    if n == 2:
        winners = _winning_families(cfg, ws)
        if not winners:
            return _exactly(math.inf)
        families = _ENDING_FAMILIES[cfg.ending]
        length = {f: seq_length(two_disk_family(f)) for f in families}
        return MinMovesResult(min(length.values()), min(length[f] for f in winners))
    if ws.is_uniform:
        if ws.w12 > 0:
            return min_moves_normal(cfg)
        return _exactly(math.inf)
    inv = invariants_of(n, ws)
    gamma = inv.gamma
    transfer, round_trip = 2**n - 1, 2 ** (n + 1) - 1
    ending = cfg.ending
    if ending is Ending.TO_PEG:
        if inv.beta1 > 0:
            return _exactly(transfer)
        if n == 3:
            return MinMovesResult(8, _pumped_n3(ws, gamma))
        return MinMovesResult(transfer + 1, _pumped(transfer, inv.beta1, gamma))
    full_return = _pumped(round_trip, inv.beta2, gamma)
    if ending is Ending.RETURN_LARGEST:
        if inv.beta2 > 0:
            return _exactly(round_trip)
        return MinMovesResult(round_trip + 1, full_return)
    # The seven-move shuffle of the two smallest disks and the fifteen-move
    # round trip of the three smallest score like the two- and three-disk
    # round trips.
    pair_return = delta_minimal_11(2, ws)
    small_return = delta_minimal_11(3, ws)
    if ending is Ending.RETURN_SMALLEST:
        if pair_return > 0:
            return _exactly(7)
        if small_return > 0:
            return _exactly(15)
        return MinMovesResult(16, _pumped(15, small_return, gamma))
    if n == 3:
        direct = min(_pumped_n3(ws, gamma), _pumped_n3(ws.permuted(_SWAP_23), gamma))
    else:
        direct = _pumped(transfer, inv.beta3, gamma)
    if ending is Ending.ANY_LARGEST:
        if inv.beta3 > 0:
            return _exactly(transfer)
        return MinMovesResult(transfer + 1, min(direct, full_return))
    # ANY_SMALLEST
    if pair_return > 0 or (n == 3 and inv.beta3 > 0):
        return _exactly(7)
    if small_return > 0 or (n == 4 and inv.beta3 > 0):
        return MinMovesResult(7, 15)
    if inv.beta3 > 0:
        return MinMovesResult(7, transfer)
    return MinMovesResult(8, min(_pumped(15, small_return, gamma), direct))
