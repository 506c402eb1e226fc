"""Closed-form game values: verdicts, score invariants, minimum move counts.

Normal play on three pegs is always a first-player win, and the winning
certificates are exactly the constructive transfers.  Scoring play is
settled by a handful of exact rational invariants of the weight triple:

* ``beta1``  score of the minimal transfer to the target peg,
* ``beta2``  score of the round trip moving the largest disk,
* ``beta3``  best minimal-transfer score over both non-start pegs,
* ``gamma``  the largest of w_ab + w_ac - 2 w_bc over the three pegs a,
  which is positive unless all weights are equal and measures the score
  gained by sixteen pump moves (2 gamma per pump).

Minimum-move results are exact where a route of matching length exists and
otherwise a lower/upper bound pair, the upper bound being the best pumped
route: ``route_length + 16 * pumps_needed``.

All quantities are exact ``Fraction`` arithmetic; infinity is ``math.inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import Ending, GameConfig, GameError, Weights
from .notation import Atom, SeqExpr
from .construct import (
    invert_sigma,
    minimal_transfer,
    permute_seq,
    return_transfer,
    scoring_strategy,
    sigma_for,
    small_pair_return,
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
    exact: bool


def _exactly(value: int | float) -> MinMovesResult:
    return MinMovesResult(value, value, True)


def _bounds(lower: int | float, upper: int | float) -> MinMovesResult:
    return MinMovesResult(lower, upper, lower == upper)


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


def _route_delta(disks: int, w: Weights, final: int) -> Fraction:
    """Minimal-transfer score from peg 1 to ``final`` (2 or 3)."""
    if final == 3:
        return delta_minimal_13(disks, w)
    if final == 2:
        if disks % 2 == 1:
            return w.w12
        return w.w13 + w.w23 - w.w12
    raise ValueError(f"final peg {final} must be 2 or 3")


def invariants_of(disks: int, w: Weights) -> ScoringInvariants:
    gamma = max(
        w.w12 + w.w13 - 2 * w.w23,
        w.w12 + w.w23 - 2 * w.w13,
        w.w13 + w.w23 - 2 * w.w12,
    )
    return ScoringInvariants(
        beta1=delta_minimal_13(disks, w),
        beta2=delta_minimal_11(disks, w) if disks >= 2 else w.w13,
        beta3=max(_route_delta(disks, w, 2), _route_delta(disks, w, 3)),
        gamma=gamma,
        all_equal=w.is_uniform,
        alpha=w.w12 if w.is_uniform else None,
    )


# ---------------------------------------------------------------------------
# Normal play.


def _standard_sigma(cfg: GameConfig) -> dict[int, int]:
    """Relabelling from the standard board (start 1, target 3) to cfg's."""
    if cfg.pegs != 3:
        raise GameError("closed forms cover the three-peg game")
    if cfg.ending is Ending.TO_PEG:
        return sigma_for(cfg.start_peg, cfg.final_peg)
    return sigma_for(cfg.start_peg)


def _normal_certificate(cfg: GameConfig) -> SeqExpr:
    """The standard-board witnessing line for a three-peg normal-play win."""
    n = cfg.disks
    ending = cfg.ending
    if ending is Ending.TO_PEG:
        return minimal_transfer(n, 1, 3)
    if ending is Ending.RETURN_LARGEST:
        return return_transfer(n, 1)
    if ending is Ending.RETURN_SMALLEST:
        return small_pair_return()
    if ending is Ending.ANY_LARGEST:
        return minimal_transfer(n, 1, 3) if n >= 2 else Atom(1, 2)
    # ANY_SMALLEST: the two-disk shuffle is shortest once n >= 3
    return small_pair_return() if n >= 3 else minimal_transfer(n, 1, 3)


def normal_verdict(cfg: GameConfig) -> Verdict:
    """Who wins normal play under optimal defence, with a certificate."""
    n, l = cfg.disks, cfg.pegs
    if l == 3:
        cert = permute_seq(_normal_certificate(cfg), _standard_sigma(cfg))
        return Verdict(Outcome.FIRST_WIN, cert)
    # Four or more pegs: the defender has room to dodge except in the
    # smallest games.
    if n == 1:
        if cfg.ending is Ending.TO_PEG:
            a, b = cfg.start_peg, cfg.final_peg
            cert = Atom(min(a, b), max(a, b)) if max(a, b) <= 9 else None
            return Verdict(Outcome.FIRST_WIN, cert)
        other = min(p for p in range(1, l + 1) if p != cfg.start_peg)
        a, b = cfg.start_peg, other
        cert = Atom(min(a, b), max(a, b)) if max(a, b) <= 9 else None
        return Verdict(Outcome.FIRST_WIN, cert)
    if n == 2 and cfg.ending in (Ending.ANY_LARGEST, Ending.ANY_SMALLEST):
        # Wins in three plies, but the defender picks among spare pegs, so
        # no fixed move line certifies.
        return Verdict(Outcome.FIRST_WIN, None)
    return Verdict(Outcome.DRAW, None)


def min_moves_normal(cfg: GameConfig) -> MinMovesResult:
    """Closed-form number of moves for the first player to win.

    The value is the exact forced-win radius in every three-peg cell
    except return-largest with four or more disks.  There it is
    2^(n+1) - 1, the length of the ``return_transfer`` line and so only
    an upper bound: the searched radius is 2^n + 7 (checked through
    n=7).  The result still reports ``exact=True`` for those cells.
    """
    n, l = cfg.disks, cfg.pegs
    if l == 3:
        ending = cfg.ending
        if ending in (Ending.TO_PEG, Ending.ANY_LARGEST):
            return _exactly(2**n - 1)
        if ending is Ending.RETURN_LARGEST:
            return _exactly(2 ** (n + 1) - 1)
        if ending is Ending.RETURN_SMALLEST:
            return _exactly(7)
        return _exactly(2**n - 1 if n <= 2 else 7)
    if n == 1:
        return _exactly(1)
    if n == 2 and cfg.ending in (Ending.ANY_LARGEST, Ending.ANY_SMALLEST):
        return _exactly(3)
    return _exactly(math.inf)


# ---------------------------------------------------------------------------
# Scoring play.


_INEQUALITIES = {
    1: lambda w: w.w12 + w.w23 - w.w13,
    2: lambda w: 3 * w.w13 - w.w12 - w.w23,
    3: lambda w: w.w13 + w.w23 - w.w12,
    4: lambda w: 3 * w.w12 - w.w13 - w.w23,
    5: lambda w: w.w12 + w.w13 - w.w23,
}

# Winning line family certifying each satisfied inequality.
_INEQ_FAMILY = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5}

_EC_INEQUALITIES = {
    Ending.TO_PEG: (1, 2),
    Ending.RETURN_LARGEST: (5,),
    Ending.RETURN_SMALLEST: (5,),
    Ending.ANY_LARGEST: (1, 2, 3, 4, 5),
    Ending.ANY_SMALLEST: (1, 2, 3, 4, 5),
}


def _scoring_standard(cfg: GameConfig, w: Weights) -> tuple[dict[int, int], Weights]:
    sigma = _standard_sigma(cfg)
    return sigma, w.permuted(invert_sigma(sigma))


def _one_disk_verdict(cfg: GameConfig, ws: Weights, sigma: dict[int, int]) -> Verdict:
    if cfg.ending is Ending.TO_PEG:
        delta = ws.w13
        line = permute_seq(Atom(1, 3), sigma)
    else:
        # Any peg ends the game; take the better of the two first moves.
        if ws.w12 >= ws.w13:
            delta, line = ws.w12, permute_seq(Atom(1, 2), sigma)
        else:
            delta, line = ws.w13, permute_seq(Atom(1, 3), sigma)
    if delta > 0:
        return Verdict(Outcome.FIRST_WIN, line, delta)
    if delta == 0:
        return Verdict(Outcome.TIE, line, delta)
    return Verdict(Outcome.SECOND_WIN, line, delta)


def scoring_verdict(cfg: GameConfig, w: Weights) -> Verdict:
    """Game value of scoring play on three pegs, with a certificate."""
    sigma, ws = _scoring_standard(cfg, w)
    n = cfg.disks
    if n == 1:
        return _one_disk_verdict(cfg, ws, sigma)
    if n == 2:
        for ineq in _EC_INEQUALITIES[cfg.ending]:
            value = _INEQUALITIES[ineq](ws)
            if value > 0:
                family = _INEQ_FAMILY[ineq]
                cert = permute_seq(two_disk_family(family, 0), sigma)
                assert two_disk_family_delta(family, ws) == value
                return Verdict(Outcome.FIRST_WIN, cert, value)
        return Verdict(Outcome.DRAW, None, None)
    if ws.is_uniform:
        alpha = ws.w12
        if alpha > 0:
            cert = permute_seq(_normal_certificate(cfg), sigma)
            return Verdict(Outcome.FIRST_WIN, cert, alpha)
        return Verdict(Outcome.DRAW, None, None)
    plan = scoring_strategy(cfg, w)
    return Verdict(Outcome.FIRST_WIN, plan.full, plan.predicted_delta)


def _pumps_needed(delta: Fraction, gamma: Fraction) -> int:
    """Pump repetitions to push a route score above zero (0 if already won)."""
    if delta > 0:
        return 0
    return math.floor(Fraction(-delta) / (2 * gamma)) + 1


_EXC_FOR_FINAL = {
    # gamma expressions whose pump cannot ride the plain minimal transfer
    # to this peg for n = 3; special 11/13-move openings are used instead.
    3: ("w13+w23-2w12", "w12+w13-2w23"),
    2: ("w12+w23-2w13", "w12+w13-2w23"),
}


def _gamma_expressions(w: Weights) -> dict[str, Fraction]:
    return {
        "w12+w13-2w23": w.w12 + w.w13 - 2 * w.w23,
        "w12+w23-2w13": w.w12 + w.w23 - 2 * w.w13,
        "w13+w23-2w12": w.w13 + w.w23 - 2 * w.w12,
    }


def _peg_candidates_n3(
    ws: Weights, gamma: Fraction, expr: str, final: int
) -> list[int]:
    """Pumped-route lengths finishing the three-disk game on ``final``."""
    if expr not in _EXC_FOR_FINAL[final]:
        return [7 + 16 * _pumps_needed(_route_delta(3, ws, final), gamma)]
    if final == 3:
        long_open = 2 * (ws.w12 + ws.w23) - 3 * ws.w13
        short_close = ws.w13
    else:
        long_open = 2 * (ws.w13 + ws.w23) - 3 * ws.w12
        short_close = ws.w12
    return [
        11 + 16 * _pumps_needed(long_open, gamma),
        13 + 16 * _pumps_needed(short_close, gamma),
    ]


def _shortest_pumped_n3(ws: Weights, gamma: Fraction, finals: tuple[int, ...]) -> int:
    """Shortest pumped three-disk route over every pump that attains gamma."""
    return min(
        length
        for expr, value in _gamma_expressions(ws).items()
        if value == gamma
        for final in finals
        for length in _peg_candidates_n3(ws, gamma, expr, final)
    )


def _one_disk_min_moves(cfg: GameConfig, ws: Weights) -> MinMovesResult:
    if cfg.ending is Ending.TO_PEG:
        settled = ws.w13 != 0
    else:
        settled = max(ws.w12, ws.w13) != 0
    return _exactly(1) if settled else _exactly(math.inf)


def _two_disk_min_moves(cfg: GameConfig, ws: Weights) -> MinMovesResult:
    ineq = {k: f(ws) for k, f in _INEQUALITIES.items()}
    ending = cfg.ending
    if ending is Ending.TO_PEG:
        if ineq[1] > 0:
            return _exactly(3)
        if ineq[2] > 0:
            return _bounds(3, 5)
        return _exactly(math.inf)
    if ending in (Ending.RETURN_LARGEST, Ending.RETURN_SMALLEST):
        if ineq[5] > 0:
            return _exactly(7)
        return _exactly(math.inf)
    if ineq[1] > 0 or ineq[3] > 0:
        return _exactly(3)
    if ineq[2] > 0 or ineq[4] > 0:
        return _bounds(3, 5)
    if ineq[5] > 0:
        return _bounds(3, 7)
    return _exactly(math.inf)


def min_moves_scoring(cfg: GameConfig, w: Weights) -> MinMovesResult:
    """Minimum number of moves to settle scoring play, exact or bounded.

    With one disk the single forced first move already settles any nonzero
    score (for either player), so the count is 1 unless the score ties.
    Bounded results give the best pumped-route upper bound together with
    the structural lower bound.
    """
    _, ws = _scoring_standard(cfg, w)
    n = cfg.disks
    if n == 1:
        return _one_disk_min_moves(cfg, ws)
    if n == 2:
        return _two_disk_min_moves(cfg, ws)
    if ws.is_uniform:
        if ws.w12 > 0:
            return min_moves_normal(cfg)
        return _exactly(math.inf)
    inv = invariants_of(n, ws)
    gamma = inv.gamma
    ending = cfg.ending
    if ending is Ending.TO_PEG:
        if inv.beta1 > 0:
            return _exactly(2**n - 1)
        if n >= 4:
            return _bounds(2**n, 2**n - 1 + 16 * _pumps_needed(inv.beta1, gamma))
        return _bounds(8, _shortest_pumped_n3(ws, gamma, (3,)))
    if ending is Ending.RETURN_LARGEST:
        if inv.beta2 > 0:
            return _exactly(2 ** (n + 1) - 1)
        return _bounds(
            2 ** (n + 1), 2 ** (n + 1) - 1 + 16 * _pumps_needed(inv.beta2, gamma)
        )
    small_return = 3 * ws.w23 - ws.w12 - ws.w13
    if ending is Ending.RETURN_SMALLEST:
        if ws.w12 + ws.w13 > ws.w23:
            return _exactly(7)
        if small_return > 0:
            return _exactly(15)
        return _bounds(16, 15 + 16 * _pumps_needed(small_return, gamma))
    if ending is Ending.ANY_LARGEST:
        if inv.beta3 > 0:
            return _exactly(2**n - 1)
        full_return = 2 ** (n + 1) - 1 + 16 * _pumps_needed(inv.beta2, gamma)
        if n >= 4:
            direct = 2**n - 1 + 16 * _pumps_needed(inv.beta3, gamma)
            return _bounds(2**n, min(direct, full_return))
        return _bounds(8, min(full_return, _shortest_pumped_n3(ws, gamma, (3, 2))))
    # ANY_SMALLEST
    if ws.w12 + ws.w13 > ws.w23 or (n == 3 and inv.beta3 > 0):
        return _exactly(7)
    if (ws.w12 + ws.w13 <= ws.w23 and small_return > 0) or (
        n == 4 and inv.beta3 > 0
    ):
        return _bounds(7, 15)
    if inv.beta3 > 0:
        return _bounds(7, 2**n - 1)
    if n >= 4:
        upper = min(
            15 + 16 * _pumps_needed(small_return, gamma),
            2**n - 1 + 16 * _pumps_needed(inv.beta3, gamma),
        )
        return _bounds(8, upper)
    small_pumped = 15 + 16 * _pumps_needed(small_return, gamma)
    return _bounds(8, min(small_pumped, _shortest_pumped_n3(ws, gamma, (3, 2))))
