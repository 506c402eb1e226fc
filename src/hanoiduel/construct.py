"""Constructive move sequences: transfers, pumped strategies, certificates.

Everything here works on three pegs with the stack initially on peg 1
(callers relabel pegs for other anchors; see :func:`permute_seq`).  The
central facts used throughout:

* every two-disk position is reachable in an odd number of moves (the nine
  base sequences in ``TWO_DISK_REACH``), and by recursion on the largest
  disk every n-disk position is;
* every intermediate position (at least two occupied pegs) is reachable in
  an even number of moves, by aiming one move short of the odd transfer;
* from an intermediate position where the two smallest disks sit together
  a 16-move pump returns to the same position while shifting the score by
  a fixed positive amount, which turns any transfer route into a winning
  one by repeating the pump often enough.

Odd-numbered plies of every sequence built here move disk 1, so the second
player's replies are forced throughout (replay checks confirm this).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .core import Ending, GameConfig, GameError, Weights
from .notation import (
    Atom,
    Concat,
    Repeat,
    SeqExpr,
    parse,
    replay,
    reverse_seq,
)


class NotIntermediate(GameError):
    """Raised when an even transfer is asked to reach a single-peg stack."""


class AllWeightsEqual(GameError):
    """Raised when the pumped strategy is undefined (no positive pump)."""


# Odd-length sequences reaching every two-disk position from both disks on
# peg 1.  Keys are (peg of disk 1, peg of disk 2).
TWO_DISK_REACH: dict[tuple[int, int], str] = {
    (1, 1): "13-12-13-23-12-13-12",
    (2, 1): "12",
    (3, 1): "13",
    (1, 2): "13-12-13",
    (2, 2): "13-12-23",
    (3, 2): "12-13-12-23-13",
    (1, 3): "12-13-12",
    (2, 3): "13-12-13-23-12",
    (3, 3): "12-13-23",
}

_TWO_DISK_EXPR = {pos: parse(text) for pos, text in TWO_DISK_REACH.items()}


def sigma_for(anchor: int, second: int | None = None) -> dict[int, int]:
    """Peg relabelling sending 1 to ``anchor`` (and 3 to ``second`` if given).

    The remaining pegs are assigned in increasing order, so the map is
    deterministic.
    """
    if second is None:
        rest = sorted({1, 2, 3} - {anchor})
        return {1: anchor, 2: rest[0], 3: rest[1]}
    if anchor == second:
        raise ValueError("anchor pegs must differ")
    (other,) = {1, 2, 3} - {anchor, second}
    return {1: anchor, 2: other, 3: second}


def invert_sigma(sigma: dict[int, int]) -> dict[int, int]:
    return {v: k for k, v in sigma.items()}


def standard_sigma(cfg: GameConfig) -> dict[int, int]:
    """Relabelling from the standard board (start 1, target 3) to cfg's."""
    if cfg.pegs != 3:
        raise GameError("closed forms cover the three-peg game")
    if cfg.ending is Ending.TO_PEG:
        return sigma_for(cfg.start_peg, cfg.final_peg)
    return sigma_for(cfg.start_peg)


def permute_seq(expr: SeqExpr, sigma: dict[int, int]) -> SeqExpr:
    """Rename the pegs of every atom through ``sigma``.

    A node shared within ``expr`` is relabelled once and stays shared.
    """
    return _permute(expr, sigma, {})


def _permute(expr: SeqExpr, sigma: dict[int, int], done: dict) -> SeqExpr:
    if id(expr) in done:
        return done[id(expr)]
    if isinstance(expr, Atom):
        a, b = sigma[expr.i], sigma[expr.j]
        out = Atom(min(a, b), max(a, b))
    elif isinstance(expr, Concat):
        out = Concat(tuple(_permute(p, sigma, done) for p in expr.parts))
    elif isinstance(expr, Repeat):
        out = Repeat(_permute(expr.body, sigma, done), expr.count)
    else:
        out = type(expr)(_permute(expr.body, sigma, done))
    done[id(expr)] = out
    return out


def permute_position(pos: tuple[int, ...], sigma: dict[int, int]) -> tuple[int, ...]:
    return tuple(sigma[p] for p in pos)


def _check_target(disks: int, target: tuple[int, ...]) -> None:
    if len(target) != disks:
        raise ValueError(f"target names {len(target)} disks, expected {disks}")
    for peg in target:
        if peg not in (1, 2, 3):
            raise ValueError(f"target peg {peg} not on a three-peg board")


@cache
def minimal_transfer(disks: int, source: int, target: int) -> SeqExpr:
    """The classical shortest transfer of a full stack, 2^n - 1 moves.

    Cached, so equal transfers are one shared (frozen) tree.
    """
    if disks < 1:
        raise ValueError("need at least one disk")
    if source == target or {source, target} - {1, 2, 3}:
        raise ValueError(f"bad transfer {source}->{target}")
    if disks == 1:
        return Atom(min(source, target), max(source, target))
    (spare,) = {1, 2, 3} - {source, target}
    return Concat(
        (
            minimal_transfer(disks - 1, source, spare),
            Atom(min(source, target), max(source, target)),
            minimal_transfer(disks - 1, spare, target),
        )
    )


def odd_transfer(disks: int, target: tuple[int, ...]) -> SeqExpr:
    """An odd-length sequence from the full stack on peg 1 to ``target``.

    ``target[d-1]`` is the destination peg of disk d.  Recursion on the
    largest disk: if it stays on peg 1 the smaller disks are routed in
    place; otherwise the smaller disks clear to the spare peg, the largest
    crosses, and the smaller disks are routed from there.
    """
    if disks < 2:
        raise ValueError("odd transfers are defined for two or more disks")
    _check_target(disks, target)
    if disks == 2:
        return _TWO_DISK_EXPR[(target[0], target[1])]
    largest_peg = target[-1]
    if largest_peg == 1:
        return odd_transfer(disks - 1, target[:-1])
    (spare,) = {1, 2, 3} - {1, largest_peg}
    sigma = sigma_for(spare)
    tau = invert_sigma(sigma)
    sub_target = tuple(tau[p] for p in target[:-1])
    return Concat(
        (
            minimal_transfer(disks - 1, 1, spare),
            Atom(1, largest_peg),
            permute_seq(odd_transfer(disks - 1, sub_target), sigma),
        )
    )


def even_transfer(disks: int, target: tuple[int, ...]) -> SeqExpr:
    """An even-length sequence from the stack on peg 1 to ``target``.

    ``target`` must be intermediate (at least two occupied pegs): the odd
    transfer is aimed at the position with the smallest off-stack disk
    displaced to the third peg, and one closing move brings it home.
    """
    if disks < 2:
        raise ValueError("even transfers are defined for two or more disks")
    _check_target(disks, target)
    home = target[0]
    quick = None
    for disk in range(2, disks + 1):
        if target[disk - 1] != home:
            quick = disk
            break
    if quick is None:
        raise NotIntermediate(
            "even transfers only reach positions occupying two or more pegs"
        )
    quick_peg = target[quick - 1]
    (third,) = {1, 2, 3} - {home, quick_peg}
    displaced = list(target)
    displaced[quick - 1] = third
    return Concat(
        (
            odd_transfer(disks, tuple(displaced)),
            Atom(min(third, quick_peg), max(third, quick_peg)),
        )
    )


def return_transfer(disks: int, variant: int = 1) -> SeqExpr:
    """A 2^(n+1) - 1 move round trip to peg 1 that moves the largest disk.

    Variant 1 walks the largest disk 1 -> 3 -> 2 -> 1 with shortest
    shuffles of the smaller disks in between.  Variant 2 parks the largest
    on peg 2, recursively performs the round trip of the smaller stack on
    peg 3, and walks the largest back; its two-disk base case is the
    mirror-image seven-mover.
    """
    if disks < 2:
        raise ValueError("round trips are defined for two or more disks")
    if variant == 1:
        return Concat(
            (
                minimal_transfer(disks - 1, 1, 2),
                Atom(1, 3),
                minimal_transfer(disks - 1, 2, 1),
                Atom(2, 3),
                minimal_transfer(disks - 1, 1, 3),
                Atom(1, 2),
                minimal_transfer(disks - 1, 3, 1),
            )
        )
    if variant == 2:
        if disks == 2:
            return parse("13-12-13-23-12-13-12")
        sigma = sigma_for(3)
        return Concat(
            (
                minimal_transfer(disks - 1, 1, 3),
                Atom(1, 2),
                permute_seq(return_transfer(disks - 1, 2), sigma),
                Atom(1, 2),
                minimal_transfer(disks - 1, 3, 1),
            )
        )
    raise ValueError(f"unknown round trip variant {variant}")


SMALL_PAIR_RETURN = "12-13-12-23-13-12-13"
"""Seven moves returning disks 1 and 2 to peg 1 (works atop larger disks)."""


def small_pair_return() -> SeqExpr:
    return parse(SMALL_PAIR_RETURN)


# ---------------------------------------------------------------------------
# Two-disk winning families and their exact scores.

_CYCLE_A = ("13", "12", "23")  # follows an opening 12
_CYCLE_B = ("12", "13", "23")  # follows an opening 13

# Per family: opening, middle cycle, cycles beyond 2k (0 or 1), closing.
_FAMILIES = {
    1: ("12", _CYCLE_A, 0, ("13", "23")),
    2: ("13", _CYCLE_B, 1, ("13",)),
    3: ("12", _CYCLE_A, 1, ("12",)),
    4: ("13", _CYCLE_B, 0, ("12", "23")),
    5: ("12", _CYCLE_A, 1, ("13", "12", "13")),
    6: ("13", _CYCLE_B, 1, ("12", "13", "12")),
}


@cache
def two_disk_family(case: int, k: int = 0) -> SeqExpr:
    """Winning line family for the two-disk game, indexed 1..6.

    ``k`` scales the number of middle cycles; the exact score of every
    member of a family is the same (see :func:`two_disk_family_delta`).
    Cached, like :func:`minimal_transfer`.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if case not in _FAMILIES:
        raise ValueError(f"unknown two-disk family {case}")
    opening, cycle, extra, closing = _FAMILIES[case]
    reps = 2 * k + extra
    parts: list[SeqExpr] = [_atom(opening)]
    if reps > 0:
        parts.append(Repeat(Concat(tuple(_atom(t) for t in cycle)), reps))
    parts.extend(_atom(t) for t in closing)
    return Concat(tuple(parts))


def _atom(text: str) -> Atom:
    i, j = int(text[0]), int(text[1])
    return Atom(min(i, j), max(i, j))


def two_disk_family_delta(case: int, w: Weights) -> Fraction:
    """Exact final score of every member of the family."""
    if case == 1:
        return w.w12 + w.w23 - w.w13
    if case == 2:
        return 3 * w.w13 - w.w12 - w.w23
    if case == 3:
        return 3 * w.w12 - w.w13 - w.w23
    if case == 4:
        return w.w13 + w.w23 - w.w12
    if case in (5, 6):
        return w.w12 + w.w13 - w.w23
    raise ValueError(f"unknown two-disk family {case}")


def two_disk_family_end_peg(case: int) -> int:
    return {1: 3, 2: 3, 3: 2, 4: 2, 5: 1, 6: 1}[case]


# ---------------------------------------------------------------------------
# The 16-move score pump and the pumped strategy.


def score_pump(i: int, j: int, k: int) -> SeqExpr:
    """Sixteen moves cycling the two smallest disks off peg ``k`` and back.

    Precondition: disks 1 and 2 on peg k, the smallest disk of pegs i and j
    on peg i.  Each run returns to that position and shifts the score by
    2 (w_ik + w_jk - 2 w_ij), which is positive when w_ij is strictly
    minimal.
    """
    if {i, j, k} != {1, 2, 3}:
        raise ValueError("i, j, k must name the three pegs")
    edges = [(i, k), (j, k), (i, k), (i, j), (j, k), (i, k), (j, k), (i, j)]
    body = Concat(tuple(Atom(min(a, b), max(a, b)) for a, b in edges))
    return Repeat(body, 2)


def pump_increment(i: int, j: int, k: int, w: Weights) -> Fraction:
    return 2 * (w.edge(i, k) + w.edge(j, k) - 2 * w.edge(i, j))


def pumps_needed(delta: Fraction, increment: Fraction) -> int:
    """Runs of a pump adding ``increment`` that turn a route of score
    ``delta`` into a win (a strictly positive score)."""
    return 0 if delta > 0 else -delta // increment + 1


@dataclass(frozen=True)
class StrategyPlan:
    """A pumped winning strategy s1 . s3^pumps . s2_inv.

    ``s1`` (even) reaches the pump position ``intermediate``; ``s3`` (16
    moves) is repeated ``pumps`` times, adding ``pump_increment`` to the
    score each time; ``s2_inv`` (odd) finishes onto the final peg.
    ``base_delta`` is the score of s1 . s2_inv alone and ``predicted_delta``
    the score of the full line.
    """

    s1: SeqExpr
    s2_inv: SeqExpr
    s3: SeqExpr
    pumps: int
    base_delta: Fraction
    pump_increment: Fraction
    intermediate: tuple[int, ...]
    full: SeqExpr
    predicted_delta: Fraction


def _min_pair(w: Weights) -> tuple[int, int]:
    """The first cheapest edge in the order 12, 13, 23."""
    values = w.as_tuple()
    return ((1, 2), (1, 3), (2, 3))[values.index(min(values))]


def scoring_strategy(cfg: GameConfig, w: Weights) -> StrategyPlan:
    """Synthesise a winning pumped strategy for n >= 3 disks, three pegs.

    Raises AllWeightsEqual when all three weights coincide (no pump has a
    positive increment; the game value is settled by parity instead).
    """
    if cfg.pegs != 3:
        raise ValueError("pumped strategies are built for three pegs")
    if cfg.disks < 3:
        raise ValueError("pumped strategies need at least three disks")
    if w.is_uniform:
        raise AllWeightsEqual("all edge weights are equal; no positive pump")

    # Work on a standard board (stack on peg 1, target peg 3 for endings
    # that finish elsewhere), then relabel.
    sigma0 = standard_sigma(cfg)
    tau0 = invert_sigma(sigma0)
    w_std = w.permuted(tau0)
    final_std = 1 if cfg.ending in (Ending.RETURN_LARGEST, Ending.RETURN_SMALLEST) else 3

    a, b = _min_pair(w_std)
    i, j = (b, 1) if a == 1 else (a, b)
    k = 6 - i - j
    n = cfg.disks
    target = (k, k) + (i,) * (n - 2)

    s1 = even_transfer(n, target)
    sigma_f = sigma_for(final_std)
    tau_f = invert_sigma(sigma_f)
    s2 = permute_seq(odd_transfer(n, tuple(tau_f[p] for p in target)), sigma_f)
    s2_inv = reverse_seq(s2)
    s3 = score_pump(i, j, k)
    increment = pump_increment(i, j, k, w_std)

    s1 = permute_seq(s1, sigma0)
    s2_inv = permute_seq(s2_inv, sigma0)
    s3 = permute_seq(s3, sigma0)
    intermediate = permute_position(target, sigma0)

    base = replay(cfg, None, Concat((s1, s2_inv)), w)
    if not base.legal or not base.terminal:
        raise AssertionError("transfer route failed to finish the game")
    p = base.delta
    pumps = pumps_needed(p, increment)
    full = Concat((s1,) + (s3,) * pumps + (s2_inv,))
    return StrategyPlan(
        s1=s1,
        s2_inv=s2_inv,
        s3=s3,
        pumps=pumps,
        base_delta=p,
        pump_increment=increment,
        intermediate=intermediate,
        full=full,
        predicted_delta=p + pumps * increment,
    )


# ---------------------------------------------------------------------------
# Hand-crafted three-disk openings used when the cheap pump is misaligned
# with the direct route (both measured against a final stack on peg 3).

_EXCEPTIONAL = {
    # smallest weight on edge 12: pump around (i, j, k) = (2, 1, 3)
    ("w12", 1): ("12-13-23-12", "23-13-12-23-12-13-23"),
    ("w12", 2): ("13-12-13-23-13-12", "23-13-12-23-12-13-23"),
    # smallest weight on edge 23: pump around (i, j, k) = (3, 2, 1)
    ("w23", 1): ("12-13-23-12-23-13-12-23", "12-13-23"),
    ("w23", 2): ("12-13-23-12-13-23-13-12-13-23", "12-13-23"),
}

EXCEPTIONAL_PUMP_PEGS = {"w12": (2, 1, 3), "w23": (3, 2, 1)}


@cache
def exceptional_three_disk(smallest: str, variant: int = 1) -> SeqExpr:
    """Special three-disk lines to peg 3, 11 moves (variant 1, score
    2(w12+w23) - 3 w13) or 13 moves (variant 2, score w13).

    ``smallest`` names the cheapest edge, ``"w12"`` or ``"w23"``; the split
    into head and tail marks where the matching score pump can be inserted.
    Cached, like :func:`minimal_transfer`.
    """
    return Concat(_exceptional_parts(smallest, variant))


def exceptional_three_disk_pumped(
    smallest: str, variant: int, pumps: int
) -> SeqExpr:
    """The exceptional line with ``pumps`` pump repetitions spliced in."""
    if pumps < 0:
        raise ValueError("pumps must be non-negative")
    head, tail = _exceptional_parts(smallest, variant)
    pump = score_pump(*EXCEPTIONAL_PUMP_PEGS[smallest])
    return Concat((head,) + (pump,) * pumps + (tail,))


def exceptional_delta(smallest: str, variant: int, w: Weights) -> Fraction:
    """Exact score of the unpumped exceptional line."""
    if smallest not in ("w12", "w23"):
        raise ValueError(f"unknown exceptional case {smallest!r}")
    if variant == 1:
        return 2 * (w.w12 + w.w23) - 3 * w.w13
    if variant == 2:
        return w.w13
    raise ValueError(f"unknown exceptional variant {variant}")


def _exceptional_parts(smallest: str, variant: int) -> tuple[SeqExpr, SeqExpr]:
    try:
        head, tail = _EXCEPTIONAL[(smallest, variant)]
    except KeyError:
        raise ValueError(
            f"unknown exceptional case {smallest!r} variant {variant}"
        ) from None
    return parse(head), parse(tail)
