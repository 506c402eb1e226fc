"""Constructive move sequences: transfers, pumped strategies, certificates.

Everything here works on three pegs with the stack initially on peg 1
(callers relabel pegs for other anchors; see :func:`permute_seq`).  The
central facts used throughout:

* every two-disk position is reachable in an odd number of moves (the nine
  base sequences in ``TWO_DISK_REACH``), and, placing the disks from the
  largest down, every n-disk position is;
* every intermediate position (at least two occupied pegs) is reachable in
  an even number of moves, by aiming one move short of the odd transfer;
* from an intermediate position where the two smallest disks sit together
  a 16-move pump returns to the same position while shifting the score by
  a fixed positive amount, which turns any transfer route into a winning
  one by repeating the pump often enough.

Odd-numbered plies of every sequence built here move disk 1, so the second
player's replies are forced throughout (replay checks confirm this).

The two-disk families and the exceptional three-disk lines are tables with
one row per line: its moves and its signed edge counts, whose dot product
with the weights is its exact score.  An unknown row raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import permutations

from .core import Ending, GameConfig, GameError, Weights
from .notation import (
    Atom,
    Concat,
    Repeat,
    SeqExpr,
    fold_seq,
    parse,
    reverse_seq,
    signed_counts,
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

    def atom(a: Atom) -> Atom:
        return Atom(*sorted((sigma[a.i], sigma[a.j])))

    return fold_seq(expr, atom, lambda n, parts: (
        Concat(tuple(parts)) if type(n) is Concat else Repeat(parts[0], n.count)))


def permute_position(pos: tuple[int, ...], sigma: dict[int, int]) -> tuple[int, ...]:
    return tuple(sigma[p] for p in pos)


def _check_target(disks: int, target: tuple[int, ...]) -> None:
    if len(target) != disks:
        raise ValueError(f"target names {len(target)} disks, expected {disks}")
    for peg in target:
        if peg not in (1, 2, 3):
            raise ValueError(f"target peg {peg} not on a three-peg board")


# _TRANSFERS[d - 1][source, target] is the shortest transfer of d disks.
_TRANSFERS: list[dict[tuple[int, int], SeqExpr]] = [
    {(s, t): Atom(min(s, t), max(s, t)) for s, t in permutations((1, 2, 3), 2)}
]


def minimal_transfer(disks: int, source: int, target: int) -> SeqExpr:
    """The classical shortest transfer of a full stack, 2^n - 1 moves.

    Read from a table of the six transfers of every stack size, each built
    from the size one disk smaller (the one-disk transfer moves the largest
    disk), so equal transfers are one shared (frozen) tree.
    """
    if disks < 1:
        raise ValueError("need at least one disk")
    if (source, target) not in _TRANSFERS[0]:
        raise ValueError(f"bad transfer {source}->{target}")
    while len(_TRANSFERS) < disks:
        sub = _TRANSFERS[-1]
        _TRANSFERS.append({(s, t): Concat((sub[s, 6 - s - t], move, sub[6 - s - t, t]))
                           for (s, t), move in _TRANSFERS[0].items()})
    return _TRANSFERS[disks - 1][source, target]


def odd_transfer(disks: int, target: tuple[int, ...]) -> SeqExpr:
    """An odd-length sequence from the full stack on peg 1 to ``target``.

    ``target[d-1]`` is the destination peg of disk d.  One pass from the
    largest disk down: a disk whose target holds the smaller disks stays
    put; otherwise the smaller disks clear to the spare peg and it crosses.
    ``frame`` names the real pegs of the smaller disks' board (stack on its
    peg 1), so only the closing two-disk line is relabelled.
    """
    if disks < 2:
        raise ValueError("odd transfers are defined for two or more disks")
    _check_target(disks, target)
    frame = {1: 1, 2: 2, 3: 3}  # board peg -> real peg
    levels = []
    for disk in range(disks, 2, -1):
        stack, peg = frame[1], target[disk - 1]
        if peg != stack:  # the smaller disks clear to the spare peg
            frame = {1: 6 - stack - peg, 2: stack, 3: peg}
            clear = minimal_transfer(disk - 1, stack, frame[1])
            levels.append((clear, minimal_transfer(1, stack, peg)))
    tau = invert_sigma(frame)
    expr = permute_seq(_TWO_DISK_EXPR[(tau[target[0]], tau[target[1]])], frame)
    for clear, cross in reversed(levels):
        expr = Concat((clear, cross, expr))
    return expr


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
    on peg 2, performs the round trip of the smaller stack on peg 3, and
    walks the largest back; one pass from the largest disk down nests these
    trips around the mirror-image seven-mover ``TWO_DISK_REACH[(1, 1)]``.
    """
    if disks < 2:
        raise ValueError("round trips are defined for two or more disks")
    if variant == 1:
        smaller = partial(minimal_transfer, disks - 1)
        return Concat((smaller(1, 2), Atom(1, 3), smaller(2, 1), Atom(2, 3),
                       smaller(1, 3), Atom(1, 2), smaller(3, 1)))
    if variant != 2:
        raise ValueError(f"unknown round trip variant {variant}")
    home, park, spare = 1, 2, 3  # real pegs of the next round trip
    levels = []
    for disk in range(disks, 2, -1):
        smaller = partial(minimal_transfer, disk - 1)
        move = minimal_transfer(1, home, park)
        levels.append((smaller(home, spare), move, smaller(spare, home)))
        home, park, spare = spare, home, park
    expr = permute_seq(_TWO_DISK_EXPR[(1, 1)], {1: home, 2: park, 3: spare})
    for out, move, back in reversed(levels):
        expr = Concat((out, move, expr, move, back))
    return expr


SMALL_PAIR_RETURN = "12-13-12-23-13-12-13"
"""Seven moves returning disks 1 and 2 to peg 1 (works atop larger disks)."""


@cache
def small_pair_return() -> SeqExpr:
    return parse(SMALL_PAIR_RETURN)


# ---------------------------------------------------------------------------
# Two-disk winning families and their exact scores.

_CYCLE_A = "13-12-23"  # follows an opening 12
_CYCLE_B = "12-13-23"  # follows an opening 13

# One row per family: opening, middle cycle, cycles beyond 2k (0 or 1),
# closing, the peg both disks end on, and the signed edge counts of every
# member (c12, c13, c23), whose dot product with the weights is its score.
_FAMILIES = {
    1: ("12", _CYCLE_A, 0, ("13", "23"), 3, (1, -1, 1)),
    2: ("13", _CYCLE_B, 1, ("13",), 3, (-1, 3, -1)),
    3: ("12", _CYCLE_A, 1, ("12",), 2, (3, -1, -1)),
    4: ("13", _CYCLE_B, 0, ("12", "23"), 2, (-1, 1, 1)),
    5: ("12", _CYCLE_A, 1, ("13", "12", "13"), 1, (1, 1, -1)),
    6: ("13", _CYCLE_B, 1, ("12", "13", "12"), 1, (1, 1, -1)),
}


def _row(table: dict, key, name: str) -> tuple:
    """The row of ``key`` in a certificate table, or ValueError naming it."""
    try:
        return table[key]
    except KeyError:
        raise ValueError(f"unknown {name} {key}") from None


def _score(row: tuple, w: Weights) -> Fraction:
    """The score of a row's line: its signed edge counts (last) times w."""
    *_, (c12, c13, c23) = row
    return c12 * w.w12 + c13 * w.w13 + c23 * w.w23


@cache
def two_disk_family(case: int, k: int = 0) -> SeqExpr:
    """Winning line family for the two-disk game, indexed 1..6.

    ``k`` scales the number of middle cycles; the exact score of every
    member of a family is the same (see :func:`two_disk_family_delta`).
    Cached, so equal calls share one (frozen) tree.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    opening, cycle, extra, closing, _, _ = _row(_FAMILIES, case, "two-disk family")
    reps = 2 * k + extra
    parts: list[SeqExpr] = [parse(opening)]
    if reps > 0:
        parts.append(Repeat(parse(cycle), reps))
    parts.extend(map(parse, closing))
    return Concat(tuple(parts))


def two_disk_family_delta(case: int, w: Weights) -> Fraction:
    """Exact final score of every member of the family."""
    return _score(_row(_FAMILIES, case, "two-disk family"), w)


def two_disk_family_end_peg(case: int) -> int:
    """The peg both disks end on in every member of the family."""
    *_, end_peg, _ = _row(_FAMILIES, case, "two-disk family")
    return end_peg


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
    ``base_delta`` is the score of s1 . s2_inv alone, read from the route's
    signed edge counts, and ``predicted_delta`` the score of the full line.
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


@cache
def _pumped_route(cfg: GameConfig, pair: tuple[int, int]):
    """The weight-free part of :func:`scoring_strategy`, given the cheapest
    edge ``pair`` of the standard board.

    Returns s1, s2_inv, s3 and the intermediate position on cfg's board,
    the pump pegs (i, j, k) on the standard board, and the signed edge
    counts of the route s1 . s2_inv, whose dot product with the weights is
    the route's score.  The counts are folded from the route's tree
    (``signed_counts``), not played, so any n is answered.  Cached, so each
    route is built and counted once.
    """
    # Work on a standard board (stack on peg 1, target peg 3 for endings
    # that finish elsewhere), then relabel.
    sigma0 = standard_sigma(cfg)
    final_std = 1 if cfg.ending in (Ending.RETURN_LARGEST, Ending.RETURN_SMALLEST) else 3
    a, b = pair
    i, j = (b, 1) if a == 1 else (a, b)
    k = 6 - i - j
    n = cfg.disks
    target = (k, k) + (i,) * (n - 2)

    sigma_f = sigma_for(final_std)
    tau_f = invert_sigma(sigma_f)
    s2 = permute_seq(odd_transfer(n, tuple(tau_f[p] for p in target)), sigma_f)
    s1 = permute_seq(even_transfer(n, target), sigma0)
    s2_inv = permute_seq(reverse_seq(s2), sigma0)
    s3 = permute_seq(score_pump(i, j, k), sigma0)

    counts = signed_counts(Concat((s1, s2_inv)))
    return s1, s2_inv, s3, permute_position(target, sigma0), (i, j, k), counts


def scoring_strategy(cfg: GameConfig, w: Weights) -> StrategyPlan:
    """Synthesise a winning pumped strategy for n >= 3 disks, three pegs.

    The route s1 . s2_inv depends on the weights only through the cheapest
    edge, so it is built and counted, by a fold and not by replay, once per
    board and edge (``_pumped_route``); ``base_delta`` is its signed edge
    counts times w, exactly the score that replaying it would sum.

    Raises AllWeightsEqual when all three weights coincide (no pump has a
    positive increment; the game value is settled by parity instead).
    """
    if cfg.pegs != 3:
        raise ValueError("pumped strategies are built for three pegs")
    if cfg.disks < 3:
        raise ValueError("pumped strategies need at least three disks")
    if w.is_uniform:
        raise AllWeightsEqual("all edge weights are equal; no positive pump")

    w_std = w.permuted(invert_sigma(standard_sigma(cfg)))
    s1, s2_inv, s3, intermediate, pegs, counts = _pumped_route(cfg, _min_pair(w_std))
    increment = pump_increment(*pegs, w_std)
    *scaled, mult = w.scaled_integers()
    p = Fraction(sum(c * m for c, m in zip(counts, scaled)), mult)
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

# Signed edge counts of the 11-move variant 1, score 2(w12 + w23) - 3 w13,
# and of the 13-move variant 2, score w13.
_EXCEPTIONAL_COUNTS = {1: (2, -3, 2), 2: (0, 1, 0)}
# One row per line, keyed by (cheapest edge, variant): its head and tail,
# parsed once, and its variant's signed edge counts.
_EXCEPTIONAL = {
    (smallest, variant): (parse(head), parse(tail), _EXCEPTIONAL_COUNTS[variant])
    for smallest, variant, head, tail in (
        # smallest weight on edge 12: pump around (i, j, k) = (2, 1, 3)
        ("w12", 1, "12-13-23-12", "23-13-12-23-12-13-23"),
        ("w12", 2, "13-12-13-23-13-12", "23-13-12-23-12-13-23"),
        # smallest weight on edge 23: pump around (i, j, k) = (3, 2, 1)
        ("w23", 1, "12-13-23-12-23-13-12-23", "12-13-23"),
        ("w23", 2, "12-13-23-12-13-23-13-12-13-23", "12-13-23"),
    )
}

EXCEPTIONAL_PUMP_PEGS = {"w12": (2, 1, 3), "w23": (3, 2, 1)}


@cache
def exceptional_three_disk(smallest: str, variant: int = 1) -> SeqExpr:
    """Special three-disk lines to peg 3, 11 moves (variant 1) or 13 moves
    (variant 2), scored by :func:`exceptional_delta`.

    ``smallest`` names the cheapest edge, ``"w12"`` or ``"w23"``; the split
    into head and tail marks where the matching score pump can be inserted.
    Cached, so equal calls share one (frozen) tree.
    """
    head, tail, _ = _row(_EXCEPTIONAL, (smallest, variant), "exceptional line")
    return Concat((head, tail))


def exceptional_three_disk_pumped(
    smallest: str, variant: int, pumps: int
) -> SeqExpr:
    """The exceptional line with ``pumps`` pump repetitions spliced in."""
    if pumps < 0:
        raise ValueError("pumps must be non-negative")
    head, tail, _ = _row(_EXCEPTIONAL, (smallest, variant), "exceptional line")
    pump = score_pump(*EXCEPTIONAL_PUMP_PEGS[smallest])
    return Concat((head,) + (pump,) * pumps + (tail,))


def exceptional_delta(smallest: str, variant: int, w: Weights) -> Fraction:
    """Exact score of the unpumped exceptional line."""
    return _score(_row(_EXCEPTIONAL, (smallest, variant), "exceptional line"), w)
