"""Shared helpers for the test suite."""

from __future__ import annotations

import random
import sys
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import inf

import pytest

from hanoiduel import (
    Atom,
    Concat,
    Ending,
    GameConfig,
    GameError,
    GameGraph,
    GameState,
    IllegalMove,
    Move,
    Repeat,
    ReplayReport,
    SearchResult,
    Weights,
    apply_move,
    build_graph,
    expand,
    initial_state,
    is_terminal,
    legal_moves,
    parse,
    replay,
)
from hanoiduel.construct import (
    _TWO_DISK_EXPR,
    NotIntermediate,
    _check_target,
    invert_sigma,
    permute_seq,
    sigma_for,
)
from hanoiduel.core import (
    Board,
    _ending_satisfied,
    state_from_index,
    state_index,
    state_space,
    validate_state,
)
from hanoiduel.notation import SeqExpr


def rational_triples(seed: int, count: int, lo: int = -6, hi: int = 6,
                     max_den: int = 4) -> list[Weights]:
    """Deterministic stream of rational weight triples."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts = tuple(
            Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
            for _ in range(3)
        )
        out.append(Weights(*parts))
    return out


def nonuniform_triples(seed: int, count: int) -> list[Weights]:
    rng_seed = seed
    out: list[Weights] = []
    while len(out) < count:
        batch = rational_triples(rng_seed, count)
        out.extend(w for w in batch if not w.is_uniform)
        rng_seed += 1
    return out[:count]


def replay_text(cfg: GameConfig, text: str, weights: Weights | None = None):
    return replay(cfg, None, parse(text), weights)


def applicable_endings(disks: int) -> list[Ending]:
    """Endings that a board with this many disks can be configured with."""
    return [
        e
        for e in Ending
        if not (disks == 1 and e in (Ending.RETURN_LARGEST, Ending.RETURN_SMALLEST))
    ]


def _entry_shift(cfg: GameConfig) -> int:
    """The bits under the target of a packed successor entry: the edge
    code's, for the l(l-1)/2 codes of l pegs, and the enters bit."""
    return 1 + (cfg.pegs * (cfg.pegs - 1) // 2 - 1).bit_length()


def unpack(cfg: GameConfig, row) -> list[tuple[int, int, bool]]:
    """The (target, edge code, enters) of each entry of a successor row of
    ``GameGraph.succ``, which packs them as ``target << shift | code << 1 |
    enters``."""
    s = _entry_shift(cfg)
    return [(e >> s, e >> 1 & (1 << s - 1) - 1, bool(e & 1)) for e in row]


def pack(cfg: GameConfig, entries) -> tuple[int, ...]:
    """A successor row packed from (target, edge code, enters) entries, the
    inverse of ``unpack``."""
    s = _entry_shift(cfg)
    return tuple(target << s | code << 1 | enters for target, code, enters in entries)


def reference_graph(cfg: GameConfig) -> dict:
    """The dense game graph built state by state from the rules API.

    Returns the fields of ``GameGraph`` that ``build_graph`` computes, for
    comparison: every dense index is decoded, its legal moves listed and
    applied, and the reachable set found by breadth-first search.  Each
    successor row is packed by ``pack``.
    """
    size = state_space(cfg)
    edges = tuple(combinations(range(1, cfg.pegs + 1), 2))
    succ = [()] * size
    moves = [()] * size
    terminal = [False] * size
    for idx in range(size):
        state = state_from_index(idx, cfg)
        if is_terminal(state, cfg):
            terminal[idx] = True
            continue
        moves[idx] = legal_moves(state, cfg)
        entries = []
        for m in moves[idx]:
            nxt = apply_move(state, m, cfg)
            code = edges.index((min(m.source, m.target), max(m.source, m.target)))
            entries.append((state_index(nxt, cfg), code, is_terminal(nxt, cfg)))
        succ[idx] = pack(cfg, entries)
    initial = state_index(initial_state(cfg), cfg)
    seen = {initial}
    frontier = deque([initial])
    while frontier:
        for nxt, _, _ in unpack(cfg, succ[frontier.popleft()]):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {
        "edges": edges,
        "succ": succ,
        "moves": moves,
        "terminal": terminal,
        "initial": initial,
        "reachable": frozenset(seen),
    }


def top_disk(pos: tuple[int, ...], peg: int) -> int | None:
    """The smallest (topmost) disk on ``peg``, or None if the peg is empty."""
    for disk, p in enumerate(pos, start=1):
        if p == peg:
            return disk
    return None


def board_fields(board: Board) -> tuple:
    """Every field of a board, for comparing two boards."""
    return tuple(getattr(board, name) for name in Board.__slots__)


def _reference_terminal(state: GameState, cfg: GameConfig) -> bool:
    if any(p != state.pos[0] for p in state.pos):
        return False
    return _ending_satisfied(
        cfg, state.pos[0], state.largest_moved, state.smallest_moved
    )


def _reference_move_status(
    state: GameState, cfg: GameConfig, source: int, target: int
) -> tuple[bool, str]:
    """Check one directed move pair by pair, rescanning ``pos`` per rule."""
    if source == target:
        return False, "source and target peg coincide"
    if not (1 <= source <= cfg.pegs and 1 <= target <= cfg.pegs):
        return False, "peg out of range"
    disk = top_disk(state.pos, source)
    if disk is None:
        return False, f"peg {source} is empty"
    if disk == state.last_moved:
        return False, f"disk {disk} was moved in the previous ply"
    resting = top_disk(state.pos, target)
    if resting is not None and resting < disk:
        return False, f"disk {disk} cannot rest on smaller disk {resting}"
    completing = all(
        p == target for d, p in enumerate(state.pos, start=1) if d != disk
    )
    if completing:
        largest = state.largest_moved or disk == cfg.disks
        smallest = state.smallest_moved or disk == 1
        if not _ending_satisfied(cfg, target, largest, smallest):
            return False, (
                "completing the stack on peg "
                f"{target} would violate the ending condition"
            )
    return True, ""


def reference_legal_moves(state: GameState, cfg: GameConfig) -> tuple[Move, ...]:
    """Legal moves by checking every ordered peg pair on its own."""
    if _reference_terminal(state, cfg):
        return ()
    pegs = range(1, cfg.pegs + 1)
    return tuple(
        Move(source, target)
        for source in pegs
        for target in pegs
        if _reference_move_status(state, cfg, source, target)[0]
    )


def reference_resolve_direction(
    state: GameState, cfg: GameConfig, i: int, j: int
) -> Move | None:
    """The legal move along edge i-j: the smaller top disk goes, if legal."""
    if _reference_terminal(state, cfg):
        return None
    top_i = top_disk(state.pos, i)
    top_j = top_disk(state.pos, j)
    if top_i is not None and (top_j is None or top_i < top_j):
        source, target = i, j
    else:
        source, target = j, i
    ok, _ = _reference_move_status(state, cfg, source, target)
    return Move(source, target) if ok else None


def reference_apply_move(
    state: GameState, move: Move, cfg: GameConfig
) -> GameState:
    """The state after a legal move; IllegalMove with the reason otherwise."""
    if _reference_terminal(state, cfg):
        raise IllegalMove("the game is already over")
    ok, reason = _reference_move_status(state, cfg, move.source, move.target)
    if not ok:
        raise IllegalMove(f"move {move.source}->{move.target}: {reason}")
    disk = top_disk(state.pos, move.source)
    pos = list(state.pos)
    pos[disk - 1] = move.target
    return GameState(
        pos=tuple(pos),
        last_moved=disk,
        largest_moved=state.largest_moved or disk == cfg.disks,
        smallest_moved=state.smallest_moved or disk == 1,
    )


def reference_replay(
    cfg: GameConfig,
    start: GameState | None,
    expr: SeqExpr,
    weights: Weights | None = None,
) -> ReplayReport:
    """The reference for ``notation.replay``: every ply is checked and
    played on a fresh state by the reference rules.

    Each ply is checked once: by the forcing check's legal-move list on an
    even ply while play is still forced, else by the edge's direction.
    """
    if start is not None:
        validate_state(start, cfg)
    state = initial_state(cfg) if start is None else start
    mult = 1
    if weights is not None:
        m12, m13, m23, mult = weights.scaled_integers()
        scaled = {(1, 2): m12, (1, 3): m13, (2, 3): m23}
        scaled.update({(b, a): m for (a, b), m in scaled.items()})
    points = [0, 0]  # scaled points of the second and the first player
    forced = True
    failed_at: int | None = None
    applied = 0
    for ply, (i, j) in enumerate(expand(expr), start=1):
        forcing = forced and ply % 2 == 0
        if forcing:
            moves = reference_legal_moves(state, cfg)
            move = next(
                (m for m in moves if (m.source, m.target) in ((i, j), (j, i))),
                None,
            )
        else:
            move = reference_resolve_direction(state, cfg, i, j)
        if move is None:
            failed_at = ply
            break
        if forcing:
            forced = len(moves) == 1
        if weights is not None:
            if (i, j) not in scaled:
                weights.edge(i, j)  # raises ValueError naming the edge
            points[ply % 2] += scaled[i, j]
        state = reference_apply_move(state, move, cfg)
        applied += 1
    return ReplayReport(
        legal=failed_at is None,
        failed_at=failed_at,
        terminal=_reference_terminal(state, cfg),
        forced_even_plies=forced,
        final_state=state,
        plies_applied=applied,
        a_points=Fraction(points[1], mult),
        b_points=Fraction(points[0], mult),
    )


def reference_labels(succ, terminal) -> tuple[list[str], list[float]]:
    """Win/Loss/Draw labels and radii by rounds, straight from the definition.

    Round k labels, from the labels of earlier rounds only, Loss the
    states whose every move leads to a won state (a stuck state in round
    0), and Win (k >= 1) the states with a finishing move or a move to a
    lost state.  The round a state is labelled in is its radius; states
    no round labels are drawn.
    """
    label = ["Terminal" if t else "Draw" for t in terminal]
    radius = [inf] * len(succ)
    k = 0
    while True:
        fresh = []
        for i, out in enumerate(succ):
            if label[i] != "Draw":
                continue
            if all(label[t] == "Win" for t, _, _ in out):
                fresh.append((i, "Loss"))
            elif k and any(enters or label[t] == "Loss" for t, _, enters in out):
                fresh.append((i, "Win"))
        for i, name in fresh:
            label[i], radius[i] = name, k
        if not fresh and k:
            return label, radius
        k += 1


def reference_reverse_seq(expr: SeqExpr) -> SeqExpr:
    """Structural reversal by plain recursion, which unfolds shared nodes."""
    if isinstance(expr, Atom):
        return expr
    if isinstance(expr, Concat):
        return Concat(tuple(reference_reverse_seq(p) for p in reversed(expr.parts)))
    return Repeat(reference_reverse_seq(expr.body), expr.count)


# The recursive tree walkers that the one fold in ``notation`` replaced,
# kept as the reference for their outputs.  ``reference_reverse_seq`` above
# is the reference for ``reverse_seq``.


def reference_to_text(expr: SeqExpr) -> str:
    """Render an expression in the notation grammar."""
    if isinstance(expr, Atom):
        return f"{expr.i}{expr.j}"
    if isinstance(expr, Repeat):
        return f"({reference_to_text(expr.body)})^{expr.count}"
    parts = [reference_to_text(p) for p in expr.parts]
    return "-".join(p for p in parts if p)


def reference_expand(expr: SeqExpr) -> tuple[tuple[int, int], ...]:
    """Flatten an expression into its (i, j) edge pairs, in play order."""
    if isinstance(expr, Atom):
        return ((expr.i, expr.j),)
    if isinstance(expr, Concat):
        out: list[tuple[int, int]] = []
        for part in expr.parts:
            out.extend(reference_expand(part))
        return tuple(out)
    return reference_expand(expr.body) * expr.count


def reference_signed_counts(expr: SeqExpr) -> tuple[int, int, int]:
    """Per edge 12, 13, 23: moves on odd plies minus moves on even plies,
    counted over the expanded line."""
    counts = [0, 0, 0]
    for ply, (i, j) in enumerate(reference_expand(expr), start=1):
        counts[i + j - 3] += 1 if ply % 2 else -1
    return tuple(counts)


def reference_seq_length(expr: SeqExpr) -> int:
    """Number of moves the expression expands to (shared nodes measured once)."""
    return _reference_length(expr, {})


def _reference_length(expr: SeqExpr, done: dict) -> int:
    if isinstance(expr, Atom):
        return 1
    if id(expr) not in done:
        if isinstance(expr, Concat):
            done[id(expr)] = sum(_reference_length(p, done) for p in expr.parts)
        else:
            done[id(expr)] = expr.count * _reference_length(expr.body, done)
    return done[id(expr)]


def reference_permute_seq(expr: SeqExpr, sigma: dict[int, int]) -> SeqExpr:
    """Rename the pegs of every atom through ``sigma``.

    A node shared within ``expr`` is relabelled once and stays shared.
    """
    return _reference_permute(expr, sigma, {})


def _reference_permute(expr: SeqExpr, sigma: dict[int, int], done: dict) -> SeqExpr:
    if id(expr) in done:
        return done[id(expr)]
    if isinstance(expr, Atom):
        a, b = sigma[expr.i], sigma[expr.j]
        out = Atom(min(a, b), max(a, b))
    elif isinstance(expr, Concat):
        out = Concat(tuple(_reference_permute(p, sigma, done) for p in expr.parts))
    else:
        out = Repeat(_reference_permute(expr.body, sigma, done), expr.count)
    done[id(expr)] = out
    return out


def unique_nodes(expr: SeqExpr) -> int:
    """Number of distinct node objects in an expression tree."""
    seen: dict[int, SeqExpr] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if isinstance(node, Concat):
            stack.extend(node.parts)
        elif not isinstance(node, Atom):
            stack.append(node.body)
    return len(seen)


def reference_bounded_scoring_search(
    cfg: GameConfig,
    w: Weights,
    bound: int,
    graph: GameGraph | None = None,
    budget_states: int = 10**8,
) -> tuple[SearchResult, int]:
    """Least ply budget within which the first player forces a positive score,
    by recursive minimax over a memo; returns the result and the memo size.

    Exact minimax from the initial state: the first player maximises the
    final score and must end the game within the budget; the second player
    minimises and may stall.  Returns the smallest ply count t <= bound
    with a forced win, the exact score achieved at that t, and one optimal
    line (first achiever in move order).
    """
    if cfg.pegs != 3:
        raise GameError("scoring play is analysed on three pegs")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if graph is not None and graph.cfg != cfg:
        raise GameError(f"the graph was built for {graph.cfg}, not for {cfg}")
    g = build_graph(cfg, budget_states) if graph is None else graph
    m12, m13, m23, mult = w.scaled_integers()
    edge_value = {}
    for code, pair in enumerate(g.edges):
        edge_value[code] = {(1, 2): m12, (1, 3): m13, (2, 3): m23}[pair]

    memo: dict[tuple[int, int, bool], float | int] = {}

    def value(idx: int, budget: int, first: bool) -> float | int:
        """Net score for the first player, -inf if the end is not forced."""
        if budget == 0:
            return -inf
        key = (idx, budget, first)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = -inf if first else inf
        for nxt, code, enters in unpack(cfg, g.succ[idx]):
            gain = edge_value[code] if first else -edge_value[code]
            if enters:
                candidate = gain
            else:
                sub = value(nxt, budget - 1, not first)
                candidate = gain + sub if sub != -inf else -inf
            if first:
                if candidate > best:
                    best = candidate
            else:
                if candidate < best:
                    best = candidate
        if not g.succ[idx]:
            best = -inf
        memo[key] = best
        return best

    found_t: int | float = inf
    best_scaled: float | int = -inf
    for t in range(1, bound + 1):
        v = value(g.initial, t, True)
        if v != -inf and v > 0:
            found_t = t
            best_scaled = v
            break

    if found_t == inf:
        # ``value`` refers to itself through its closure: unbind it so the
        # memo is freed on return rather than at the next full collection.
        del value
        return SearchResult(bound, False, inf, None, ()), len(memo)

    line: list[Move] = []
    idx, budget, first = g.initial, int(found_t), True
    while budget > 0:
        target = value(idx, budget, first)
        step = None
        moves = legal_moves(state_from_index(idx, cfg), cfg)
        for move, (nxt, code, enters) in zip(moves, unpack(cfg, g.succ[idx])):
            gain = edge_value[code] if first else -edge_value[code]
            if enters:
                candidate = gain
            else:
                sub = value(nxt, budget - 1, not first)
                candidate = gain + sub if sub != -inf else -inf
            if candidate == target:
                step = (move, nxt, enters)
                break
        assert step is not None, "line reconstruction lost the search value"
        move, nxt, enters = step
        line.append(move)
        if enters:
            break
        idx, budget, first = nxt, budget - 1, not first
    del value
    return SearchResult(
        bound=bound,
        win_found=True,
        min_win_plies=int(found_t),
        best_delta=Fraction(best_scaled, mult),
        line=tuple(line),
    ), len(memo)


# The recursive transfer builders that the one-pass loops in ``construct``
# replaced, kept as the reference for their outputs.


@cache
def reference_minimal_transfer(disks: int, source: int, target: int) -> SeqExpr:
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
            reference_minimal_transfer(disks - 1, source, spare),
            Atom(min(source, target), max(source, target)),
            reference_minimal_transfer(disks - 1, spare, target),
        )
    )


def reference_odd_transfer(disks: int, target: tuple[int, ...]) -> SeqExpr:
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
        return reference_odd_transfer(disks - 1, target[:-1])
    (spare,) = {1, 2, 3} - {1, largest_peg}
    sigma = sigma_for(spare)
    tau = invert_sigma(sigma)
    sub_target = tuple(tau[p] for p in target[:-1])
    return Concat(
        (
            reference_minimal_transfer(disks - 1, 1, spare),
            Atom(1, largest_peg),
            permute_seq(reference_odd_transfer(disks - 1, sub_target), sigma),
        )
    )


def reference_even_transfer(disks: int, target: tuple[int, ...]) -> SeqExpr:
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
            reference_odd_transfer(disks, tuple(displaced)),
            Atom(min(third, quick_peg), max(third, quick_peg)),
        )
    )


def reference_return_transfer(disks: int, variant: int = 1) -> SeqExpr:
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
                reference_minimal_transfer(disks - 1, 1, 2),
                Atom(1, 3),
                reference_minimal_transfer(disks - 1, 2, 1),
                Atom(2, 3),
                reference_minimal_transfer(disks - 1, 1, 3),
                Atom(1, 2),
                reference_minimal_transfer(disks - 1, 3, 1),
            )
        )
    if variant == 2:
        if disks == 2:
            return parse("13-12-13-23-12-13-12")
        sigma = sigma_for(3)
        return Concat(
            (
                reference_minimal_transfer(disks - 1, 1, 3),
                Atom(1, 2),
                permute_seq(reference_return_transfer(disks - 1, 2), sigma),
                Atom(1, 2),
                reference_minimal_transfer(disks - 1, 3, 1),
            )
        )
    raise ValueError(f"unknown round trip variant {variant}")


# Tests of counts too long to print assume the interpreter's default limit
# on the digits of an integer it converts to a decimal string.
needs_default_int_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs the interpreter's default limit of 4300 digits",
)
