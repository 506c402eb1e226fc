"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import inf

from hanoiduel import (
    Ending,
    GameConfig,
    Weights,
    apply_move,
    initial_state,
    is_terminal,
    legal_moves,
    parse,
    replay,
)
from hanoiduel.core import state_from_index, state_index, state_space


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


def reference_graph(cfg: GameConfig) -> dict:
    """The dense game graph built state by state from the rules API.

    Returns the fields of ``GameGraph`` that ``build_graph`` computes, for
    comparison: every dense index is decoded, its legal moves listed and
    applied, and the reachable set found by breadth-first search.
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
        succ[idx] = tuple(entries)
    initial = state_index(initial_state(cfg), cfg)
    seen = {initial}
    frontier = deque([initial])
    while frontier:
        for nxt, _, _ in succ[frontier.popleft()]:
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
