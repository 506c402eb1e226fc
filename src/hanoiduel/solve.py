"""Exhaustive verification: state graphs, retrograde solving, bounded search.

These are the oracles the closed forms are checked against.  States are
packed into a dense index space of size l^n * (n+1) * 4 (position, last
moved disk, the two milestone flags).  The space contains configurations no
play can reach (for example a freshly moved disk buried under a smaller
one); solvers work on the full space but every claim checked in the test
suite quantifies over the reachable set.

``build_graph`` fills that space one position at a time.  The size rule
depends on the position alone, so each position's moves are found once;
the (n+1) * 4 states that share it differ only in which disk is banned
and in whether a move that completes the tower meets the ending, and
both are table lookups.  No ``GameState`` is built on the way.

``solve_normal`` labels each non-terminal state Win/Loss/Draw for the side
to move, with exact forced-play radii (Win: plies to force the end against
best defence; Loss: plies the loser can still hold out).  A move into a
terminal state ends the game and the mover wins.  A stuck mover loses on
the spot (radius 0); only unreachable states are stuck on three pegs.

``bounded_scoring_search`` answers: can the first player force the game to
end with a strictly positive score within a given number of plies?  The
second player is happy to stall, so running out of budget counts as
failure for the first player.  Weights are scaled to integers once and the
memo is shared across deepening budgets, so scanning budgets is cheap.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import inf

from .core import (
    Ending,
    GameConfig,
    GameError,
    Move,
    Weights,
    _ending_satisfied,
    _moves_on,
    apply_move,
    initial_state,
    resolve_direction,
    state_index,
    state_space,
)
from .construct import minimal_transfer
from .notation import expand


class BudgetExceeded(GameError):
    """Raised when a requested search would exceed the configured budget."""


@dataclass
class GameGraph:
    """Successor structure over the dense state index space.

    ``succ[i]`` lists (target index, edge code, enters_terminal) for every
    legal move of state i, in (source, target) move order; terminal states
    have no successors.  ``edges`` maps edge codes to peg pairs.
    """

    cfg: GameConfig
    edges: tuple[tuple[int, int], ...]
    succ: list[tuple[tuple[int, int, bool], ...]]
    moves: list[tuple[Move, ...]]
    terminal: list[bool]
    initial: int
    reachable: frozenset[int]

    @property
    def total_states(self) -> int:
        return len(self.succ)

    @property
    def reachable_count(self) -> int:
        return len(self.reachable)


def _position_moves(cfg: GameConfig):
    """The size-rule moves of every position, in position-index order.

    Yields (index, stack, moves) per position: ``stack`` lists the pegs of
    disks n..1 (``product`` counts with its first item slowest) and
    ``moves`` holds (disk, move, edge code, target position index, target
    peg if the move completes the tower else -1) for each move of a top
    disk onto an empty peg or a larger disk, in (source, target) order.
    Edge codes number the peg pairs in ``combinations`` order.  Moving
    disk d from peg s to peg t adds (t - s) * l^(d-1) to the index.
    """
    n, pegs = cfg.disks, cfg.pegs
    edges = combinations(range(1, pegs + 1), 2)
    codes = {pair: code for code, pair in enumerate(edges)}
    pairs = [
        (s, t, move, codes[min(s, t), max(s, t)])
        for (s, t), move in _moves_on(pegs).items()
    ]
    place = [0] + [pegs ** (d - 1) for d in range(1, n + 1)]
    for pidx, stack in enumerate(product(range(1, pegs + 1), repeat=n)):
        top = [0] * (pegs + 1)
        for disk, peg in zip(range(n, 0, -1), stack):
            top[peg] = disk
        moves = []
        for s, t, move, code in pairs:
            disk = top[s]
            if disk and not 0 < top[t] < disk:
                target = pidx + (t - s) * place[disk]
                completes = t if stack.count(t) == n - 1 else -1
                moves.append((disk, move, code, target, completes))
        yield pidx, stack, moves


def build_graph(cfg: GameConfig, budget_states: int = 10**8) -> GameGraph:
    """Materialise the full state graph (guarded by ``budget_states``).

    A per-position move kernel: each state of a position reads the
    position's size-rule moves (``_position_moves``).  Moving disk d makes
    d the last-moved disk and raises the flags if d is the largest or the
    smallest disk.  Each of the (n+1) * 4 states of the position takes
    that list, drops the moves of its last-moved disk and keeps a
    completing move only where the ending holds after it (such a move then
    enters a terminal state).  States with equal successor lists share
    one tuple.
    """
    size = state_space(cfg)
    if size > budget_states:
        raise BudgetExceeded(
            f"state space {size} exceeds the budget of {budget_states}"
        )
    n, pegs = cfg.disks, cfg.pegs
    # A state's flag bits f = 2*largest + smallest are its index mod 4;
    # moving disk d sets the bits in ``raises[d]``.
    ends = [
        [_ending_satisfied(cfg, peg, f >= 2, f % 2 == 1) for f in range(4)]
        for peg in range(pegs + 1)
    ]
    raises = [0] + [2 * (d == n) + (d == 1) for d in range(1, n + 1)]
    block = 4 * (n + 1)
    succ: list[tuple[tuple[int, int, bool], ...]] = [()] * size
    moves: list[tuple[Move, ...]] = [()] * size
    terminal = [False] * size
    for pidx, stack, position_moves in _position_moves(cfg):
        kernel = [
            (disk, move, target * block + 4 * disk, code, t)
            for disk, move, code, target, t in position_moves
        ]
        lo = pidx * block
        done = stack[0] if stack.count(stack[0]) == n else -1
        for f in range(4):
            if done >= 0 and ends[done][f]:
                terminal[lo + f : lo + block : 4] = [True] * (n + 1)
                continue
            legal = [
                (disk, move, (target + (f | raises[disk]), code, t >= 0))
                for disk, move, target, code, t in kernel
                if t < 0 or ends[t][f | raises[disk]]
            ]
            row_succ = [tuple(entry for _, _, entry in legal)] * (n + 1)
            row_moves = [tuple(move for _, move, _ in legal)] * (n + 1)
            for banned in {disk for disk, _, _ in legal}:
                row_succ[banned] = tuple(e for d, _, e in legal if d != banned)
                row_moves[banned] = tuple(m for d, m, _ in legal if d != banned)
            succ[lo + f : lo + block : 4] = row_succ
            moves[lo + f : lo + block : 4] = row_moves
    init_idx = state_index(initial_state(cfg), cfg)
    return GameGraph(
        cfg=cfg,
        edges=tuple(combinations(range(1, pegs + 1), 2)),
        succ=succ,
        moves=moves,
        terminal=terminal,
        initial=init_idx,
        reachable=frozenset(chain.from_iterable(_breadth_first(succ, init_idx))),
    )


def _breadth_first(succ, start: int):
    """Yield the states 0, 1, 2, ... plies from ``start`` over ``succ``,
    one list per ply."""
    seen = {start}
    level = [start]
    while level:
        yield level
        ahead = []
        for here in level:
            for nxt, _, _ in succ[here]:
                if nxt not in seen:
                    seen.add(nxt)
                    ahead.append(nxt)
        level = ahead


WIN, LOSS, DRAW = 1, 2, 0


@dataclass
class Labeling:
    """Win/Loss/Draw labels and forced-play radii for the side to move."""

    graph: GameGraph
    label: list[int]
    radius: list[float]

    def label_of(self, index: int) -> str:
        if self.graph.terminal[index]:
            return "Terminal"
        return {WIN: "Win", LOSS: "Loss", DRAW: "Draw"}[self.label[index]]

    @property
    def initial_label(self) -> str:
        return self.label_of(self.graph.initial)

    @property
    def initial_radius(self) -> float:
        return self.radius[self.graph.initial]

    def best_move(self, index: int) -> Move | None:
        """Optimal move at a state, ties broken by move order then index.

        Win states pick the fastest forced win; Loss states the longest
        hold-out; Draw states a non-losing move.
        """
        g = self.graph
        if g.terminal[index] or not g.succ[index]:
            return None
        here = self.label[index]
        best: tuple | None = None
        for move, (nxt, _, enters) in zip(g.moves[index], g.succ[index]):
            if here == WIN:
                if enters:
                    return move
                if self.label[nxt] == LOSS and self.radius[nxt] + 1 == self.radius[index]:
                    return move
            elif here == LOSS:
                key = (-self.radius[nxt], nxt)
                if best is None or key < best[0]:
                    best = (key, move)
            else:
                if not enters and self.label[nxt] == DRAW:
                    key = (nxt,)
                    if best is None or key < best[0]:
                        best = (key, move)
        return best[1] if best else None

    def principal_line(self, max_plies: int = 10_000) -> tuple[Move, ...]:
        """Forced line from the initial state under the labels."""
        g = self.graph
        cfg = g.cfg
        state = initial_state(cfg)
        line: list[Move] = []
        for _ in range(max_plies):
            idx = state_index(state, cfg)
            if g.terminal[idx]:
                break
            move = self.best_move(idx)
            if move is None:
                break
            line.append(move)
            state = apply_move(state, move, cfg)
        return tuple(line)


def solve_normal(graph: GameGraph) -> Labeling:
    """Retrograde analysis of normal play over the full state space.

    One pass over ``succ`` labels the stuck states Loss in 0 and the states
    with a finishing move Win in 1, and records predecessors for the rest.
    The queue then holds states in non-decreasing radius, so a state is
    labelled by the first Loss successor it hears of (Win) or by the last
    of its Win successors (Loss), one ply beyond that successor.
    """
    succ, terminal = graph.succ, graph.terminal
    size = len(succ)
    label = [DRAW] * size
    radius: list[float] = [inf] * size
    counter = list(map(len, succ))
    preds: list[list[int]] = [[] for _ in range(size)]
    stuck: list[int] = []
    finishing: list[int] = []
    for i, out in enumerate(succ):
        if not out:
            if not terminal[i]:
                stuck.append(i)
        elif any(enters for _, _, enters in out):
            finishing.append(i)
        else:
            for nxt, _, _ in out:
                preds[nxt].append(i)
    for i in stuck:
        label[i] = LOSS
        radius[i] = 0
    for i in finishing:
        label[i] = WIN
        radius[i] = 1
    queue = deque(stuck + finishing)
    while queue:
        here = queue.popleft()
        step = radius[here] + 1
        if label[here] == LOSS:
            for p in preds[here]:
                if label[p] == DRAW:
                    label[p] = WIN
                    radius[p] = step
                    queue.append(p)
        else:
            for p in preds[here]:
                if label[p] != DRAW:
                    continue
                counter[p] -= 1
                if counter[p] == 0:
                    label[p] = LOSS
                    radius[p] = step
                    queue.append(p)
    return Labeling(graph=graph, label=label, radius=radius)


def shortest_forced_win(
    cfg: GameConfig, budget_states: int = 10**8
) -> float:
    """Plies the first player needs to force the end, or inf if they cannot."""
    labeling = solve_normal(build_graph(cfg, budget_states))
    if labeling.initial_label == "Win":
        return labeling.initial_radius
    return inf


def shortest_finish(graph: GameGraph) -> float:
    """Fewest plies of any line from the initial state that ends the game,
    or inf if no line ends it."""
    for depth, level in enumerate(_breadth_first(graph.succ, graph.initial)):
        if any(enters for here in level for _, _, enters in graph.succ[here]):
            return depth + 1
    return inf


@dataclass
class SearchResult:
    """Outcome of a depth-bounded scoring search from one state."""

    bound: int
    win_found: bool
    min_win_plies: int | float
    best_delta: Fraction | None
    line: tuple[Move, ...]


def bounded_scoring_search(
    cfg: GameConfig,
    w: Weights,
    bound: int,
    graph: GameGraph | None = None,
    budget_states: int = 10**8,
) -> SearchResult:
    """Least ply budget within which the first player forces a positive score.

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
        for nxt, code, enters in g.succ[idx]:
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
        return SearchResult(bound, False, inf, None, ())

    line: list[Move] = []
    idx, budget, first = g.initial, int(found_t), True
    while budget > 0:
        target = value(idx, budget, first)
        step = None
        for move, (nxt, code, enters) in zip(g.moves[idx], g.succ[idx]):
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
    )


# ---------------------------------------------------------------------------
# Graph export.


def _pos_name(pos: tuple[int, ...]) -> str:
    return "".join(str(p) for p in pos)


def _minimal_path_edges(cfg: GameConfig) -> set[tuple[str, str]]:
    """Edges of the shortest transfer route (start peg to peg 3 or target)."""
    final = cfg.final_peg or 3
    expr = minimal_transfer(cfg.disks, cfg.start_peg, final)
    # The minimal transfer is a legal line of the to-peg game, so that
    # game's rules resolve the direction of each of its edge moves.
    walk = GameConfig(cfg.disks, cfg.pegs, Ending.TO_PEG, cfg.start_peg, final)
    state = initial_state(walk)
    marked = set()
    for i, j in expand(expr):
        nxt = apply_move(state, resolve_direction(state, walk, i, j), walk)
        a, b = sorted([_pos_name(state.pos), _pos_name(nxt.pos)])
        marked.add((a, b))
        state = nxt
    return marked


def export_graph(
    cfg: GameConfig,
    fmt: str = "dot",
    level: str = "position",
    highlight_minimal: bool = False,
    budget_states: int = 10**8,
) -> str:
    """Render the game graph as DOT or JSON text (bytewise deterministic).

    ``position`` level is the classical undirected Hanoi graph on l^n
    positions (size rule only).  ``state`` level is the directed graph of
    the two-player game over reachable states, ban and ending included;
    edges into terminal states are marked.  The minimal-transfer highlight
    marks position edges only and draws the three-peg transfer, so it needs
    the position level, the start and final pegs among pegs 1-3, and a
    start peg other than the final one (peg 3 outside to-peg).
    """
    if highlight_minimal and level == "state":
        raise GameError("the minimal-transfer highlight marks the position graph only")
    if highlight_minimal and max(cfg.start_peg, cfg.final_peg or 3) > 3:
        raise GameError(
            "the minimal-transfer highlight draws the three-peg transfer, so "
            "the start and final pegs must be among pegs 1-3 "
            f"(start {cfg.start_peg}, final {cfg.final_peg or 3})"
        )
    if highlight_minimal and cfg.start_peg == (cfg.final_peg or 3):
        raise GameError(
            "the minimal-transfer highlight draws the transfer to peg 3 "
            "under this ending, so the start peg must not be peg 3"
        )
    if level == "position":
        names, arcs = [], []
        for pidx, stack, position_moves in _position_moves(cfg):
            names.append(_pos_name(stack[::-1]))
            arcs += [(pidx, target) for _, _, _, target, _ in position_moves]
        nodes = sorted(names)
        # Each undirected edge is listed by the moves of both of its ends.
        edges = sorted({tuple(sorted((names[a], names[b]))) for a, b in arcs})
        marked = _minimal_path_edges(cfg) if highlight_minimal else set()
        if fmt == "json":
            payload = {
                "level": "position",
                "pegs": cfg.pegs,
                "disks": cfg.disks,
                "nodes": nodes,
                "edges": [[a, b] for a, b in edges],
                "counts": {"nodes": len(nodes), "edges": len(edges)},
            }
            if highlight_minimal:
                payload["highlighted"] = [[a, b] for a, b in sorted(marked)]
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if fmt != "dot":
            raise ValueError(f"unknown format {fmt!r}")
        lines = ["graph positions {"]
        for name in nodes:
            lines.append(f'  "{name}";')
        for a, b in edges:
            if (a, b) in marked:
                lines.append(f'  "{a}" -- "{b}" [color=red, penwidth=2.0];')
            else:
                lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if level != "state":
        raise ValueError(f"unknown level {level!r}")
    graph = build_graph(cfg, budget_states)
    reachable = sorted(graph.reachable)
    arcs = []
    for idx in reachable:
        for nxt, _, enters in graph.succ[idx]:
            arcs.append((idx, nxt, enters))
    arcs.sort()
    if fmt == "json":
        payload = {
            "level": "state",
            "pegs": cfg.pegs,
            "disks": cfg.disks,
            "ending": int(cfg.ending),
            "nodes": reachable,
            "terminal": [i for i in reachable if graph.terminal[i]],
            "edges": [[a, b, bool(t)] for a, b, t in arcs],
            "counts": {"nodes": len(reachable), "edges": len(arcs)},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "dot":
        raise ValueError(f"unknown format {fmt!r}")
    lines = ["digraph states {"]
    for idx in reachable:
        shape = "doublecircle" if graph.terminal[idx] else "circle"
        lines.append(f'  "{idx}" [shape={shape}];')
    for a, b, enters in arcs:
        if enters:
            lines.append(f'  "{a}" -> "{b}" [style=dashed];')
        else:
            lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
