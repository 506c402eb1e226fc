"""Exhaustive verification: state graphs, retrograde solving, bounded search.

These are the oracles the closed forms are checked against.  States are
packed into a dense index space of size l^n * (n+1) * 4 (position, last
moved disk, the two milestone flags).  The space contains configurations no
play can reach (for example a freshly moved disk buried under a smaller
one); solvers work on the full space but every claim checked in the test
suite quantifies over the reachable set.

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
from itertools import combinations, product
from math import inf

from .core import (
    Ending,
    GameConfig,
    GameError,
    GameState,
    Move,
    Weights,
    initial_state,
    is_terminal,
    legal_moves,
    apply_move,
    resolve_direction,
    state_from_index,
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


def build_graph(cfg: GameConfig, budget_states: int = 10**8) -> GameGraph:
    """Materialise the full state graph (guarded by ``budget_states``)."""
    size = state_space(cfg)
    if size > budget_states:
        raise BudgetExceeded(
            f"state space {size} exceeds the budget of {budget_states}"
        )
    edges = tuple(combinations(range(1, cfg.pegs + 1), 2))
    edge_code = {pair: code for code, pair in enumerate(edges)}
    succ: list[tuple[tuple[int, int, bool], ...]] = [()] * size
    moves: list[tuple[Move, ...]] = [()] * size
    terminal = [False] * size
    for idx in range(size):
        state = state_from_index(idx, cfg)
        if is_terminal(state, cfg):
            terminal[idx] = True
            continue
        mv = legal_moves(state, cfg)
        moves[idx] = mv
        entries = []
        for m in mv:
            nxt = apply_move(state, m, cfg)
            code = edge_code[(min(m.source, m.target), max(m.source, m.target))]
            entries.append((state_index(nxt, cfg), code, is_terminal(nxt, cfg)))
        succ[idx] = tuple(entries)
    init_idx = state_index(initial_state(cfg), cfg)
    seen = {init_idx}
    frontier = deque([init_idx])
    while frontier:
        here = frontier.popleft()
        for nxt, _, _ in succ[here]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return GameGraph(
        cfg=cfg,
        edges=edges,
        succ=succ,
        moves=moves,
        terminal=terminal,
        initial=init_idx,
        reachable=frozenset(seen),
    )


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
    """Retrograde analysis of normal play over the full state space."""
    size = graph.total_states
    label = [DRAW] * size
    radius: list[float] = [inf] * size
    counter = [len(graph.succ[i]) for i in range(size)]
    preds: list[list[int]] = [[] for _ in range(size)]
    for i in range(size):
        for nxt, _, enters in graph.succ[i]:
            if not enters:
                preds[nxt].append(i)
    queue: deque[int] = deque()
    for i in range(size):
        if graph.terminal[i]:
            continue
        if not graph.succ[i]:
            label[i] = LOSS
            radius[i] = 0
            queue.append(i)
    for i in range(size):
        if graph.terminal[i] or label[i] != DRAW:
            continue
        if any(enters for _, _, enters in graph.succ[i]):
            label[i] = WIN
            radius[i] = 1
            queue.append(i)
    while queue:
        here = queue.popleft()
        if label[here] == LOSS:
            for p in preds[here]:
                if label[p] == DRAW:
                    label[p] = WIN
                    radius[p] = radius[here] + 1
                    queue.append(p)
        else:
            for p in preds[here]:
                if label[p] != DRAW:
                    continue
                counter[p] -= 1
                if counter[p] == 0:
                    label[p] = LOSS
                    radius[p] = 1 + max(
                        radius[nxt] for nxt, _, _ in graph.succ[p]
                    )
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
    start: GameState | None = None,
    budget_states: int = 10**8,
) -> SearchResult:
    """Least ply budget within which the first player forces a positive score.

    Exact minimax over the state graph: the first player maximises the
    final score and must end the game within the budget; the second player
    minimises and may stall.  Returns the smallest ply count t <= bound
    with a forced win, the exact score achieved at that t, and one optimal
    line (first achiever in move order).
    """
    if cfg.pegs != 3:
        raise GameError("scoring play is analysed on three pegs")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    g = build_graph(cfg, budget_states) if graph is None else graph
    m12, m13, m23, mult = w.scaled_integers()
    edge_value = {}
    for code, pair in enumerate(g.edges):
        edge_value[code] = {(1, 2): m12, (1, 3): m13, (2, 3): m23}[pair]
    start_idx = g.initial if start is None else state_index(start, g.cfg)
    if g.terminal[start_idx]:
        raise GameError("the start state is already terminal")

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
        v = value(start_idx, t, True)
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
    idx, budget, first = start_idx, int(found_t), True
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


def _position_edges(cfg: GameConfig) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Undirected single-move adjacency between positions (pure size rule)."""
    edges = set()
    for pos in product(range(1, cfg.pegs + 1), repeat=cfg.disks):
        tops: dict[int, int] = {}
        for disk in range(cfg.disks, 0, -1):
            tops[pos[disk - 1]] = disk
        for source, disk in tops.items():
            for target in range(1, cfg.pegs + 1):
                if target == source:
                    continue
                if target in tops and tops[target] < disk:
                    continue
                moved = list(pos)
                moved[disk - 1] = target
                pair = tuple(sorted([pos, tuple(moved)]))
                edges.add(pair)
    return sorted(edges)


def _pos_name(pos: tuple[int, ...]) -> str:
    return "".join(str(p) for p in pos)


def _minimal_path_edges(cfg: GameConfig) -> set[tuple[str, str]]:
    """Edges of the shortest transfer route (start peg to peg 3 or target)."""
    final = cfg.final_peg if cfg.ending is Ending.TO_PEG else 3
    if final == cfg.start_peg:
        return set()
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
    edges into terminal states are marked.
    """
    if level == "position":
        positions = product(range(1, cfg.pegs + 1), repeat=cfg.disks)
        nodes = [_pos_name(p) for p in positions]
        edges = [
            (_pos_name(a), _pos_name(b)) for a, b in _position_edges(cfg)
        ]
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
