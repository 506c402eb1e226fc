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
failure for the first player.  Weights are scaled to integers once.  The
search deepens one ply at a time and fills its values bottom-up: nodes are
(state, side to move) pairs in breadth-first ply layers, one table per
budget holds every node's value, and each deepening step discovers one
layer and passes once over each layer's rows.  A row has two (successor,
signed gain) slots, since a reachable three-peg state has at most two
moves; two sentinel nodes stand for a finished game (0) and a stuck player
(-inf).  Values of earlier budgets are kept, so scanning budgets is cheap.
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
    """Outcome of a depth-bounded scoring search from one state.

    ``values`` counts the (state, side to move, budget) values computed.
    """

    bound: int
    win_found: bool
    min_win_plies: int | float
    best_delta: Fraction | None
    line: tuple[Move, ...]
    values: int = 0


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

    Computed bottom-up by ply layers.  A node is a (state, side to move)
    pair; layer k holds the nodes first reached after k plies, so the first
    player moves in the even layers.  Node ids count breadth-first after
    two sentinels: node 0, the finished game (0 at every budget), and node
    1, a stuck player (-inf).  ``table[b][node]`` is the first player's net
    score with b plies left, -inf where the end is not forced.  Deepening
    step t discovers layer t and extends ``table[t - k]`` with layer k for
    k = t-1 down to 0: layer k at budget b reads layer k+1 at budget b-1,
    filled just before it, and older layers from earlier steps.  Each layer
    is one pass over rows of two (successor, signed scaled gain) slots.
    """
    if cfg.pegs != 3:
        raise GameError("scoring play is analysed on three pegs")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if graph is not None and graph.cfg != cfg:
        raise GameError(f"the graph was built for {graph.cfg}, not for {cfg}")
    g = build_graph(cfg, budget_states) if graph is None else graph
    m12, m13, m23, mult = w.scaled_integers()
    gain = [{(1, 2): m12, (1, 3): m13, (2, 3): m23}[pair] for pair in g.edges]
    # ids[side][state] is a node's id (side 0 is the first player); table[0]
    # gets an entry for each new node, so its length is the next id.
    ids: tuple[dict[int, int], dict[int, int]] = ({g.initial: 2}, {})
    table = [[0, -inf, -inf]]
    rows: list[list[tuple[int, int, int, int]]] = []
    frontier = [g.initial]
    found = values = 0
    for t in range(1, bound + 1):
        side = (t - 1) % 2  # to move in layer t-1, whose rows are built here
        seen, sign = ids[1 - side], 1 - 2 * side
        layer, ahead = [], []
        for idx in frontier:
            row = []
            for nxt, code, enters in g.succ[idx]:
                node = 0 if enters else seen.get(nxt)
                if node is None:
                    node = seen[nxt] = len(table[0])
                    table[0].append(-inf)
                    ahead.append(nxt)
                row += (node, sign * gain[code])
            # A reachable three-peg state has at most two moves.  Besides
            # the smallest disk's two, a position has at most one move, the
            # smaller top between the pegs without disk 1; after disk d > 1
            # moves, that move takes d back, which the ban forbids.  A
            # single move fills both slots; a stuck node reads node 1 twice.
            if len(row) > 4:
                raise GameError(f"state {idx} has {len(row) // 2} moves, more than two")
            layer.append(tuple(((row or [1, 0]) * 2)[:4]))
        rows.append(layer)
        frontier = ahead
        table.append([0, -inf])
        for k in range(t - 1, -1, -1):
            prev = table[t - k - 1]
            if k % 2:  # the second player minimises the first player's score
                table[t - k] += [u if (u := a + prev[x]) < (v := b + prev[y]) else v
                                 for x, a, y, b in rows[k]]
            else:
                table[t - k] += [u if (u := a + prev[x]) > (v := b + prev[y]) else v
                                 for x, a, y, b in rows[k]]
        values += len(table[1]) - 2
        if table[t][2] > 0:
            found = t
            break

    if not found:
        return SearchResult(bound, False, inf, None, (), values)

    line: list[Move] = []
    idx, side, budget = g.initial, 0, found
    while True:
        target = table[budget][ids[side][idx]]
        for move, (nxt, code, enters) in zip(g.moves[idx], g.succ[idx]):
            sub = 0 if enters else table[budget - 1][ids[1 - side][nxt]]
            if (1 - 2 * side) * gain[code] + sub == target:
                break
        else:
            raise AssertionError("line reconstruction lost the search value")
        line.append(move)
        if enters:
            break
        idx, side, budget = nxt, 1 - side, budget - 1
    return SearchResult(
        bound=bound,
        win_found=True,
        min_win_plies=found,
        best_delta=Fraction(table[found][2], mult),
        line=tuple(line),
        values=values,
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
    ``budget_states`` bounds the l^n positions or the dense state space.
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
        if cfg.pegs**cfg.disks > budget_states:
            raise BudgetExceeded(
                f"position space {cfg.pegs**cfg.disks} exceeds the budget of {budget_states}"
            )
        names, arcs = [], []
        for pidx, stack, position_moves in _position_moves(cfg):
            names.append(_pos_name(stack[::-1]))
            arcs += [(pidx, target) for _, _, _, target, _ in position_moves]
        nodes = sorted(names)
        # Each undirected edge is listed by the moves of both of its ends.
        edges = sorted({tuple(sorted((names[a], names[b]))) for a, b in arcs})
        marked = _minimal_path_edges(cfg) if highlight_minimal else set()
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
        lines = ["graph positions {"]
        for name in nodes:
            lines.append(f'  "{name}";')
        for a, b in edges:
            if (a, b) in marked:
                lines.append(f'  "{a}" -- "{b}" [color=red, penwidth=2.0];')
            else:
                lines.append(f'  "{a}" -- "{b}";')
    elif level == "state":
        graph = build_graph(cfg, budget_states)
        reachable = sorted(graph.reachable)
        arcs = []
        for idx in reachable:
            for nxt, _, enters in graph.succ[idx]:
                arcs.append((idx, nxt, enters))
        arcs.sort()
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
        lines = ["digraph states {"]
        for idx in reachable:
            shape = "doublecircle" if graph.terminal[idx] else "circle"
            lines.append(f'  "{idx}" [shape={shape}];')
        for a, b, enters in arcs:
            if enters:
                lines.append(f'  "{a}" -> "{b}" [style=dashed];')
            else:
                lines.append(f'  "{a}" -> "{b}";')
    else:
        raise ValueError(f"unknown level {level!r}")
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "dot":
        raise ValueError(f"unknown format {fmt!r}")
    lines.append("}")
    return "\n".join(lines) + "\n"
