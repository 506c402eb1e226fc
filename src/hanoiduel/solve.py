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
both are table lookups.  No ``GameState`` is built on the way.  One
breadth-first search over the filled graph then finds the reachable set,
the shortest finish and the ply layers of the non-terminal states.

``solve_normal`` labels each non-terminal state Win/Loss/Draw for the side
to move, with exact forced-play radii (Win: plies to force the end against
best defence; Loss: plies the loser can still hold out).  A move into a
terminal state ends the game and the mover wins.  A stuck mover loses on
the spot (radius 0); only unreachable states are stuck on three pegs.

``bounded_scoring_search`` answers: can the first player force the game to
end with a strictly positive score within a given number of plies?  The
second player is happy to stall, so running out of budget counts as
failure for the first player.  Weights are scaled to integers once.  The
search deepens one ply at a time and fills its values bottom-up over
``build_graph``'s ply layers, one table per budget and one pass over each
layer's rows per step.  A reachable non-terminal three-peg state has one
or two moves, exactly one where the second player moves, so a row holds
two (successor, edge code) slots in an even layer and one in an odd one;
node 0 stands for a finished game.  The rows do not depend on the weights,
so they are built once per graph and kept on it.  Values of earlier
budgets are kept, so scanning is cheap.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import inf

from .core import (
    Ending,
    GameConfig,
    GameError,
    Move,
    Weights,
    _ending_satisfied,
    _moves_on,
    _play,
    count_text,
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
    have no successors, and ``move`` gives the ``Move`` of an entry.
    ``edges`` maps edge codes to peg pairs in ``combinations`` order (on
    three pegs codes 0, 1, 2 are 12, 13, 23).  One breadth-first search
    from ``initial`` gives ``reachable`` (terminal states included),
    ``finish``, the fewest plies of any line that ends the game (inf if
    none does), and the ply layers: ``order`` lists the reachable
    non-terminal states as found, and layer k, those first reached after
    k plies, ends before index ``layer_ends[k]`` of it.  ``layers`` caches
    the scoring search's rows (``_PlyLayers``).
    """

    cfg: GameConfig
    edges: tuple[tuple[int, int], ...]
    succ: list[tuple[tuple[int, int, bool], ...]]
    terminal: list[bool]
    initial: int
    reachable: frozenset[int]
    finish: float
    order: list[int]
    layer_ends: list[int]
    layers: _PlyLayers | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def total_states(self) -> int:
        return len(self.succ)

    @property
    def reachable_count(self) -> int:
        return len(self.reachable)

    def move(self, index: int, target: int, code: int) -> Move:
        """The move from state ``index`` to ``target`` along edge ``code``:
        a move to a higher peg raises the position index (``_position_moves``)."""
        a, b = self.edges[code]
        block = 4 * (self.cfg.disks + 1)
        return _moves_on(self.cfg.pegs)[(a, b) if target // block > index // block else (b, a)]


def _position_moves(cfg: GameConfig):
    """The size-rule moves of every position, in position-index order.

    Yields (index, stack, moves) per position: ``stack`` lists the pegs of
    disks n..1 (``product`` counts with its first item slowest) and
    ``moves`` holds (disk, edge code, target position index, target peg if
    the move completes the tower else -1) for each move of a top disk onto
    an empty peg or a larger disk, in (source, target) order.  Edge codes
    number the peg pairs in ``combinations`` order.  Moving disk d from peg
    s to peg t adds (t - s) * l^(d-1) to the index.
    """
    n, pegs = cfg.disks, cfg.pegs
    edges = combinations(range(1, pegs + 1), 2)
    codes = {pair: code for code, pair in enumerate(edges)}
    pairs = [(s, t, codes[min(s, t), max(s, t)]) for s, t in _moves_on(pegs)]
    place = [0] + [pegs ** (d - 1) for d in range(1, n + 1)]
    for pidx, stack in enumerate(product(range(1, pegs + 1), repeat=n)):
        top = [0] * (pegs + 1)
        for disk, peg in zip(range(n, 0, -1), stack):
            top[peg] = disk
        moves = []
        for s, t, code in pairs:
            disk = top[s]
            if disk and not 0 < top[t] < disk:
                target = pidx + (t - s) * place[disk]
                completes = t if stack.count(t) == n - 1 else -1
                moves.append((disk, code, target, completes))
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
        power = f"{cfg.pegs}^{cfg.disks} * {(cfg.disks + 1) * 4}"
        raise BudgetExceeded(
            f"state space {count_text(size, power)} exceeds the budget of "
            f"{count_text(budget_states)}"
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
    terminal = [False] * size
    for pidx, stack, position_moves in _position_moves(cfg):
        kernel = [
            (disk, target * block + 4 * disk, code, t)
            for disk, code, target, t in position_moves
        ]
        lo = pidx * block
        done = stack[0] if stack.count(stack[0]) == n else -1
        for f in range(4):
            if done >= 0 and ends[done][f]:
                terminal[lo + f : lo + block : 4] = [True] * (n + 1)
                continue
            legal = [
                (disk, (target + (f | raises[disk]), code, t >= 0))
                for disk, target, code, t in kernel
                if t < 0 or ends[t][f | raises[disk]]
            ]
            row = [tuple(entry for _, entry in legal)] * (n + 1)
            for banned in {disk for disk, _ in legal}:
                row[banned] = tuple(e for d, e in legal if d != banned)
            succ[lo + f : lo + block : 4] = row
    # One breadth-first search, a layer at a time, finds the reachable set,
    # the finish (the first move found into a terminal state, as only those
    # end the game) and the ply layers of the non-terminal states.
    init_idx = state_index(initial_state(cfg), cfg)
    reachable, order, layer_ends, finish = {init_idx}, [init_idx], [], inf
    start = 0
    while start < len(order):
        layer_ends.append(len(order))
        for here in order[start:]:
            for nxt, _, enters in succ[here]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    if enters:
                        finish = min(finish, len(layer_ends))
                    else:
                        order.append(nxt)
        start = layer_ends[-1]
    return GameGraph(
        cfg=cfg,
        edges=tuple(combinations(range(1, pegs + 1), 2)),
        succ=succ,
        terminal=terminal,
        initial=init_idx,
        reachable=frozenset(reachable),
        finish=finish,
        order=order,
        layer_ends=layer_ends,
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

    def _choice(self, index: int) -> tuple[int, int] | None:
        """The (successor, edge code) of ``best_move``, None if it has none."""
        here, succ = self.label[index], self.graph.succ[index]
        if here == WIN:
            return next(((nxt, code) for nxt, code, enters in succ if enters or (
                self.label[nxt] == LOSS and self.radius[nxt] + 1 == self.radius[index])), None)
        if here == LOSS:
            options = [(-self.radius[nxt], nxt, code) for nxt, code, _ in succ]
        else:
            options = [(0, nxt, code) for nxt, code, enters in succ
                       if not enters and self.label[nxt] == DRAW]
        return min(options)[1:] if options else None

    def best_move(self, index: int) -> Move | None:
        """Optimal move at a state: for a Win the fastest forced win, first
        in move order; for a Loss the longest hold-out and for a Draw a
        non-losing move, of the lowest successor index if several tie.
        """
        choice = self._choice(index)
        return None if choice is None else self.graph.move(index, *choice)

    def principal_line(self, max_plies: int = 10_000) -> tuple[Move, ...]:
        """Forced line from the initial state under the labels."""
        g, idx = self.graph, self.graph.initial
        line: list[Move] = []
        for _ in range(max_plies):
            if (choice := self._choice(idx)) is None:
                break
            line.append(g.move(idx, *choice))
            idx = choice[0]
        return tuple(line)


def solve_normal(graph: GameGraph) -> Labeling:
    """Retrograde analysis of normal play over the full state space.

    One pass over ``succ`` labels the stuck states Loss in 0 and the states
    with a finishing move Win in 1 (queueing the former at the front and the
    latter at the back), and records predecessors for the rest.  The queue
    then holds states in non-decreasing radius, so a state is labelled by
    the first Loss successor it hears of (Win) or by the last of its Win
    successors (Loss), one ply beyond that successor.
    """
    succ, terminal = graph.succ, graph.terminal
    size = len(succ)
    label = [DRAW] * size
    radius: list[float] = [inf] * size
    counter = list(map(len, succ))
    preds: list[list[int]] = [[] for _ in range(size)]
    queue: deque[int] = deque()
    for i, out in enumerate(succ):
        if not out:
            if not terminal[i]:
                label[i], radius[i] = LOSS, 0
                queue.appendleft(i)
        elif any(enters for _, _, enters in out):
            label[i], radius[i] = WIN, 1
            queue.append(i)
        else:
            for nxt, _, _ in out:
                preds[nxt].append(i)
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
    or inf if no line ends it (found by ``build_graph``)."""
    return graph.finish


@dataclass
class SearchResult:
    """Outcome of a depth-bounded scoring search from one state.

    ``values`` counts the (state, budget) values computed.
    """

    bound: int
    win_found: bool
    min_win_plies: int | float
    best_delta: Fraction | None
    line: tuple[Move, ...]
    values: int = 0


class _PlyLayers:
    """The weight-free part of the scoring search on one graph.

    A node is a state, whose last-moved disk fixes the side to move (see
    ``through``), in the graph's ply layers: the first player moves in the
    even ones.  Node 0 is the finished game and node i + 1 is ``order[i]``;
    ``ids[state]`` is a node's id and ``ends[k]`` is one past the last id
    of layer k.  ``rows[k]`` holds layer k's rows of two (successor, edge
    code) slots in an even layer and of one in an odd one.  The graph
    itself is not held, so it and its cache form no reference cycle.
    """

    def __init__(self, succ, order: list[int], layer_ends: list[int]):
        self.succ, self.order = succ, order
        self.ends = [end + 1 for end in layer_ends]
        self.ids: dict[int, int] = {order[0]: 1}
        self.rows: list[list[tuple[int, ...]]] = []

    def through(self, t: int) -> int:
        """Build the rows of the layers below t and the ids of those up to t;
        return one past the last id of layer t.

        Each layer is stored only once whole, so a call cut short (say, by
        an interrupt) leaves the cache as its last finished layer left it.
        """
        order, ends, get = self.order, self.ends, self.ids.get
        while len(self.rows) < min(t, len(ends)):
            # On three pegs a position has the smallest disk's two moves and
            # at most one more, the smaller top between the pegs without
            # disk 1.  From the stack the first player can only move disk 1,
            # so the ban leaves the second player at most that one move; it
            # moves some disk d > 1, and after it that move would take d
            # back, which the ban forbids.  So the first player always
            # moves disk 1 and has at most two moves, the second at most one,
            # and the second is to move exactly where disk 1 moved last.
            # Neither is ever stuck: disk 1 can move unless it just moved,
            # and then the other two pegs hold a disk (a move that gathers
            # every disk on one peg ends the game or is refused), so the
            # smaller top between them can move.
            k = len(self.rows)
            most = 1 if k % 2 else 2
            start, stop = ends[k - 1] if k else 1, ends[k]
            after = ends[k + 1] if k + 1 < len(ends) else stop
            ahead = dict(zip(order[stop - 1 : after - 1], range(stop, after)))  # layer k+1
            rows = []
            for idx in order[start - 1 : stop - 1]:
                out = self.succ[idx]
                if not 0 < len(out) <= most:
                    limit = f"more than {('one', 'two')[most - 1]}" if out else "fewer than one"
                    raise GameError(f"state {idx} has {len(out)} moves, {limit}")
                row = []
                for nxt, code, enters in out:
                    # Node ids start at 1, so a found id is never falsy.
                    row += (0 if enters else get(nxt) or ahead[nxt], code)
                # A single move fills both slots of a first-player row.
                rows.append(tuple(row * (most // len(out))))
            self.ids.update(ahead)
            self.rows.append(rows)
        return ends[min(t, len(ends) - 1)]


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

    Computed bottom-up over the graph's ply layers (rows in ``_PlyLayers``,
    cached on the graph as ``graph.layers`` and extended only as far as a
    bound needs).  ``table[b][node]`` is the first player's net score with
    b plies left, -inf where the end is not forced.  Deepening step t
    extends ``table[t - k]`` with layer k for k = t-1 down to 0: layer k at
    budget b reads layer k+1 at budget b-1, filled just before it, and
    older layers from earlier steps.  Each layer is one pass over its rows:
    the better of two slots in an even layer, one negated in an odd one.
    """
    if cfg.pegs != 3:
        raise GameError("scoring play is analysed on three pegs")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if graph is not None and graph.cfg != cfg:
        raise GameError(f"the graph was built for {graph.cfg}, not for {cfg}")
    g = build_graph(cfg, budget_states) if graph is None else graph
    if g.layers is None:
        g.layers = _PlyLayers(g.succ, g.order, g.layer_ends)
    layers = g.layers
    *gain, mult = w.scaled_integers()  # by edge code: pegs 12, 13, 23
    table = [[0]]  # with no ply left only the end scores
    found = values = 0
    for t in range(1, bound + 1):
        table[0] += [-inf] * (layers.through(t) - len(table[0]))
        table.append([0])
        for k in range(min(t, len(layers.rows)) - 1, -1, -1):
            prev, rows = table[t - k - 1], layers.rows[k]
            if k % 2:
                table[t - k] += [prev[x] - gain[a] for x, a in rows]
            else:
                table[t - k] += [u if (u := gain[a] + prev[x]) > (v := gain[b] + prev[y]) else v
                                 for x, a, y, b in rows]
        values += len(table[1]) - 1
        if table[t][1] > 0:
            found = t
            break

    if not found:
        return SearchResult(bound, False, inf, None, (), values)

    line: list[Move] = []
    idx, side, budget = g.initial, 0, found
    while True:
        target = table[budget][layers.ids[idx]]
        for nxt, code, enters in g.succ[idx]:
            sub = 0 if enters else table[budget - 1][layers.ids[nxt]]
            if (1 - 2 * side) * gain[code] + sub == target:
                break
        else:
            raise AssertionError("line reconstruction lost the search value")
        line.append(g.move(idx, nxt, code))
        if enters:
            break
        idx, side, budget = nxt, 1 - side, budget - 1
    return SearchResult(
        bound=bound,
        win_found=True,
        min_win_plies=found,
        best_delta=Fraction(table[found][1], mult),
        line=tuple(line),
        values=values,
    )


# ---------------------------------------------------------------------------
# Graph export.


def _pos_name(pos: tuple[int, ...], pegs: int) -> str:
    """A position's name: its pegs in disk order, comma-separated from ten
    pegs on, where a peg number takes two digits."""
    return ("," if pegs > 9 else "").join(str(p) for p in pos)


def _minimal_path_edges(cfg: GameConfig) -> set[tuple[str, str]]:
    """Edges of the shortest transfer route (start peg to peg 3 or target)."""
    final = cfg.final_peg or 3
    expr = minimal_transfer(cfg.disks, cfg.start_peg, final)
    # The minimal transfer is a legal line of the to-peg game, so that
    # game's rules resolve the direction of each of its edge moves, and
    # the move they resolve needs no second check.
    walk = GameConfig(cfg.disks, cfg.pegs, Ending.TO_PEG, cfg.start_peg, final)
    state = initial_state(walk)
    marked = set()
    for i, j in expand(expr):
        nxt = _play(state, resolve_direction(state, walk, i, j), walk)
        a, b = sorted([_pos_name(state.pos, cfg.pegs), _pos_name(nxt.pos, cfg.pegs)])
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
        positions = cfg.pegs**cfg.disks
        if positions > budget_states:
            power = f"{cfg.pegs}^{cfg.disks}"
            raise BudgetExceeded(
                f"position space {count_text(positions, power)} exceeds the "
                f"budget of {count_text(budget_states)}"
            )
        names, arcs = [], []
        for pidx, stack, position_moves in _position_moves(cfg):
            names.append(_pos_name(stack[::-1], cfg.pegs))
            arcs += [(pidx, target) for _, _, target, _ in position_moves]
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
