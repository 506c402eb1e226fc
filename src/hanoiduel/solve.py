"""Exhaustive verification: state graphs, retrograde solving, bounded search.

These are the oracles the closed forms are checked against.  States are
packed into a dense index space of size l^n * (n+1) * 4 (position, last
moved disk, the two milestone flags).  The space contains configurations no
play can reach (for example a freshly moved disk buried under a smaller
one).  ``build_graph`` fills the full space, but the solvers label and
search the reachable set alone, by the node ids its search gives (0 for
a terminal state), and every claim the tests check is over that set.

``build_graph`` fills that space one position at a time, in index order.
The size rule depends on a position's signature alone, the top disk of
each peg, so ``_position_moves`` finds each signature's moves once, and
a move of disk d from peg s to peg t adds (t - s) * l^(d-1) to the index
of any position of that signature.  Three pegs at n=7 have 129
signatures for 2,187 positions.  One pass over a signature's moves gives
each move's entry offsets under the four flag values, and each of its
positions adds its base index to them for its four full successor rows.
The (n+1) * 4 states of the position differ only in which disk is
banned, whose moves are one contiguous run of the row, cut out by
C-level slice getters mapped over the four full rows (``_banned_runs``),
and in whether a move that completes the tower meets the ending.  That
filter is needed only at the near-complete positions, where disk n's
peg holds at least n - 1 disks (39 of the 2,187), and they take a path
of their own, which builds their rows from their moves.  No
``GameState`` is built on the way.  One breadth-first search over the
filled graph then numbers the reachable states and finds the shortest
finish and the ply layers.  It looks up the node id of every successor
of every reachable state, and keeps them as ``GameGraph.nodes``, the
reachable graph over node ids.  The fill and the search run with the
cyclic garbage collector paused, since none of the tuples they make is
in a cycle (see ``build_graph``).

``solve_normal`` labels each reachable non-terminal state Win/Loss/Draw
for the side to move, with exact forced-play radii (Win: plies to force
the end against best defence; Loss: plies the loser can still hold out).
A move into a terminal state ends the game and the mover wins.  A stuck
mover loses on the spot (radius 0); only unreachable states are stuck on
three pegs.  The reachable set is closed under moves, so a state's label
depends on reachable states alone; unreachable states get no label.  It
reads ``nodes`` alone: a finishing move is node 0, and predecessors are
node ids.

``bounded_scoring_search`` answers: can the first player force the game to
end with a strictly positive score within a given number of plies?  The
second player is happy to stall, so running out of budget counts as
failure for the first player.  Weights are scaled to integers once.  On
three pegs the second player never chooses and never ends the game: a
reachable non-terminal state has one or two moves, exactly one where the
second player moves, and only disk 1, which the second player never
moves, can complete the stack.  So every line that ends the game has odd
length, and a win within an even budget is a win within one ply less.
The search keeps rows for the first player's states alone, each slot
naming the first player's state after a move and its forced reply (or
the finished game) with the net gain of both plies, and it deepens over
odd budgets only, filling one table per odd budget bottom-up over
``build_graph``'s even ply layers.  A state that cannot finish within
its budget is -inf whatever the weights, so the search computes only the
(state, budget) pairs whose budget covers the state's fewest plies to a
finish; most pairs of a deep bound are not.  Those distances, the rows
and a numbering that puts the states that finish soonest first in each
layer do not depend on the weights: they form the graph's search plan,
built once per graph and kept on it.  The plan keeps no schedule of
which pairs to compute: each layer's distances ascend in the numbering,
so at each budget one bisection per layer finds the states that can
finish in time.  Values of earlier budgets are kept, so scanning is
cheap.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, combinations, filterfalse, product
from math import inf
from operator import add, itemgetter
from typing import NamedTuple

from .core import (
    Board,
    Ending,
    GameConfig,
    GameError,
    Move,
    Weights,
    _ending_satisfied,
    _moves_on,
    count_text,
    initial_state,
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
    from ``initial`` numbers the reachable states in ``ids``: ``order``
    lists the non-terminal ones as found, ``order[i]`` is node i + 1, and
    a reachable state is terminal exactly when it is node 0.  ``reachable``
    is the view ``ids.keys()``.  Layer k, the states first reached after k
    plies, ends before index ``layer_ends[k]`` of ``order``; ``finish`` is
    the fewest plies of any line that ends the game (inf if none does).
    ``nodes[v]`` lists node v's successors as node ids, in ``succ`` order,
    with 0 for a move that ends the game (``nodes[0]`` is empty): the
    search of ``build_graph`` looks each one up and keeps what it finds.
    A graph made another way, such as ``dataclasses.replace`` with a new
    ``succ``, has none until ``node_succ`` derives it.  ``plan`` holds the
    scoring search's weight-free plan (``SearchPlan``), built by the first
    search on the graph and kept.
    """

    cfg: GameConfig
    edges: tuple[tuple[int, int], ...]
    succ: list[tuple[tuple[int, int, bool], ...]]
    initial: int
    ids: dict[int, int]
    finish: float
    order: list[int]
    layer_ends: list[int]
    nodes: list[tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)
    plan: SearchPlan | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def total_states(self) -> int:
        return len(self.succ)

    @property
    def reachable(self):
        return self.ids.keys()

    @property
    def reachable_count(self) -> int:
        return len(self.ids)

    def move(self, index: int, target: int, code: int) -> Move:
        """The move from state ``index`` to ``target`` along edge ``code``:
        a move to a higher peg raises the position index (``_position_moves``)."""
        a, b = self.edges[code]
        block = 4 * (self.cfg.disks + 1)
        return _moves_on(self.cfg.pegs)[(a, b) if target // block > index // block else (b, a)]

    def node_succ(self) -> list[tuple[int, ...]]:
        """``nodes``, derived from ``succ`` and ``ids`` and kept if the graph
        has none yet; a derivation cut short keeps nothing."""
        if self.nodes is None:
            ids, succ = self.ids, self.succ
            self.nodes = [(), *(tuple([ids[x] for x, _, _ in succ[i]]) for i in self.order)]
        return self.nodes


@cache
def _edge_codes(pegs: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, int], ...]]:
    """The peg pairs in ``combinations`` order, each pair's place in it
    being its edge code, and (source, target, edge code) of every move in
    (source, target) order."""
    edges = tuple(combinations(range(1, pegs + 1), 2))
    codes = {pair: code for code, pair in enumerate(edges)}
    return edges, tuple((s, t, codes[min(s, t), max(s, t)]) for s, t in _moves_on(pegs))


class _Kernel(NamedTuple):
    """The size-rule moves of every position, kept per signature.

    A position's signature is the top disk of each peg: ``tops[g][p]`` is
    peg p's top disk under signature g (0 for an empty peg; slot 0 is
    unused), and ``sig[i]`` is the signature of position index i.
    ``moves[g]`` holds (disk, edge code, index offset, target peg) for each
    move of a top disk onto an empty peg or a larger disk, in (source,
    target) order; the move leads from position i to position i + offset.
    ``near`` maps each near-complete position, where disk n's peg holds at
    least n - 1 disks, to its moves, each with the peg it completes the
    tower onto (-1 if it does not) in place of its target peg, and to the
    peg that holds all n disks (0 if none does).  No move of any other
    position completes the tower.
    """

    tops: list[tuple[int, ...]]
    moves: list[list[tuple[int, int, int, int]]]
    sig: list[int]
    near: dict[int, tuple[list[tuple[int, int, int, int]], int]]


def _position_moves(cfg: GameConfig) -> _Kernel:
    """The size-rule moves of every position, found once per signature.

    Position index i counts disk d on peg p as (p - 1) * l^(d-1), so moving
    disk d from peg s to peg t adds (t - s) * l^(d-1) to it, and one scan
    of a signature's pegs serves all of its positions.  The signatures are
    found a disk at a time: disk k joins the positions of disks 1..k-1 as
    their slowest digit, and tops its peg only if that peg was empty.  So
    each signature of disks 1..k-1 stays one of disks 1..k, a new one is
    made per (signature, empty peg) pair, and a C-level map carries the
    positions over.  Three pegs at n=7 have 129 signatures for 2,187
    positions, and four pegs at n=5 have 292 for 1,024.  The l * (1 +
    (n - 1) * (l - 1)) near-complete positions get their completing moves
    one by one.
    """
    n, pegs = cfg.disks, cfg.pegs
    pairs = _edge_codes(pegs)[1]
    place = [0] + [pegs ** (d - 1) for d in range(1, n + 1)]
    tops = [(0,) * p + (1,) + (0,) * (pegs - p) for p in range(1, pegs + 1)]
    sig = list(range(pegs))
    for k in range(2, n + 1):
        old = len(tops)
        joined: list[int] = []
        for p in range(1, pegs + 1):
            step = list(range(old))
            for g in range(old):
                top = tops[g]
                if not top[p]:
                    step[g] = len(tops)
                    tops.append(top[:p] + (k,) + top[p + 1:])
            joined += map(step.__getitem__, sig)
        sig = joined
    moves = []
    for top in tops:
        row = []
        for s, t, code in pairs:
            # The size rule: a top disk moves onto an empty peg or a larger disk.
            d = top[s]
            if d and not 0 < top[t] < d:
                row.append((d, code, (t - s) * place[d], t))
        moves.append(row)
    # Disk n on peg p with every other disk, or with all but disk d, which
    # sits on peg q; a move completes the tower onto a peg holding n - 1
    # disks.
    near = {}
    rest = n - 1
    for p in range(1, pegs + 1):
        tower = (p - 1) * sum(place)
        for d, q in [(n, p)] + [(d, q) for d in range(1, n) for q in range(1, pegs + 1) if q != p]:
            held = [0] * (pegs + 1)
            held[p] = rest
            held[q] += 1
            pidx = tower + (q - p) * place[d]
            near[pidx] = (
                [
                    (disk, code, offset, t if held[t] == rest else -1)
                    for disk, code, offset, t in moves[sig[pidx]]
                ],
                p if d == n else 0,
            )
    return _Kernel(tops, moves, sig, near)


@cache
def _banned_runs(
    disks: tuple[int, ...],
) -> tuple[tuple[int, int, itemgetter, itemgetter | None], ...]:
    """Where each moving disk's moves lie in a position's successor row.

    ``disks`` names the disk of each move in (source, target) order.  A
    disk moves from one source peg only, so its moves are one run [i, j)
    of the row.  Returns (4 * disk, 4 * disk + 4, head, tail) per moving
    disk: the slots of the states that banned that disk in the position's
    block, and C-level getters of what their rows keep.  A run at either
    end of the row leaves one slice, ``head``, and ``tail`` is None; a run
    inside it leaves ``head`` and ``tail``, joined by ``operator.add``.
    """
    runs: dict[int, list[int]] = {}
    for k, disk in enumerate(disks):
        runs.setdefault(disk, [k, k])[1] = k + 1
    cuts = []
    for d, (i, j) in runs.items():
        if i == 0:
            head, tail = itemgetter(slice(j, None)), None
        elif j == len(disks):
            head, tail = itemgetter(slice(i)), None
        else:
            head, tail = itemgetter(slice(i)), itemgetter(slice(j, None))
        cuts.append((4 * d, 4 * d + 4, head, tail))
    return tuple(cuts)


def build_graph(cfg: GameConfig, budget_states: int = 10**8) -> GameGraph:
    """Materialise the full state graph (guarded by ``budget_states``).

    A per-signature move kernel: the positions with the same top disk on
    every peg share one scan of the size rule (``_position_moves``).
    Moving disk d makes d the last-moved disk and raises the flags if d is
    the largest or the smallest disk, so one pass over a signature's
    moves gives each move's entry offsets under all four flag values, and
    each of its positions adds its base index to them for its four full
    rows.  A state whose last-moved disk has moves here drops that disk's
    run of its row (``_banned_runs``); every other state of the same flags
    shares the full row's tuple.  The stack is complete, or one move can
    complete it, only at the near-complete positions, where disk n's peg
    holds at least n - 1 disks; each of them takes a path of its own,
    where a finished state keeps no move and a completing move stays only
    where the ending holds after it (it then enters a terminal state).
    States without a move share the empty tuple.  The breadth-first
    search that follows fills ``ids``, ``order``, ``layer_ends``,
    ``finish`` and ``nodes``.

    The fill and the search run with CPython's cyclic garbage collector
    paused.  None of the tuples they make is in a reference cycle, yet
    each collection during the build walks them.  A collection untracks a
    tuple only if the entries are untracked when it gets there, and it
    gets to each successor row before the row's entries, so every row
    outlives the first collection that sees it and moves to an older
    generation.  At four pegs, n=5, one full collection per
    ``normal-oracle`` round came of that, and collected nothing.  The
    pause is process-wide: it holds for every thread while the build
    runs.  A ``finally`` restores the state the build found, enabled or
    disabled, so a build that raises leaves the collector as it was.  The
    collection the pause defers is not skipped: the first allocation after
    the build runs it, once, over everything the build made.
    """
    size = state_space(cfg)
    if size > budget_states:
        power = f"{cfg.pegs}^{cfg.disks} * {(cfg.disks + 1) * 4}"
        raise BudgetExceeded(
            f"state space {count_text(size, power)} exceeds the budget of "
            f"{count_text(budget_states)}"
        )
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _walk(cfg, _fill(cfg))
    finally:
        if enabled:
            gc.enable()


def _fill(cfg: GameConfig) -> list[tuple[tuple[int, int, bool], ...]]:
    """The successor row of every state of the dense index space, in
    index order (see ``build_graph``)."""
    n, pegs = cfg.disks, cfg.pegs
    # A state's flag bits f = 2*largest + smallest are its index mod 4;
    # moving disk d sets the bits in ``raises[d]``, and ``lift[d][f]`` is
    # where the move lands in the target position's block.
    ends = [None] + [
        [_ending_satisfied(cfg, peg, f >= 2, f % 2 == 1) for f in range(4)]
        for peg in range(1, pegs + 1)
    ]
    raises = [0] + [2 * (d == n) + (d == 1) for d in range(1, n + 1)]
    lift = [[4 * d + (f | raises[d]) for f in range(4)] for d in range(n + 1)]
    block = 4 * (n + 1)
    kernel = _position_moves(cfg)
    moves, near = kernel.moves, kernel.near
    # Each signature's entry offsets under the four flag values, with the
    # edge code, and the banned runs of its moving disks, for the
    # signatures of the positions off the near-complete ones (none for
    # n <= 2).  They are all made before the first row: made on first use,
    # between the rows, they raised the peak memory of a normal-play
    # benchmark process by about 0.2 MB (2-vCPU VM, Python 3.11).
    wanted = kernel.sig.copy()
    for pidx in near:
        wanted[pidx] = -1
    table = {
        g: (
            [
                (x + f0, x + f1, x + f2, x + f3, code)
                for disk, code, offset, _ in moves[g]
                for x, (f0, f1, f2, f3) in ((offset * block, lift[disk]),)
            ],
            _banned_runs(tuple([disk for disk, _, _, _ in moves[g]])),
        )
        for g in set(wanted) - {-1}
    }
    succ: list[tuple[tuple[int, int, bool], ...]] = []
    for pidx, g in enumerate(kernel.sig):
        hit = near.get(pidx)
        if hit is None:
            entries, cuts = table[g]
            base = pidx * block
            rows = list(zip(*[
                ((base + e0, code, False), (base + e1, code, False),
                 (base + e2, code, False), (base + e3, code, False))
                for e0, e1, e2, e3, code in entries
            ]))
        else:
            completes, whole = hit
            disks, *rows = zip(*[
                (disk, (x + f0, code, e), (x + f1, code, e), (x + f2, code, e), (x + f3, code, e))
                for disk, code, offset, t in completes
                for x, (f0, f1, f2, f3), e in (((pidx + offset) * block, lift[disk], t >= 0),)
            ])
            cuts = _banned_runs(disks)
        out = rows * (n + 1)
        for lo, hi, head, tail in cuts:
            out[lo:hi] = map(add, map(head, rows), map(tail, rows)) if tail else map(head, rows)
        if hit is not None:
            # A completing move's entry names its ending flags, so one set
            # of refused entries serves all four rows.
            refused = {
                row[k]
                for k, (disk, _, _, t) in enumerate(completes)
                if t >= 0
                for f, row in enumerate(rows)
                if not ends[t][f | raises[disk]]
            }
            if refused:
                kept = {row: tuple(filterfalse(refused.__contains__, row)) for row in set(out)}
                out = [kept[row] for row in out]
            if whole:
                for f in range(4):
                    if ends[whole][f]:
                        out[f::4] = [()] * (n + 1)
        succ += out
    return succ


def _walk(cfg: GameConfig, succ: list[tuple[tuple[int, int, bool], ...]]) -> GameGraph:
    """One breadth-first search, a layer at a time, over the filled graph:
    it numbers the reachable states and finds the finish (the first move
    found into a terminal state, as only those end the game), the ply
    layers and every reachable state's successors as node ids."""
    init_idx = state_index(initial_state(cfg), cfg)
    ids, order, layer_ends, finish = {init_idx: 1}, [init_idx], [], inf
    nodes: list[tuple[int, ...]] = [()]
    start = 0
    while start < len(order):
        layer_ends.append(len(order))
        for here in order[start:]:
            row = []
            for nxt, _, enters in succ[here]:
                node = ids.get(nxt)
                if node is None:
                    if enters:
                        node = ids[nxt] = 0
                        finish = min(finish, len(layer_ends))
                    else:
                        order.append(nxt)
                        node = ids[nxt] = len(order)
                row.append(node)
            nodes.append(tuple(row))
        start = layer_ends[-1]
    graph = GameGraph(
        cfg=cfg,
        edges=_edge_codes(cfg.pegs)[0],
        succ=succ,
        initial=init_idx,
        ids=ids,
        finish=finish,
        order=order,
        layer_ends=layer_ends,
    )
    graph.nodes = nodes
    return graph


WIN, LOSS, DRAW = 1, 2, 0


@dataclass
class Labeling:
    """Win/Loss/Draw labels and forced-play radii for the side to move.

    ``node_label`` and ``node_radius`` cover the reachable states only and
    are indexed by ``graph.ids``: node i + 1 is ``graph.order[i]``, and
    node 0, every terminal state, stays Draw at radius inf.  The queries
    below take a dense state index and refuse one that no play reaches.
    """

    graph: GameGraph
    node_label: list[int]
    node_radius: list[float]

    def _node(self, index: int) -> int:
        try:
            return self.graph.ids[index]
        except KeyError:
            raise GameError(f"state {index} is not reachable") from None

    def label_of(self, index: int) -> str:
        node = self._node(index)
        if node == 0:
            return "Terminal"
        return {WIN: "Win", LOSS: "Loss", DRAW: "Draw"}[self.node_label[node]]

    @property
    def initial_label(self) -> str:
        return self.label_of(self.graph.initial)

    @property
    def initial_radius(self) -> float:
        return self.node_radius[self.graph.ids[self.graph.initial]]

    def _choice(self, index: int) -> tuple[int, int] | None:
        """The (successor, edge code) of ``best_move``, None if it has none."""
        label, radius = self.node_label, self.node_radius
        here = self._node(index)
        moves = zip(self.graph.succ[index], self.graph.node_succ()[here])
        if label[here] == WIN:
            return next(((nxt, code) for (nxt, code, _), v in moves if v == 0 or (
                label[v] == LOSS and radius[v] + 1 == radius[here])), None)
        if label[here] == LOSS:
            options = [(-radius[v], nxt, code) for (nxt, code, _), v in moves]
        else:
            options = [(0, nxt, code) for (nxt, code, _), v in moves if v and label[v] == DRAW]
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
    """Retrograde analysis of normal play over the reachable states.

    Labels ``graph.order``, the reachable non-terminal states, in lists
    indexed by their node ids; node 0, the finished game, stays Draw at
    radius inf.  One pass over ``graph.nodes`` labels the stuck states
    Loss in 0 and those with a move to node 0 Win in 1 (queued at the
    front and at the back), and records predecessors for the rest.  The
    queue then holds nodes in non-decreasing radius, so a state is
    labelled by the first Loss successor it hears of (Win) or by the last
    of its Win successors (Loss), one ply beyond that successor.
    """
    nodes = graph.node_succ()
    size = len(nodes)
    label = [DRAW] * size
    radius: list[float] = [inf] * size
    counter = [0] * size
    preds: list[list[int]] = [[] for _ in range(size)]
    queue: deque[int] = deque()
    for here in range(1, size):
        out = nodes[here]
        if not out:
            label[here], radius[here] = LOSS, 0
            queue.appendleft(here)
        elif 0 in out:
            label[here], radius[here] = WIN, 1
            queue.append(here)
        else:
            counter[here] = len(out)
            for nxt in out:
                preds[nxt].append(here)
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
    return Labeling(graph=graph, node_label=label, node_radius=radius)


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

    ``values`` counts the (state, budget) pairs the answer depends on, the
    ones that cannot finish being -inf without work: as many as the
    recursive memo search of the tests holds, ``layer_ends[min(t - 1,
    L - 1)]`` summed over the budgets t scanned, for L ply layers.
    """

    bound: int
    win_found: bool
    min_win_plies: int | float
    best_delta: Fraction | None
    line: tuple[Move, ...]
    values: int = 0


@dataclass(frozen=True)
class SearchPlan:
    """The scoring search's view of a graph, which no weight changes.

    ``dist[v]`` is the fewest plies from node v (``GameGraph.ids``) to a
    finish, inf if no line from v ends the game.  Only the first player's
    nodes, the even ply layers, have search numbers: node v is ``pos[v]``
    (0 for the finished game and for the second player's nodes), and
    inside each layer the numbers follow ``dist`` (a stable sort).  Even
    layer 2j holds the numbers ``ends[j - 1] + 1`` through ``ends[j]``, and
    ``need[s]`` is the ``dist`` of search number s (0 for the finished
    game), so ``need`` is ascending within each layer.  ``rows[s]`` is the
    row of search number s, two (search number, pair code) slots, one per
    move: the number of the first player's node that the move and the
    forced reply lead to, with code 4 * move edge + reply edge, or 0, the
    finished game, with code 4 * move edge + 3 for a move that ends the
    game.  A single move fills both slots.
    """

    dist: list[float]
    pos: list[int]
    rows: list[tuple[int, ...]]
    ends: list[int]
    need: list[float]


def _search_plan(g: GameGraph) -> SearchPlan:
    """Check each row's shape, find ``dist`` by one backward breadth-first
    search from the finished game, and number and row the first player's
    nodes by it."""
    ends, ids, succ, order = g.layer_ends, g.ids, g.succ, g.order
    nodes = g.node_succ()
    size = len(nodes)
    bounds = list(zip([0] + ends, ends))
    preds: list[list[int]] = [[] for _ in range(size)]
    for k, (lo, hi) in enumerate(bounds):
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
        # smaller top between them can move.  Only disk 1 can complete
        # the stack, so the second player never ends the game.
        most = 2 - k % 2
        for node, idx in enumerate(order[lo:hi], lo + 1):
            out = nodes[node]
            if not 0 < len(out) <= most:
                limit = f"more than {('one', 'two')[most - 1]}" if out else "fewer than one"
                raise GameError(f"state {idx} has {len(out)} moves, {limit}")
            if most == 1 and 0 in out:
                raise GameError(f"the second player's move from state {idx} ends the game")
            for nxt in out:
                preds[nxt].append(node)
    dist: list[float] = [inf] * size
    dist[0] = 0
    queue = [0]
    for here in queue:
        for p in preds[here]:
            if dist[p] == inf:
                dist[p] = dist[here] + 1
                queue.append(p)
    layers = [sorted(range(lo + 1, hi + 1), key=dist.__getitem__) for lo, hi in bounds[::2]]
    nodes = [0, *chain.from_iterable(layers)]
    pos = [0] * size
    for s, node in enumerate(nodes):
        pos[node] = s
    rows: list[tuple[int, ...]] = [()]
    for node in nodes[1:]:
        out = succ[order[node - 1]]
        row = [x for nxt, code, enters in out
               for later, reply in ((nxt, 3) if enters else succ[nxt][0][:2],)
               for x in (pos[ids[later]], 4 * code + reply)]
        rows.append(tuple(row * (2 // len(out))))
    return SearchPlan(dist=dist, pos=pos, rows=rows, ends=list(accumulate(map(len, layers))),
                      need=[dist[node] for node in nodes])


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

    On three pegs the second player has one move and never ends the game
    (``_search_plan`` refuses a graph where either fails), so a line that
    ends the game has odd length and the value of an even budget is that
    of the odd budget below it: the least winning t is odd.  The search
    deepens over odd t alone, in the search numbers of ``graph.plan``
    (built on the first search), over the first player's nodes.  The table
    of odd budget b holds the first player's net score with b plies left
    at each search number, 0 at 0 (the finished game) and -inf where the
    end is not forced.  A node v cannot finish within b plies when
    ``dist[v] > b``, whatever the weights, and it can when ``dist[v] <=
    b``.  So the tables start at -inf and only pairs with layer + dist <=
    t are computed: deepening step t walks the even layers 2j down from
    j = (t - 1) // 2 (or the last layer) to 0, and fills the table of
    budget b = t - 2j for the prefix of the layer whose ``need`` is at
    most b, found by bisection, as ``need`` ascends within a layer; a
    layer whose least ``need`` exceeds b is skipped.
    A row at budget b takes the better of its two slots, each the pair's
    net gain plus the table of budget b - 2 at the slot's node: layer 2j
    + 2 was filled just before it, older layers at earlier steps, and the
    table of budget -1 is -inf but for the finished game.  ``values``
    still counts every budget up to the win, even ones included.
    """
    if cfg.pegs != 3:
        raise GameError("scoring play is analysed on three pegs")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if graph is not None and graph.cfg != cfg:
        raise GameError(f"the graph was built for {graph.cfg}, not for {cfg}")
    g = build_graph(cfg, budget_states) if graph is None else graph
    if g.plan is None:
        g.plan = _search_plan(g)
    plan = g.plan
    rows, ends, need = plan.rows, plan.ends, plan.need
    last = len(ends) - 1
    starts = [1] + [end + 1 for end in ends]
    *gain, mult = w.scaled_integers()  # by edge code: pegs 12, 13, 23
    # The net gain of a move and its reply by pair code; 3 is no reply.
    pair = [gain[a] - gain[c] if c < 3 else gain[a] for a in range(3) for c in range(4)]
    # ``tables[i]`` is the table of budget 2i - 1.  No step fills the one
    # of budget -1: rows at budget 1 read it, and there only a move that
    # ends the game scores.  A table holds the layers that read it on
    # the steps up to ``top``, the last odd budget.
    top = bound - 1 + bound % 2
    tables: list[list[float]] = []
    found = 0
    for t in range(-1, bound + 1, 2):
        table = [-inf] * (ends[min((top - t) // 2, last)] + 1)
        table[0] = 0
        tables.append(table)
        for j in range(min((t - 1) // 2, last), -1, -1):
            b, lo = t - 2 * j, starts[j]
            if need[lo] > b:
                continue
            hi = bisect_right(need, b, lo, starts[j + 1])
            i = (t + 1) // 2 - j
            prev = tables[i - 1]
            tables[i][lo:hi] = [u if (u := pair[a] + prev[x]) > (v := pair[c] + prev[y]) else v
                                for x, a, y, c in rows[lo:hi]]
        if table[1] > 0:
            found = t
            break

    # layer_ends[min(t - 1, L - 1)] summed over t = 1 .. the last budget.
    plies = g.layer_ends
    stop = found or bound
    values = sum(plies[:stop]) + max(stop - len(plies), 0) * plies[-1]
    if not found:
        return SearchResult(bound, False, inf, None, (), values)

    line: list[Move] = []
    pos, ids, succ = plan.pos, g.ids, g.succ
    idx, i = g.initial, len(tables) - 1
    while True:
        target, prev = tables[i][pos[ids[idx]]], tables[i - 1]
        for nxt, code, enters in succ[idx]:
            later, reply = (nxt, 3) if enters else succ[nxt][0][:2]
            if pair[4 * code + reply] + prev[pos[ids[later]]] == target:
                break
        else:
            raise AssertionError("line reconstruction lost the search value")
        line.append(g.move(idx, nxt, code))
        if enters:
            break
        line.append(g.move(nxt, later, reply))
        idx, i = later, i - 1
    return SearchResult(
        bound=bound,
        win_found=True,
        min_win_plies=found,
        best_delta=Fraction(tables[-1][1], mult),
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
    # game's rules resolve the direction of each of its edge moves on one
    # stepped board, and the move they resolve needs no second check.
    walk = GameConfig(cfg.disks, cfg.pegs, Ending.TO_PEG, cfg.start_peg, final)
    board = Board(initial_state(walk), walk)
    name = _pos_name(board.pos, cfg.pegs)
    marked = set()
    for i, j in expand(expr):
        board.step(board.direction(i, j))
        nxt = _pos_name(board.pos, cfg.pegs)
        marked.add((min(name, nxt), max(name, nxt)))
        name = nxt
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
    An unknown ``fmt`` is refused before anything is built.
    """
    if fmt not in ("dot", "json"):
        raise ValueError(f"unknown format {fmt!r}")
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
        kernel = _position_moves(cfg)
        # ``product`` counts with its first item, disk n's peg, slowest.
        names = [
            _pos_name(stack[::-1], cfg.pegs)
            for stack in product(range(1, cfg.pegs + 1), repeat=cfg.disks)
        ]
        arcs = [
            (pidx, pidx + offset)
            for pidx, g in enumerate(kernel.sig)
            for _, _, offset, _ in kernel.moves[g]
        ]
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
            "terminal": [i for i in reachable if graph.ids[i] == 0],
            "edges": [[a, b, bool(t)] for a, b, t in arcs],
            "counts": {"nodes": len(reachable), "edges": len(arcs)},
        }
        lines = ["digraph states {"]
        for idx in reachable:
            shape = "doublecircle" if graph.ids[idx] == 0 else "circle"
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
    lines.append("}")
    return "\n".join(lines) + "\n"
