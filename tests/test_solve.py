"""Exhaustive solvers and graph exports.

The retrograde solver is itself an oracle for the closed forms, so it
gets its own independent cross-check here: a naive fixpoint iteration
written directly against the rules API, with no shared code beyond
``legal_moves``/``apply_move``.
"""

import dataclasses
import gc
import hashlib
import json
import random
from array import array
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import inf

import pytest

from hanoiduel import (
    BudgetExceeded,
    Ending,
    GameConfig,
    GameError,
    Move,
    Weights,
    apply_move,
    bounded_scoring_search,
    build_graph,
    export_graph,
    initial_state,
    is_terminal,
    legal_moves,
    shortest_forced_win,
    solve_normal,
)

from hanoiduel import solve
from hanoiduel.core import state_from_index, state_index
from hanoiduel.notation import atoms_to_expr, replay
from hanoiduel.solve import DRAW, LOSS, WIN, shortest_finish

from helpers import (
    applicable_endings,
    needs_default_int_limit,
    reference_bounded_scoring_search,
    reference_graph,
    reference_labels,
    top_disk,
)


def naive_radius(cfg):
    """Forced-end distance from the initial state by plain iteration."""
    init = initial_state(cfg)
    seen = {init}
    frontier = [init]
    succ = {}
    while frontier:
        nxt = []
        for s in frontier:
            if is_terminal(s, cfg):
                succ[s] = None
                continue
            outs = [apply_move(s, m, cfg) for m in legal_moves(s, cfg)]
            succ[s] = outs
            for t in outs:
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    radius = {s: inf for s in seen}
    for _ in range(len(seen) + 2):
        changed = False
        for s in seen:
            outs = succ[s]
            if outs is None:
                continue
            best = inf
            for t in outs:
                if succ[t] is None:
                    cand = 1
                else:
                    replies = succ[t]
                    if not replies:
                        cand = 1  # opponent stuck, cannot answer
                    elif any(succ[u] is None for u in replies):
                        cand = inf  # opponent escapes by finishing
                    elif all(radius[u] < inf for u in replies):
                        cand = 2 + max(radius[u] for u in replies)
                    else:
                        cand = inf
                best = min(best, cand)
            if best < radius[s]:
                radius[s] = best
                changed = True
        if not changed:
            break
    return radius[init]


def kernel_boards():
    """Every applicable ending on 3 pegs n <= 5, 4 pegs n <= 3, 5 pegs n <= 2,
    plus boards whose start (and, for to-peg, final) peg is not the default."""
    boards = []
    for pegs, most in ((3, 5), (4, 3), (5, 2)):
        for disks in range(1, most + 1):
            for ending in applicable_endings(disks):
                boards.append(GameConfig(disks, pegs, ending))
            boards.append(GameConfig(disks, pegs, Ending.TO_PEG, pegs, 2))
            boards.append(GameConfig(disks, pegs, Ending.ANY_SMALLEST, 2))
            if disks > 1:
                boards.append(GameConfig(disks, pegs, Ending.RETURN_LARGEST, pegs))
    return [
        pytest.param(cfg, id=f"{cfg.pegs}p-{cfg.disks}n-e{int(cfg.ending)}"
                     f"-{cfg.start_peg}to{cfg.final_peg or '_'}")
        for cfg in boards
    ]


class TestGraph:
    @pytest.mark.parametrize("cfg", kernel_boards())
    def test_matches_state_by_state_builder(self, cfg):
        graph = build_graph(cfg)
        ref = reference_graph(cfg)
        moves = ref.pop("moves")
        terminal = ref.pop("terminal")
        for field, value in ref.items():
            assert getattr(graph, field) == value, field
        assert [
            tuple(graph.move(i, nxt, code) for nxt, code, _ in out)
            for i, out in enumerate(graph.succ)
        ] == moves
        assert {s for s in graph.reachable if graph.ids[s] == 0} == {
            s for s in ref["reachable"] if terminal[s]
        }
        labels = solve_normal(graph)
        label, radius = reference_labels(ref["succ"], terminal)
        for i in ref["reachable"]:
            assert labels.label_of(i) == label[i], i
            assert labels.node_radius[graph.ids[i]] == radius[i], i

    def test_state_counts(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        g = build_graph(cfg)
        assert g.total_states == 108
        assert g.initial == 0 or g.initial < 108
        assert 0 < g.reachable_count < 108

    def test_budget(self):
        cfg = GameConfig(disks=8, pegs=4, ending=Ending.TO_PEG)
        with pytest.raises(BudgetExceeded):
            build_graph(cfg, budget_states=1000)

    def test_reachable_closed_under_moves(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.ANY_LARGEST)
        g = build_graph(cfg)
        for idx in g.reachable:
            for tgt, _, _ in g.succ[idx]:
                assert tgt in g.reachable

    @pytest.mark.parametrize("pegs,disks", [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3)])
    def test_shortest_finish_matches_plain_search(self, pegs, disks):
        for ending in applicable_endings(disks):
            cfg = GameConfig(disks=disks, pegs=pegs, ending=ending)
            depth, frontier, seen = 0, [initial_state(cfg)], set()
            while frontier and not any(is_terminal(s, cfg) for s in frontier):
                seen.update(frontier)
                frontier = {
                    apply_move(s, m, cfg) for s in frontier for m in legal_moves(s, cfg)
                } - seen
                depth += 1
            expected = depth if frontier else inf
            assert shortest_finish(build_graph(cfg)) == expected, cfg

    @pytest.mark.parametrize("cfg", kernel_boards())
    def test_shortest_finish_on_every_kernel_board(self, cfg):
        # The finish comes out of the graph's own breadth-first search; a
        # plain one over the rules API must find the same ply.
        depth, level, seen = 0, {initial_state(cfg)}, set()
        expected = inf
        while level:
            seen |= level
            if any(is_terminal(apply_move(s, m, cfg), cfg)
                   for s in level for m in legal_moves(s, cfg)):
                expected = depth + 1
                break
            level = {
                apply_move(s, m, cfg) for s in level for m in legal_moves(s, cfg)
            } - seen
            depth += 1
        graph = build_graph(cfg)
        assert graph.finish == shortest_finish(graph) == expected

    def test_shortest_finish_of_return_largest(self):
        # 2^n + 7 from three disks on, the forced-win radius too.
        for disks, plies in [(2, 7), (3, 15), (4, 23), (5, 39)]:
            cfg = GameConfig(disks=disks, pegs=3, ending=Ending.RETURN_LARGEST)
            assert shortest_finish(build_graph(cfg)) == plies


def _graph_digest(graph):
    """sha256 of the dense successor list and of the search's fields."""
    flat = chain.from_iterable
    digest = hashlib.sha256()
    for ints in (
        map(len, graph.succ),
        flat(flat(graph.succ)),
        flat(sorted(graph.ids.items())),
        graph.order,
        graph.layer_ends,
    ):
        digest.update(array("q", ints))
    digest.update(repr((graph.initial, graph.finish)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "pegs,disks,digest",
    [
        pytest.param(3, 6, "0fab5d1ee2740f8251187a01efe92864404a68381be701a8ba0b2057dd26878b", id="3p-6n"),
        pytest.param(3, 7, "f9bef1a6800f58c074d2c45c1e6a127659c3ec8fdbb9d34ad5be8dcd8d66100c", id="3p-7n"),
        pytest.param(4, 4, "d109b47f65d4352a57c811556006444f79614028c47670d32ad430a5e127de97", id="4p-4n"),
        pytest.param(4, 5, "7cde20636ca1418a3ee2ab849b70c36450a979227fdf7e52e8a0f812ad10353e", id="4p-5n"),
        pytest.param(5, 3, "31d660b55751906b99e96bb8680d94211491ecfcbe417991696fc951286bbe24", id="5p-3n"),
    ],
)
def test_dense_graph_digest(pegs, disks, digest):
    # The boards the normal-play benchmark times, beyond the reach of
    # test_matches_state_by_state_builder: every ending, and to-peg from
    # the last peg to peg 2.  The digests were taken from the state-per-
    # flag fill that preceded the one-pass fill.
    cfgs = [GameConfig(disks, pegs, ending) for ending in applicable_endings(disks)]
    cfgs.append(GameConfig(disks, pegs, Ending.TO_PEG, pegs, 2))
    combined = hashlib.sha256()
    for cfg in cfgs:
        combined.update(_graph_digest(build_graph(cfg)).encode())
    assert combined.hexdigest() == digest


@pytest.mark.parametrize(
    "pegs,disks,most",
    [pytest.param(3, 7, 26_217, id="3p-7n"), pytest.param(4, 5, 15_613, id="4p-5n")],
)
def test_dense_graph_shares_successor_tuples(pegs, disks, most):
    # States of one position and one flag value share their full row, so
    # the graph holds far fewer tuples than states; ``most`` is the count
    # of the state-per-flag fill, and a fill that shares less would cost
    # memory on every build.
    graph = build_graph(GameConfig(disks, pegs, Ending.TO_PEG))
    assert len(set(map(id, graph.succ))) <= most < graph.total_states


class TestNormalSolve:
    @pytest.mark.parametrize("disks", [1, 2, 3, 4, 5])
    def test_matches_naive_fixpoint_three_pegs(self, disks):
        for ending in applicable_endings(disks):
            cfg = GameConfig(disks=disks, pegs=3, ending=ending)
            assert shortest_forced_win(cfg) == naive_radius(cfg), (disks, ending)

    @pytest.mark.parametrize("disks", [1, 2])
    def test_matches_naive_fixpoint_four_pegs(self, disks):
        for ending in applicable_endings(disks):
            cfg = GameConfig(disks=disks, pegs=4, ending=ending)
            assert shortest_forced_win(cfg) == naive_radius(cfg), (disks, ending)

    def test_known_radii(self):
        fixtures = [
            (3, Ending.TO_PEG, 7),
            (2, Ending.RETURN_LARGEST, 7),
            (3, Ending.RETURN_LARGEST, 15),
            (4, Ending.RETURN_LARGEST, 23),
            (5, Ending.RETURN_LARGEST, 39),
            (4, Ending.RETURN_SMALLEST, 7),
            (3, Ending.ANY_SMALLEST, 7),
            (4, Ending.ANY_LARGEST, 15),
        ]
        for disks, ending, radius in fixtures:
            cfg = GameConfig(disks=disks, pegs=3, ending=ending)
            assert shortest_forced_win(cfg) == radius, (disks, ending)

    def test_return_largest_eight_disks(self):
        # Return-largest radii on three pegs are 2^n + 7 for n >= 3, not
        # the closed form 2^(n+1) - 1; this pins the solver at n = 8.
        cfg = GameConfig(disks=8, pegs=3, ending=Ending.RETURN_LARGEST)
        graph = build_graph(cfg)
        assert graph.total_states == 236_196
        assert graph.reachable_count == 17_488
        labels = solve_normal(graph)
        assert labels.initial_label == "Win"
        assert labels.initial_radius == 263 == 2**8 + 7

    def test_return_largest_nine_disks(self):
        # The same radius at n = 9, solved over the 52,480 reachable states
        # of the 787,320 alone.
        cfg = GameConfig(disks=9, pegs=3, ending=Ending.RETURN_LARGEST)
        graph = build_graph(cfg)
        assert graph.total_states == 787_320
        assert graph.reachable_count == 52_480
        labels = solve_normal(graph)
        assert labels.initial_label == "Win"
        assert labels.initial_radius == 519 == 2**9 + 7

    @pytest.mark.parametrize("cfg", kernel_boards())
    def test_solve_reads_only_reachable_states(self, cfg):
        # Every unreachable state's moves point past the end of the space,
        # so a pass over the full space would fail on them; the answers on
        # the reachable states must not change.
        graph = build_graph(cfg)
        beyond = ((graph.total_states, 0, False),)
        damaged = dataclasses.replace(graph, succ=[
            out if i in graph.ids else beyond for i, out in enumerate(graph.succ)
        ])
        want, got = solve_normal(graph), solve_normal(damaged)
        assert got.initial_label == want.initial_label
        assert got.initial_radius == want.initial_radius
        assert got.principal_line(max_plies=60) == want.principal_line(max_plies=60)
        for i in graph.ids:
            assert got.label_of(i) == want.label_of(i)
            assert got.best_move(i) == want.best_move(i)

    @pytest.mark.parametrize("pegs,disks", [(3, 6), (3, 7), (4, 4)])
    def test_node_pass_matches_reference_labels(self, pegs, disks):
        # The reference labels by rounds over the same graph, numbered by
        # node id: node 0 is the finished game, node k is order[k - 1].
        names = {WIN: "Win", LOSS: "Loss", DRAW: "Draw"}
        for ending in applicable_endings(disks):
            graph = build_graph(GameConfig(disks=disks, pegs=pegs, ending=ending))
            ids = graph.ids
            succ = [()] + [
                tuple((ids[nxt], code, enters) for nxt, code, enters in graph.succ[i])
                for i in graph.order
            ]
            label, radius = reference_labels(succ, [True] + [False] * len(graph.order))
            lab = solve_normal(graph)
            assert lab.node_radius == radius, ending
            assert ["Terminal"] + [names[x] for x in lab.node_label[1:]] == label, ending
            for i, node in ids.items():
                assert lab.label_of(i) == label[node], (ending, i)

    def test_four_peg_draws(self):
        for disks in (2, 3):
            cfg = GameConfig(disks=disks, pegs=4, ending=Ending.TO_PEG)
            assert shortest_forced_win(cfg) == inf
        cfg = GameConfig(disks=2, pegs=4, ending=Ending.ANY_SMALLEST)
        assert shortest_forced_win(cfg) == 3

    @pytest.mark.parametrize("disks,draws", [(2, 25), (3, 169)])
    def test_draw_moves_keep_the_draw(self, disks, draws):
        # At a Draw state the best move goes to the smallest-index Draw
        # successor, so the principal line never ends.
        cfg = GameConfig(disks=disks, pegs=4, ending=Ending.TO_PEG)
        g = build_graph(cfg)
        lab = solve_normal(g)
        drawn = [i for i in sorted(g.reachable) if lab.label_of(i) == "Draw"]
        assert len(drawn) == draws
        for idx in drawn:
            expected = min(
                nxt for nxt, _, enters in g.succ[idx]
                if not enters and lab.label_of(nxt) == "Draw"
            )
            after = apply_move(state_from_index(idx, cfg), lab.best_move(idx), cfg)
            assert state_index(after, cfg) == expected
        assert len(lab.principal_line(max_plies=40)) == 40

    def test_principal_line_is_playable(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.RETURN_LARGEST)
        g = build_graph(cfg)
        lab = solve_normal(g)
        line = lab.principal_line()
        assert len(line) == lab.initial_radius
        s = initial_state(cfg)
        for mv in line:
            s = apply_move(s, mv, cfg)
        assert is_terminal(s, cfg)

    @pytest.mark.parametrize("cfg", kernel_boards())
    def test_principal_line_on_every_kernel_board(self, cfg):
        # A won start plays its radius and ends the game; a drawn one
        # never ends, so its line runs the full ply allowance.
        lab = solve_normal(build_graph(cfg))
        line = lab.principal_line(max_plies=60)
        state = initial_state(cfg)
        for move in line:
            assert not is_terminal(state, cfg)
            state = apply_move(state, move, cfg)
        if lab.initial_label == "Win":
            assert len(line) == lab.initial_radius
            assert is_terminal(state, cfg)
        else:
            assert lab.initial_label == "Draw"
            assert len(line) == 60
            assert not is_terminal(state, cfg)

    @pytest.mark.parametrize("pegs", [3, 4])
    def test_unreachable_state_is_refused(self, pegs):
        graph = build_graph(GameConfig(disks=3, pegs=pegs, ending=Ending.TO_PEG))
        lab = solve_normal(graph)
        index = next(i for i in range(graph.total_states) if i not in graph.ids)
        for query in (lab.label_of, lab.best_move):
            with pytest.raises(GameError, match=f"^state {index} is not reachable$"):
                query(index)

    def test_stuck_state_loses_at_once(self):
        # No reachable state of a real board is stuck, so one state's moves
        # are taken away: it loses in 0 and a state that moves to it wins in 1.
        graph = build_graph(GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG))
        stuck = graph.order[5]
        lab = solve_normal(dataclasses.replace(graph, succ=[
            () if i == stuck else out for i, out in enumerate(graph.succ)
        ]))
        assert (lab.label_of(stuck), lab.node_radius[graph.ids[stuck]]) == ("Loss", 0)
        pred = next(i for i in graph.order if stuck in (nxt for nxt, _, _ in graph.succ[i]))
        assert (lab.label_of(pred), lab.node_radius[graph.ids[pred]]) == ("Win", 1)

    def test_labels_cover_reachable(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        g = build_graph(cfg)
        lab = solve_normal(g)
        for idx in g.reachable:
            assert lab.label_of(idx) in {"Win", "Loss", "Draw", "Terminal"}


class TestBoundedSearch:
    def test_two_disk_uniform(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        res = bounded_scoring_search(cfg, Weights.of(1, 1, 1), 9)
        assert res.win_found
        assert res.min_win_plies == 3
        assert res.best_delta == 1

    def test_two_disk_zero_weights_never_win(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        res = bounded_scoring_search(cfg, Weights.of(0, 0, 0), 30)
        assert not res.win_found

    def test_three_disk_line(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        res = bounded_scoring_search(cfg, Weights.of(1, 2, 3), 9)
        assert res.win_found and res.min_win_plies == 7
        assert res.best_delta == 2
        s = initial_state(cfg)
        for mv in res.line:
            s = apply_move(s, mv, cfg)
        assert is_terminal(s, cfg)

    def test_deeper_win_via_pumping(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        w = Weights.of(2, 2, -3)
        res = bounded_scoring_search(cfg, w, 30)
        assert res.win_found
        assert res.min_win_plies == 5
        assert res.best_delta >= 7

    def test_memo_freed_without_collector(self):
        # With the cyclic collector off, a search must leave no garbage
        # cycle behind, or each search's memo lives until a full collection.
        cfg = GameConfig(disks=5, pegs=3, ending=Ending.TO_PEG)
        gc.collect()
        gc.disable()
        try:
            result = bounded_scoring_search(cfg, Weights.of(0, -4, 0), 40)
            assert result.win_found
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_graph_of_other_config_rejected(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        other = build_graph(GameConfig(disks=3, pegs=3, ending=Ending.ANY_LARGEST))
        with pytest.raises(GameError, match="graph was built for"):
            bounded_scoring_search(cfg, Weights.of(1, 2, 3), 9, graph=other)
        res = bounded_scoring_search(cfg, Weights.of(1, 2, 3), 9, graph=build_graph(cfg))
        assert res.win_found and res.min_win_plies == 7

    def test_budget_guard(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(BudgetExceeded):
            bounded_scoring_search(cfg, Weights.of(1, 1, 1), 9, budget_states=10)

    def test_state_with_three_moves_rejected(self):
        # Rows hold two moves; a state with more is refused, not truncated.
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        g = build_graph(cfg)
        succ = list(g.succ)
        succ[g.initial] += succ[g.initial][:1]
        with pytest.raises(GameError, match="3 moves, more than two"):
            bounded_scoring_search(cfg, Weights.of(1, 1, 1), 9,
                                   graph=dataclasses.replace(g, succ=succ))

    def test_second_player_with_two_moves_is_refused(self):
        # The second player's rows hold one move; a state with two is
        # refused, not truncated.
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        g = build_graph(cfg)
        succ = list(g.succ)
        after = succ[g.initial][0][0]
        succ[after] += succ[after][:1]
        with pytest.raises(GameError, match="2 moves, more than one"):
            bounded_scoring_search(cfg, Weights.of(1, 1, 1), 9,
                                   graph=dataclasses.replace(g, succ=succ))

    def test_second_player_ending_the_game_is_refused(self):
        # The search folds each reply into the first player's row, which
        # needs the second player never to end the game; a graph where a
        # reply enters a terminal state is refused, not scored.
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        g = build_graph(cfg)
        succ = list(g.succ)
        after = succ[g.initial][0][0]
        done = next(state for state, node in g.ids.items() if node == 0)
        succ[after] = ((done, succ[after][0][1], True),)
        with pytest.raises(GameError, match=f"second player's move from state {after} ends"):
            bounded_scoring_search(cfg, Weights.of(1, 1, 1), 9,
                                   graph=dataclasses.replace(g, succ=succ))

    def test_state_with_no_move_is_refused(self):
        # No reachable non-terminal three-peg state is stuck; one that is
        # is refused, not scored.
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        g = build_graph(cfg)
        succ = list(g.succ)
        succ[succ[g.initial][0][0]] = ()
        with pytest.raises(GameError, match="0 moves, fewer than one"):
            bounded_scoring_search(cfg, Weights.of(1, 1, 1), 9,
                                   graph=dataclasses.replace(g, succ=succ))

    def test_fractional_weights(self):
        from fractions import Fraction

        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        w = Weights.of("1/3", "1/2", "1/6")
        res = bounded_scoring_search(cfg, w, 9)
        assert res.win_found
        # The quick 3-ply finish only breaks even; the first true win
        # takes five plies and nets a full point.
        assert res.min_win_plies == 5
        assert res.best_delta == Fraction(1, 1)


SEARCH_WEIGHTS = [Fraction(k, 2) for k in range(-8, 9)] + [Fraction(1, 3), Fraction(-7, 5)]


def test_search_matches_memo_reference():
    # Every three-peg board with n <= 5 (each ending, start peg and to-peg
    # final peg) against the recursive memo search, for seeded weights and
    # several bounds.  The values computed equal the memo's entries.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, start, final)
        for disks in range(1, 6)
        for ending in applicable_endings(disks)
        for start, final in permutations((1, 2, 3), 2)
    )
    rng = random.Random(8)
    for cfg in boards:
        graph = build_graph(cfg)
        w = Weights(*rng.sample(SEARCH_WEIGHTS, 3))
        for bound in (0, 1, 2, 5, 9, 17, 40, 63):
            result = bounded_scoring_search(cfg, w, bound, graph=graph)
            expected, memo_size = reference_bounded_scoring_search(cfg, w, bound, graph=graph)
            assert result == dataclasses.replace(expected, values=memo_size), (cfg, w, bound)



def _plies_to_finish(graph, start, terminal):
    """Fewest plies from ``start`` to a state in ``terminal``, by a plain
    breadth-first search over ``graph.succ``; inf if none is reached."""
    level, seen, depth = {start}, {start}, 0
    while level:
        if level & terminal:
            return depth
        level = {nxt for s in level for nxt, _, _ in graph.succ[s]} - seen
        seen |= level
        depth += 1
    return inf


def test_search_plan_distance_is_plain_breadth_first():
    # The pruning key: on every three-peg board with n <= 5 (each ending,
    # start peg and to-peg final peg) the plan's ``dist`` of each reachable
    # state is its fewest plies to a finish, found from the state forward,
    # and the root's is the graph's shortest finish.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, start, final)
        for disks in range(1, 6)
        for ending in applicable_endings(disks)
        for start, final in permutations((1, 2, 3), 2)
    )
    for cfg in boards:
        graph = build_graph(cfg)
        bounded_scoring_search(cfg, Weights(0, 0, 0), 0, graph=graph)
        dist = graph.plan.dist
        terminal = {s for s in graph.reachable if is_terminal(state_from_index(s, cfg), cfg)}
        for state, node in graph.ids.items():
            assert dist[node] == _plies_to_finish(graph, state, terminal), (cfg, state)
        assert dist[1] == graph.finish, cfg


def test_need_ascends_within_each_even_layer():
    # Each deepening step bisects an even layer's ``need`` for the prefix
    # that can finish in time, which relies on this: on every three-peg
    # board with n <= 6, each ending and start/final (1, default) and
    # (2, 1), every ply layer holds a state, each even layer's search
    # numbers run from one past the previous layer's end to its own end,
    # and ``need`` there ascends and is ``dist`` at each node's number.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, *pegs)
        for disks in range(1, 7)
        for ending in applicable_endings(disks)
        for pegs in [(1,), (2, 1)]
    )
    for cfg in boards:
        graph = build_graph(cfg)
        bounded_scoring_search(cfg, Weights(0, 0, 0), 0, graph=graph)
        plan = graph.plan
        bounds = list(zip([0] + graph.layer_ends, graph.layer_ends))
        assert all(lo < hi for lo, hi in bounds), cfg
        assert plan.need[0] == 0 and len(plan.need) == len(plan.rows), cfg
        assert len(plan.ends) == len(bounds[::2]), cfg
        for (lo, hi), first, end in zip(bounds[::2], [0] + plan.ends, plan.ends):
            nodes = range(lo + 1, hi + 1)
            assert sorted(plan.pos[node] for node in nodes) == list(range(first + 1, end + 1))
            need = plan.need[first + 1:end + 1]
            assert need == sorted(need), (cfg, lo)
            for node in nodes:
                assert plan.need[plan.pos[node]] == plan.dist[node], (cfg, node)


def test_search_matches_memo_reference_six_disks():
    # At n=6 almost every (state, budget) pair is pruned: each ending from
    # start peg 1, seeded half-integer weights, bounds 63 and 71.
    rng = random.Random(6)
    for ending in applicable_endings(6):
        cfg = GameConfig(6, 3, ending, 1)
        graph = build_graph(cfg)
        w = Weights(*rng.sample(SEARCH_WEIGHTS[:17], 3))
        for bound in (63, 71):
            result = bounded_scoring_search(cfg, w, bound, graph=graph)
            expected, memo_size = reference_bounded_scoring_search(cfg, w, bound, graph=graph)
            assert result == dataclasses.replace(expected, values=memo_size), (cfg, w, bound)


def test_search_lines_replay_under_the_rules():
    # A winning line is checked by the rules alone, not by the search's
    # graph: on every three-peg board with n <= 6, each ending and start/final
    # (1, default) and (2, 1), seeded half-integer weights and bounds up to
    # 63, the line replays legal and terminal with every even ply forced, in
    # ``min_win_plies`` plies, and scores ``best_delta``.  No win, no line.
    rng = random.Random(31)
    wins = losses = 0
    for cfg in dict.fromkeys(
        GameConfig(disks, 3, ending, *pegs)
        for disks in range(1, 7)
        for ending in applicable_endings(disks)
        for pegs in [(1,), (2, 1)]
    ):
        graph = build_graph(cfg)
        for bound in (1, 5, 11, 23, 63):
            w = Weights(*rng.sample(SEARCH_WEIGHTS[:17], 3))
            result = bounded_scoring_search(cfg, w, bound, graph=graph)
            if not result.win_found:
                assert result.line == (), (cfg, w, bound)
                losses += 1
                continue
            wins += 1
            line = atoms_to_expr((move.source, move.target) for move in result.line)
            report = replay(cfg, None, line, w)
            assert report.legal and report.terminal and report.forced_even_plies, (cfg, w, bound)
            assert report.plies_applied == len(result.line) == result.min_win_plies, (cfg, w, bound)
            assert report.delta == result.best_delta, (cfg, w, bound)
    assert wins and losses


def test_a_node_layer_is_odd_exactly_after_disk_one_moved():
    # The search keeps one node per state: on three pegs the second player
    # (the odd layers) is to move exactly when disk 1 moved last.  Checked
    # on every board with n <= 6 after a search to 63 plies.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, start, final)
        for disks in range(1, 7)
        for ending in applicable_endings(disks)
        for start, final in permutations((1, 2, 3), 2)
    )
    for cfg in boards:
        graph = build_graph(cfg)
        assert not bounded_scoring_search(cfg, Weights(0, 0, 0), 63, graph=graph).win_found
        for state, node in graph.ids.items():
            if node:
                odd = bisect_right(graph.layer_ends, node - 1) % 2 == 1
                assert odd == ((state // 4) % (cfg.disks + 1) == 1), (cfg, state)


def test_a_layered_state_has_one_or_two_moves():
    # On three pegs no reachable non-terminal state is stuck, and the
    # second player (the odd layers) has exactly one move: every board with
    # n <= 7, each ending, start peg and to-peg final peg.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, start, final)
        for disks in range(1, 8)
        for ending in applicable_endings(disks)
        for start, final in permutations((1, 2, 3), 2)
    )
    for cfg in boards:
        graph = build_graph(cfg)
        for k, (lo, hi) in enumerate(zip([0] + graph.layer_ends, graph.layer_ends)):
            for state in graph.order[lo:hi]:
                assert 1 <= len(graph.succ[state]) <= 2 - k % 2, (cfg, k, state)


def test_the_second_player_never_ends_the_game():
    # Only disk 1 can complete the stack, and the second player (the odd
    # layers) moves exactly where disk 1 moved last, so no move of theirs
    # enters a terminal state: every board with n <= 7, each ending, start
    # peg and to-peg final peg.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, start, final)
        for disks in range(1, 8)
        for ending in applicable_endings(disks)
        for start, final in permutations((1, 2, 3), 2)
    )
    for cfg in boards:
        graph = build_graph(cfg)
        for lo, hi in list(zip([0] + graph.layer_ends, graph.layer_ends))[1::2]:
            for state in graph.order[lo:hi]:
                assert not any(enters for _, _, enters in graph.succ[state]), (cfg, state)


def test_an_even_bound_finds_what_the_odd_bound_below_finds():
    # Every line that ends the game has odd length, so bound 2k answers as
    # bound 2k - 1 does: every board with n <= 4, seeded weights, k = 1..20.
    # The memo reference searches every budget, even ones included, and
    # the search, which skips them, answers both bounds as it does.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, start, final)
        for disks in range(1, 5)
        for ending in applicable_endings(disks)
        for start, final in permutations((1, 2, 3), 2)
    )
    rng = random.Random(20)
    for cfg in boards:
        graph = build_graph(cfg)
        w = Weights(*rng.sample(SEARCH_WEIGHTS, 3))
        for k in range(1, 21):
            odd, even = (reference_bounded_scoring_search(cfg, w, bound, graph=graph)[0]
                         for bound in (2 * k - 1, 2 * k))
            answer = (odd.win_found, odd.min_win_plies, odd.best_delta, odd.line)
            assert (even.win_found, even.min_win_plies, even.best_delta, even.line) == answer, (
                cfg, w, k)
            for bound in (2 * k - 1, 2 * k):
                found = bounded_scoring_search(cfg, w, bound, graph=graph)
                assert (found.win_found, found.min_win_plies, found.best_delta,
                        found.line) == answer, (cfg, w, bound)


@pytest.mark.parametrize("pegs", [3, 4])
def test_graph_layers_are_plain_breadth_first_distances(pegs):
    # build_graph's ply layers list each reachable non-terminal state once,
    # at its distance from the start by a plain search over the rules API.
    for disks in range(1, 5):
        for ending in applicable_endings(disks):
            cfg = GameConfig(disks, pegs, ending)
            graph = build_graph(cfg)
            depth, level, seen, distance = 0, {initial_state(cfg)}, set(), {}
            while level:
                seen |= level
                distance.update((state_index(s, cfg), depth) for s in level)
                ahead = {apply_move(s, m, cfg) for s in level for m in legal_moves(s, cfg)}
                level = {s for s in ahead - seen if not is_terminal(s, cfg)}
                depth += 1
            layer = [bisect_right(graph.layer_ends, i) for i in range(len(graph.order))]
            assert len(graph.order) == len(distance)
            assert dict(zip(graph.order, layer)) == distance, cfg
            # The same search numbers the states: order[i] is node i + 1 and
            # a reachable state is node 0, the finished game, exactly when
            # it is terminal.
            assert [graph.ids[s] for s in graph.order] == list(range(1, len(layer) + 1)), cfg
            assert all(
                (graph.ids[s] == 0) == is_terminal(state_from_index(s, cfg), cfg)
                for s in graph.reachable
            ), cfg


class TestExports:
    def test_position_budget(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(BudgetExceeded, match="position space 27 exceeds the budget of 26"):
            export_graph(cfg, level="position", budget_states=26)
        assert export_graph(cfg, level="position", budget_states=27).count(" -- ") == 39
        # Refused before any position is listed.
        huge = GameConfig(disks=40, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(BudgetExceeded):
            export_graph(huge, fmt="json")

    @needs_default_int_limit
    def test_spaces_too_long_to_print_are_written_as_powers(self):
        # 3^10000 has 4772 digits and 3^15000 has 7157, more than the
        # interpreter prints; the budget is still refused with BudgetExceeded.
        cfg = GameConfig(disks=10000, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(BudgetExceeded) as info:
            export_graph(cfg, level="position")
        assert str(info.value) == "position space 3^10000 exceeds the budget of 100000000"
        for fn in (build_graph, lambda c: export_graph(c, level="state")):
            with pytest.raises(BudgetExceeded) as info:
                fn(cfg)
            assert str(info.value) == (
                "state space 3^10000 * 40004 exceeds the budget of 100000000"
            )
        huge = GameConfig(disks=15000, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(BudgetExceeded) as info:
            build_graph(huge, budget_states=10**5000)
        assert str(info.value) == (
            "state space 3^15000 * 60004 exceeds the budget of at least 10^4300"
        )

    @pytest.mark.parametrize("disks,nodes,edges", [(1, 3, 3), (2, 9, 12), (3, 27, 39)])
    def test_position_counts(self, disks, nodes, edges):
        cfg = GameConfig(disks=disks, pegs=3, ending=Ending.TO_PEG)
        data = json.loads(export_graph(cfg, fmt="json", level="position"))
        assert data["counts"] == {"nodes": nodes, "edges": edges}
        assert len(data["edges"]) == edges

    @pytest.mark.parametrize("pegs", [10, 11, 12])
    def test_position_names_on_ten_or_more_pegs(self, pegs):
        # Two-digit peg numbers are comma-separated, so no two positions
        # share a name and every move pair is its own edge.
        cfg = GameConfig(disks=2, pegs=pegs, ending=Ending.TO_PEG)
        data = json.loads(export_graph(cfg, fmt="json", level="position"))
        names = {pos: ",".join(map(str, pos))
                 for pos in product(range(1, pegs + 1), repeat=2)}
        expected = set()
        for pos in names:
            for source, target in permutations(range(1, pegs + 1), 2):
                disk = top_disk(pos, source)
                under = top_disk(pos, target)
                if disk is not None and (under is None or under > disk):
                    after = pos[:disk - 1] + (target,) + pos[disk:]
                    expected.add(tuple(sorted((names[pos], names[after]))))
        assert data["nodes"] == sorted(names.values())
        assert len(set(data["nodes"])) == pegs**2
        assert {tuple(edge) for edge in data["edges"]} == expected
        assert data["counts"] == {"nodes": pegs**2, "edges": len(expected)}
        assert len(expected) == pegs * (pegs - 1) ** 2
        marked = json.loads(export_graph(cfg, fmt="json", highlight_minimal=True))
        assert len(marked["highlighted"]) == 3
        assert {tuple(edge) for edge in marked["highlighted"]} <= expected

    def test_dot_deterministic(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        a = export_graph(cfg, fmt="dot", level="position")
        b = export_graph(cfg, fmt="dot", level="position")
        assert a == b
        assert a.endswith("\n")

    def test_dot_highlight(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        plain = export_graph(cfg, fmt="dot", level="position")
        marked = export_graph(cfg, fmt="dot", level="position", highlight_minimal=True)
        assert "color=red" not in plain
        assert marked.count("color=red") == 3

    @pytest.mark.parametrize(
        "cfg,digest",
        [
            pytest.param(
                GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG, start_peg=2, final_peg=1),
                "12a5f75920ed09d6330c7cf76dc0822a52a7e80dcd4177297c2738000715cede",
                id="to-peg-2-to-1",
            ),
            pytest.param(
                GameConfig(disks=3, pegs=4, ending=Ending.ANY_LARGEST),
                "bbe61116eb05b56e5d4b8b48d582260cb271ff9c8c1679848ec071286cff6503",
                id="four-pegs-any-largest",
            ),
        ],
    )
    def test_highlighted_json_pinned(self, cfg, digest):
        text = export_graph(cfg, fmt="json", highlight_minimal=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_exports_pinned(self):
        # Position level: every start and final peg, plain and, where the
        # transfer lies on pegs 1-3, highlighted.  State level: every
        # applicable ending from every start (and to-peg final) peg.
        digest = hashlib.sha256()
        for pegs, most in ((3, 3), (4, 2)):
            for disks in range(1, most + 1):
                for start, final in permutations(range(1, pegs + 1), 2):
                    cfg = GameConfig(disks, pegs, Ending.TO_PEG, start, final)
                    marks = (False, True) if max(start, final) <= 3 else (False,)
                    for fmt in ("dot", "json"):
                        for mark in marks:
                            digest.update(export_graph(cfg, fmt, "position", mark).encode())
                for ending in applicable_endings(disks):
                    for start in range(1, pegs + 1):
                        finals = range(1, pegs + 1) if ending is Ending.TO_PEG else (None,)
                        for final in finals:
                            if final == start:
                                continue
                            cfg = GameConfig(disks, pegs, ending, start, final)
                            for fmt in ("dot", "json"):
                                digest.update(export_graph(cfg, fmt, "state").encode())
        assert digest.hexdigest() == (
            "d31019b1b8761189774ec544728a8b4a33aab2fea55b34519a2bb1369c1a8424"
        )

    @pytest.mark.parametrize("start,final", [(1, 4), (4, 3), (4, 1)])
    def test_highlight_needs_three_peg_transfer(self, start, final):
        cfg = GameConfig(disks=2, pegs=4, ending=Ending.TO_PEG,
                         start_peg=start, final_peg=final)
        with pytest.raises(GameError, match="three-peg transfer"):
            export_graph(cfg, fmt="json", highlight_minimal=True)
        assert export_graph(cfg, fmt="json").startswith("{")

    @pytest.mark.parametrize("ending", [e for e in Ending if e is not Ending.TO_PEG])
    def test_highlight_from_peg_three_rejected(self, ending):
        # Outside to-peg the highlight aims at peg 3, where this stack
        # already sits, so it would mark no edge.
        cfg = GameConfig(disks=2, pegs=3, ending=ending, start_peg=3)
        with pytest.raises(GameError, match="start peg must not be peg 3"):
            export_graph(cfg, fmt="dot", highlight_minimal=True)
        assert export_graph(cfg, fmt="dot").startswith("graph positions {")

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_state_level_highlight_rejected(self, fmt):
        # Rejected before the graph is built: the budget would fire first.
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(GameError, match="position graph only"):
            export_graph(cfg, fmt=fmt, level="state", highlight_minimal=True,
                         budget_states=1)

    def test_state_level_counts(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        g = build_graph(cfg)
        dot = export_graph(cfg, fmt="dot", level="state")
        assert dot.startswith("digraph")
        assert dot.count("[shape=") == g.reachable_count
        assert "doublecircle" in dot
        assert "style=dashed" in dot

    def test_bad_format(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(Exception):
            export_graph(cfg, fmt="svg")

    @pytest.mark.parametrize("level", ["position", "state"])
    def test_bad_format_is_refused_before_any_build(self, monkeypatch, level):
        # Four pegs at n=7 would take most of a second to build.
        def build(*args):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(solve, "build_graph", build)
        monkeypatch.setattr(solve, "_position_moves", build)
        with pytest.raises(ValueError, match="unknown format 'svg'"):
            export_graph(GameConfig(7, 4, Ending.TO_PEG), fmt="svg", level=level)


@pytest.mark.parametrize("disks", [4, 5])
def test_layer_cache_does_not_depend_on_call_order(disks):
    # One shared graph per board answers deep, then shallow, then deeper
    # bounds for several weights, exactly as a fresh graph and the memo
    # reference do.  The first search builds the graph's plan, and the
    # later ones reuse it instead of building another.
    rng = random.Random(disks)
    for ending in Ending:
        cfg = GameConfig(disks, 3, ending)
        shared = build_graph(cfg)
        assert shared.plan is None
        plan = None
        for w in [Weights(*rng.sample(SEARCH_WEIGHTS, 3)) for _ in range(4)]:
            for bound in (40, 5, 63):
                result = bounded_scoring_search(cfg, w, bound, graph=shared)
                plan = plan or shared.plan
                assert shared.plan is plan
                fresh = bounded_scoring_search(cfg, w, bound, graph=build_graph(cfg))
                expected, memo_size = reference_bounded_scoring_search(cfg, w, bound)
                assert result == fresh == dataclasses.replace(expected, values=memo_size), (
                    cfg, w, bound)
        # One row per first-player node, the even ply layers, and row 0.
        bounds = list(zip([0] + shared.layer_ends, shared.layer_ends))
        assert len(plan.rows) == sum(hi - lo for lo, hi in bounds[::2]) + 1
        # A copy of the graph starts without a plan.
        assert dataclasses.replace(shared).plan is None


def test_search_plan_is_built_once_per_graph(monkeypatch):
    # Searches of any bound, in turn on two graphs of one board, build
    # one plan per graph, each on its own graph's first search.
    cfg = GameConfig(4, 3, Ending.TO_PEG)
    built = []
    plan = solve._search_plan
    monkeypatch.setattr(solve, "_search_plan", lambda g: built.append(g) or plan(g))
    graphs = [build_graph(cfg), build_graph(cfg)]
    for bound in (0, 9, 31, 5):
        for graph in graphs:
            bounded_scoring_search(cfg, Weights.of(1, -2, 3), bound, graph=graph)
    assert len(built) == 2 and built[0] is graphs[0] and built[1] is graphs[1]


class _Interrupted(Exception):
    pass


class _RaisesOnce(tuple):
    """One state's successors, whose first iteration raises."""

    armed = True

    def __iter__(self):
        if self.armed:
            self.armed = False
            raise _Interrupted
        return super().__iter__()


@pytest.mark.parametrize("depth", [1, 4, 12, 25])
def test_interrupted_layer_leaves_the_cache_whole(depth):
    # A search cut short while the plan is being built (here by the last
    # state of layer ``depth``) leaves the graph without a plan, and the
    # later searches on it, which build one, equal fresh-graph searches.
    cfg = GameConfig(5, 3, Ending.TO_PEG)
    w = Weights(Fraction(1), Fraction(-1, 2), Fraction(3, 2))
    whole = build_graph(cfg)
    last = whole.order[whole.layer_ends[depth] - 1]  # the last state of layer depth
    succ = list(whole.succ)
    succ[last] = _RaisesOnce(succ[last])
    graph = dataclasses.replace(whole, succ=succ)
    with pytest.raises(_Interrupted):
        bounded_scoring_search(cfg, w, 63, graph=graph)
    assert graph.plan is None
    for bound in (63, 5, 63):
        fresh = bounded_scoring_search(cfg, w, bound, graph=build_graph(cfg))
        assert bounded_scoring_search(cfg, w, bound, graph=graph) == fresh, bound
    assert graph.plan is not None


@pytest.mark.parametrize("pegs,most", [(3, 6), (4, 4)])
def test_walk_keeps_successor_node_ids(pegs, most):
    # ``nodes`` holds what the breadth-first walk looked up: node v's
    # successors as node ids, in ``succ`` order, where 0, the finished
    # game, stands exactly for the moves that end it.
    for disks in range(1, most + 1):
        for ending in applicable_endings(disks):
            graph = build_graph(GameConfig(disks, pegs, ending))
            ids, succ, order = graph.ids, graph.succ, graph.order
            assert graph.nodes == [()] + [tuple(ids[x] for x, _, _ in succ[i]) for i in order]
            assert [tuple(v == 0 for v in out) for out in graph.nodes[1:]] == [
                tuple(enters for _, _, enters in succ[i]) for i in order
            ]


def test_replaced_graph_derives_its_own_nodes():
    # A graph made by ``dataclasses.replace`` starts without ``nodes``, and
    # the solve derives them from its own ``succ`` and keeps them: a state
    # whose moves are taken away reads ().
    graph = build_graph(GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG))
    stuck = graph.order[5]
    damaged = dataclasses.replace(graph, succ=[
        () if i == stuck else out for i, out in enumerate(graph.succ)
    ])
    assert damaged.nodes is None
    lab = solve_normal(damaged)
    node = graph.ids[stuck]
    assert damaged.nodes[node] == () != graph.nodes[node]
    assert damaged.nodes[:node] == graph.nodes[:node]
    assert damaged.nodes[node + 1:] == graph.nodes[node + 1:]
    assert damaged.node_succ() is damaged.nodes
    assert lab.label_of(stuck) == "Loss"


def test_interrupted_derivation_leaves_nodes_unset():
    # A derivation cut short (here by the last state's successors) keeps
    # nothing, and the next solve derives the whole list and labels as the
    # graph from ``build_graph`` does.
    whole = build_graph(GameConfig(4, 3, Ending.TO_PEG))
    last = whole.order[-1]
    succ = list(whole.succ)
    succ[last] = _RaisesOnce(succ[last])
    graph = dataclasses.replace(whole, succ=succ)
    with pytest.raises(_Interrupted):
        solve_normal(graph)
    assert graph.nodes is None
    lab, want = solve_normal(graph), solve_normal(whole)
    assert graph.nodes == whole.nodes
    assert (lab.node_label, lab.node_radius) == (want.node_label, want.node_radius)


@pytest.mark.parametrize(
    "pegs,disks",
    [(3, n) for n in range(1, 7)] + [(4, n) for n in range(1, 5)] + [(5, n) for n in range(1, 4)],
)
def test_signature_kernel_matches_direct_scan(pegs, disks):
    # The moves a position reads through its signature are the moves a
    # scan of that position alone finds: its top disks, the size rule, the
    # target position, and the peg a move completes the tower onto.
    cfg = GameConfig(disks, pegs, Ending.TO_PEG)
    kernel = solve._position_moves(cfg)
    codes = {pair: code for code, pair in enumerate(combinations(range(1, pegs + 1), 2))}
    positions = list(product(range(1, pegs + 1), repeat=disks))  # disk n's peg first
    index = {stack: i for i, stack in enumerate(positions)}
    near = {}
    for i, stack in enumerate(positions):
        pos = stack[::-1]  # the peg of disk d at pos[d - 1]
        tops = tuple(top_disk(pos, peg) or 0 for peg in range(1, pegs + 1))
        assert kernel.tops[kernel.sig[i]][1:] == tops, stack
        scan = []
        for s, t in permutations(range(1, pegs + 1), 2):
            disk = top_disk(pos, s)
            if disk is None or top_disk(pos, t) is not None and top_disk(pos, t) < disk:
                continue
            moved = list(pos)
            moved[disk - 1] = t
            target = index[tuple(moved[::-1])]
            completes = t if pos.count(t) == disks - 1 else -1
            scan.append((disk, codes[min(s, t), max(s, t)], target, completes))
        moves = kernel.moves[kernel.sig[i]]
        assert [(d, code, i + offset) for d, code, offset, _ in moves] == [
            (d, code, target) for d, code, target, _ in scan
        ], stack
        if pos.count(pos[-1]) >= disks - 1:
            near[i] = (scan, pos[-1] if pos.count(pos[-1]) == disks else 0)
        else:
            assert all(completes == -1 for *_, completes in scan), stack
    assert len(near) == pegs * (1 + (disks - 1) * (pegs - 1))
    assert sorted(kernel.near) == sorted(near)
    for i, (scan, whole) in near.items():
        moves, got_whole = kernel.near[i]
        assert [(d, code, i + offset, c) for d, code, offset, c in moves] == scan, positions[i]
        assert got_whole == whole, positions[i]


@pytest.mark.parametrize("enabled", [True, False])
def test_build_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    # The build pauses the cyclic collector around the fill and the walk,
    # and hands back the state it found, also when the fill raises.
    found = gc.isenabled()
    kernel = solve._position_moves
    seen = []

    def watched(cfg):
        seen.append(gc.isenabled())
        return kernel(cfg)

    def broken(cfg):
        raise RuntimeError("no moves today")

    cfg = GameConfig(3, 3, Ending.TO_PEG)
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(solve, "_position_moves", watched)
        assert build_graph(cfg).reachable_count > 0
        assert seen == [False]
        assert gc.isenabled() is enabled
        monkeypatch.setattr(solve, "_position_moves", broken)
        with pytest.raises(RuntimeError, match="no moves today"):
            build_graph(cfg)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if found else gc.disable)()
