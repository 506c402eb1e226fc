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
from bisect import bisect_right
from fractions import Fraction
from itertools import permutations, product
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

from hanoiduel.core import state_from_index, state_index
from hanoiduel.solve import shortest_finish

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
        for field, value in ref.items():
            assert getattr(graph, field) == value, field
        assert [
            tuple(graph.move(i, nxt, code) for nxt, code, _ in out)
            for i, out in enumerate(graph.succ)
        ] == moves
        labels = solve_normal(graph)
        label, radius = reference_labels(ref["succ"], ref["terminal"])
        assert [labels.label_of(i) for i in range(graph.total_states)] == label
        assert labels.radius == radius

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
        layers = graph.layers
        for state, node in layers.ids.items():
            odd = bisect_right(layers.ends, node) % 2 == 1
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


@pytest.mark.parametrize("disks", [4, 5])
def test_layer_cache_does_not_depend_on_call_order(disks):
    # One shared graph per board answers deep, then shallow, then deeper
    # bounds for several weights, exactly as a fresh graph and the memo
    # reference do; its cached layers hold one row per (state, side) node.
    rng = random.Random(disks)
    for ending in Ending:
        cfg = GameConfig(disks, 3, ending)
        shared = build_graph(cfg)
        for w in [Weights(*rng.sample(SEARCH_WEIGHTS, 3)) for _ in range(4)]:
            for bound in (40, 5, 63):
                result = bounded_scoring_search(cfg, w, bound, graph=shared)
                fresh = bounded_scoring_search(cfg, w, bound, graph=build_graph(cfg))
                expected, memo_size = reference_bounded_scoring_search(cfg, w, bound)
                assert result == fresh == dataclasses.replace(expected, values=memo_size), (
                    cfg, w, bound)
        layers = shared.layers
        # Node ids start at 1; rows are built only as deep as a search went.
        assert sum(map(len, layers.rows)) == layers.ends[len(layers.rows) - 1] - 1
        assert sum(map(len, layers.rows)) <= 2 * shared.reachable_count


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
    # A search cut short while a layer is being built (here by the last
    # state of that layer) leaves the graph's cached layers as they were:
    # later searches on it equal fresh-graph searches.
    from hanoiduel.solve import _PlyLayers

    cfg = GameConfig(5, 3, Ending.TO_PEG)
    w = Weights(Fraction(1), Fraction(-1, 2), Fraction(3, 2))
    graph = build_graph(cfg)
    last = graph.order[graph.layer_ends[depth] - 1]  # the last state of layer depth
    succ = list(graph.succ)
    succ[last] = _RaisesOnce(succ[last])
    graph.layers = _PlyLayers(succ, graph.order, graph.layer_ends)
    with pytest.raises(_Interrupted):
        bounded_scoring_search(cfg, w, 63, graph=graph)
    whole = _PlyLayers(graph.succ, graph.order, graph.layer_ends)
    whole.through(depth)
    cache = graph.layers
    assert (cache.ids, cache.ends, cache.rows) == (whole.ids, whole.ends, whole.rows)
    for bound in (63, 5, 63):
        fresh = bounded_scoring_search(cfg, w, bound, graph=build_graph(cfg))
        assert bounded_scoring_search(cfg, w, bound, graph=graph) == fresh, bound
