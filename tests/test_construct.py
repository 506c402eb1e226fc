"""Constructed sequences: transfers, families, pumps, full strategies."""

import itertools
import random
import sys

import pytest

from hanoiduel import (
    AllWeightsEqual,
    Concat,
    Ending,
    GameConfig,
    NotIntermediate,
    Weights,
    even_transfer,
    expand,
    minimal_transfer,
    odd_transfer,
    parse,
    replay,
    return_transfer,
    scoring_strategy,
    seq_length,
    to_text,
    two_disk_family,
)
from hanoiduel.construct import (
    SMALL_PAIR_RETURN,
    TWO_DISK_REACH,
    _pumped_route,
    exceptional_delta,
    exceptional_three_disk,
    exceptional_three_disk_pumped,
    pump_increment,
    score_pump,
    sigma_for,
    small_pair_return,
    two_disk_family_delta,
    two_disk_family_end_peg,
)
from hanoiduel.notation import signed_counts
from hanoiduel.scoreforms import delta_minimal_11, delta_minimal_13

from helpers import (
    nonuniform_triples,
    rational_triples,
    reference_even_transfer,
    reference_minimal_transfer,
    reference_odd_transfer,
    reference_return_transfer,
    reference_signed_counts,
    replay_text,
    top_disk,
    unique_nodes,
)


def anyend_cfg(disks):
    """A board where any completed stack ends the game once disk 1 moved.

    Every transfer target is a legal terminal there, which makes this the
    right harness for replaying constructions that end on arbitrary pegs.
    """
    return GameConfig(disks=disks, pegs=3, ending=Ending.ANY_SMALLEST)


def all_positions(disks):
    return list(itertools.product((1, 2, 3), repeat=disks))


TABLE_LENGTHS = {
    (1, 1): 7,
    (2, 1): 1,
    (3, 1): 1,
    (1, 2): 3,
    (2, 2): 3,
    (3, 2): 5,
    (1, 3): 3,
    (2, 3): 5,
    (3, 3): 3,
}


class TestTwoDiskTable:
    @pytest.mark.parametrize("pos", sorted(TWO_DISK_REACH))
    def test_row_reaches_position(self, pos):
        r = replay_text(anyend_cfg(2), TWO_DISK_REACH[pos])
        assert r.legal
        assert r.final_state.pos == pos

    def test_row_lengths(self):
        for pos, text in TWO_DISK_REACH.items():
            assert seq_length(parse(text)) == TABLE_LENGTHS[pos]

    def test_all_odd(self):
        for text in TWO_DISK_REACH.values():
            assert seq_length(parse(text)) % 2 == 1


class TestOddEvenTransfers:
    @pytest.mark.parametrize("disks", [2, 3, 4])
    def test_odd_reaches_everything(self, disks):
        cfg = anyend_cfg(disks)
        for target in all_positions(disks):
            e = odd_transfer(disks, target)
            assert seq_length(e) % 2 == 1
            r = replay(cfg, None, e)
            assert r.legal, (target, to_text(e))
            assert r.final_state.pos == target

    @pytest.mark.parametrize("disks", [2, 3, 4])
    def test_even_reaches_intermediates(self, disks):
        cfg = anyend_cfg(disks)
        for target in all_positions(disks):
            if len(set(target)) == 1:
                with pytest.raises(NotIntermediate):
                    even_transfer(disks, target)
                continue
            e = even_transfer(disks, target)
            assert seq_length(e) % 2 == 0
            r = replay(cfg, None, e)
            assert r.legal and r.final_state.pos == target

    def test_odd_base_rows(self):
        assert to_text(odd_transfer(2, (3, 3))) == "12-13-23"
        assert to_text(odd_transfer(2, (3, 2))) == "12-13-12-23-13"

    def test_odd_home_row(self):
        assert seq_length(odd_transfer(2, (1, 1))) == 7

    def test_smallest_disk_on_odd_plies(self):
        # Plies 1, 3, 5, ... of every construction move disk 1, which is
        # what forces the opponent's replies in between.
        cfg = anyend_cfg(3)
        for target in all_positions(3):
            e = odd_transfer(3, target)
            state = None
            r = replay(cfg, None, e)
            assert r.legal
            moves = expand(e)
            s = cfg and None
            import hanoiduel.core as core

            st = core.initial_state(cfg)
            for ply, (i, j) in enumerate(moves, start=1):
                from hanoiduel.core import resolve_direction

                mv = resolve_direction(st, cfg, i, j)
                disk = top_disk(st.pos, mv.source)
                if ply % 2 == 1:
                    assert disk == 1, (target, ply)
                st = core.apply_move(st, mv, cfg)


class TestMinimalAndReturn:
    @pytest.mark.parametrize("disks", range(1, 7))
    def test_minimal_length_and_endpoint(self, disks):
        e = minimal_transfer(disks, 1, 3)
        assert seq_length(e) == 2**disks - 1
        cfg = GameConfig(disks=disks, pegs=3, ending=Ending.TO_PEG)
        r = replay(cfg, None, e)
        assert r.legal and r.terminal

    def test_minimal_other_pegs(self):
        e = minimal_transfer(3, 2, 1)
        cfg = GameConfig(
            disks=3, pegs=3, ending=Ending.TO_PEG, start_peg=2, final_peg=1
        )
        r = replay(cfg, None, e)
        assert r.legal and r.terminal

    @pytest.mark.parametrize("variant", [1, 2])
    @pytest.mark.parametrize("disks", range(2, 7))
    def test_return_round_trip(self, disks, variant):
        e = return_transfer(disks, variant)
        assert seq_length(e) == 2 ** (disks + 1) - 1
        cfg = GameConfig(disks=disks, pegs=3, ending=Ending.RETURN_LARGEST)
        r = replay(cfg, None, e)
        assert r.legal and r.terminal
        assert r.final_state.pos == tuple([1] * disks)

    def test_return_variants_differ(self):
        assert to_text(return_transfer(2, 1)) == "12-13-12-23-13-12-13"
        assert to_text(return_transfer(2, 2)) == "13-12-13-23-12-13-12"

    def test_return_rejects_single_disk(self):
        with pytest.raises(Exception):
            return_transfer(1, 1)

    @pytest.mark.parametrize("disks", range(2, 6))
    def test_small_pair_return(self, disks):
        cfg = GameConfig(disks=disks, pegs=3, ending=Ending.RETURN_SMALLEST)
        r = replay(cfg, None, small_pair_return())
        assert r.legal and r.terminal
        assert r.plies_applied == 7

    def test_small_pair_text(self):
        assert SMALL_PAIR_RETURN == "12-13-12-23-13-12-13"

    @pytest.mark.parametrize("disks", [2, 3, 4, 5])
    def test_transfer_deltas_match_closed_forms(self, disks):
        for w in rational_triples(seed=11, count=10):
            r = replay(anyend_cfg(disks), None, minimal_transfer(disks, 1, 3), w)
            assert r.delta == delta_minimal_13(disks, w)
            for variant in (1, 2):
                cfg = GameConfig(disks=disks, pegs=3, ending=Ending.RETURN_LARGEST)
                r = replay(cfg, None, return_transfer(disks, variant), w)
                assert r.delta == delta_minimal_11(disks, w)


class TestLoopBuilders:
    """The one-pass builders expand exactly like the recursive reference."""

    def test_minimal_matches_reference(self):
        for disks in range(1, 15):
            for source, target in itertools.permutations((1, 2, 3), 2):
                expected = expand(reference_minimal_transfer(disks, source, target))
                assert expand(minimal_transfer(disks, source, target)) == expected

    def test_return_matches_reference(self):
        for disks in range(2, 13):
            for variant in (1, 2):
                expected = expand(reference_return_transfer(disks, variant))
                assert expand(return_transfer(disks, variant)) == expected

    def test_odd_and_even_match_reference(self):
        rng = random.Random(12)
        targets = [t for disks in range(2, 6) for t in all_positions(disks)]
        targets += [
            tuple(rng.choice((1, 2, 3)) for _ in range(disks))
            for disks in range(6, 15)
            for _ in range(10)
        ]
        for target in targets:
            disks = len(target)
            expected = expand(reference_odd_transfer(disks, target))
            assert expand(odd_transfer(disks, target)) == expected, target
            if len(set(target)) > 1:
                expected = expand(reference_even_transfer(disks, target))
                assert expand(even_transfer(disks, target)) == expected, target

    def test_stacks_deeper_than_the_recursion_limit_build(self):
        disks = 3000
        assert sys.getrecursionlimit() < disks
        rng = random.Random(disks)
        target = tuple(rng.choice((1, 2, 3)) for _ in range(disks))
        built = (
            minimal_transfer(disks, 1, 3),
            return_transfer(disks, 2),
            odd_transfer(disks, target),
            even_transfer(disks, target),
        )
        for expr in built:
            assert unique_nodes(expr) <= 8 * disks


class TestTwoDiskFamilies:
    @pytest.mark.parametrize("case", range(1, 7))
    @pytest.mark.parametrize("k", range(0, 4))
    def test_family_replays_and_scores(self, case, k):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.ANY_LARGEST)
        e = two_disk_family(case, k)
        for w in rational_triples(seed=5, count=6):
            r = replay(cfg, None, e, w)
            assert r.legal and r.terminal
            assert r.forced_even_plies
            # The score differential does not depend on k.
            assert r.delta == two_disk_family_delta(case, w)
            assert r.final_state.pos[1] == two_disk_family_end_peg(case)

    def test_family_case_bounds(self):
        with pytest.raises(Exception):
            two_disk_family(0, 0)
        with pytest.raises(Exception):
            two_disk_family(7, 0)


class TestScorePump:
    @pytest.mark.parametrize("perm", [(2, 1, 3), (3, 1, 2), (2, 3, 1)])
    def test_pump_is_a_cycle(self, perm):
        i, j, k = perm
        e = score_pump(i, j, k)
        assert seq_length(e) == 16

    def test_pump_increment_value(self):
        w = Weights.of(1, 2, 3)
        # Pump over (i, j, k) = (2, 1, 3) walks the 2-3 and 1-3 edges up
        # and the 1-2 edge down.
        assert pump_increment(2, 1, 3, w) == 2 * (w.w23 + w.w13 - 2 * w.w12)


class TestScoringStrategy:
    def test_worked_example(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        w = Weights.of(1, 1, 5)
        plan = scoring_strategy(cfg, w)
        r = replay(cfg, None, plan.full, w)
        assert r.legal and r.terminal and r.forced_even_plies
        assert r.delta == plan.predicted_delta
        assert r.delta > 0

    def test_pump_needed_case(self):
        cfg = GameConfig(disks=4, pegs=3, ending=Ending.RETURN_LARGEST)
        w = Weights.of(-1, -1, 0)
        plan = scoring_strategy(cfg, w)
        assert plan.pumps >= 1
        r = replay(cfg, None, plan.full, w)
        assert r.legal and r.terminal
        assert r.delta == plan.predicted_delta > 0

    def test_no_pump_when_base_positive(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        plan = scoring_strategy(cfg, Weights.of(1, 1, 5))
        assert plan.base_delta == 9
        assert plan.pumps == 0

    def test_pump_count_law(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        for w in nonuniform_triples(seed=31, count=12):
            plan = scoring_strategy(cfg, w)
            assert plan.pump_increment > 0
            if plan.base_delta > 0:
                assert plan.pumps == 0
            else:
                # Smallest pump count that tips the total positive.
                assert plan.pumps >= 1
                assert plan.base_delta + (plan.pumps - 1) * plan.pump_increment <= 0
            total = plan.base_delta + plan.pumps * plan.pump_increment
            assert plan.predicted_delta == total
            assert total > 0

    def test_even_s1_odd_s2(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.ANY_LARGEST)
        plan = scoring_strategy(cfg, Weights.of(2, -1, 1))
        assert seq_length(plan.s1) % 2 == 0
        assert seq_length(plan.s2_inv) % 2 == 1

    def test_rejects_uniform(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(AllWeightsEqual):
            scoring_strategy(cfg, Weights.of(2, 2, 2))

    def test_rejects_small_boards(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(Exception):
            scoring_strategy(cfg, Weights.of(1, 2, 3))

    def test_alternative_start_peg(self):
        cfg = GameConfig(
            disks=3, pegs=3, ending=Ending.TO_PEG, start_peg=2, final_peg=1
        )
        w = Weights.of(1, -3, 2)
        plan = scoring_strategy(cfg, w)
        r = replay(cfg, None, plan.full, w)
        assert r.legal and r.terminal
        assert r.delta == plan.predicted_delta > 0

    @pytest.mark.parametrize("ending", list(Ending))
    def test_every_ending_wins(self, ending):
        cfg = GameConfig(disks=4, pegs=3, ending=ending)
        for w in nonuniform_triples(seed=23, count=6):
            plan = scoring_strategy(cfg, w)
            r = replay(cfg, None, plan.full, w)
            assert r.legal and r.terminal and r.forced_even_plies, (ending, w)
            assert r.delta == plan.predicted_delta > 0


# Each edge strictly cheapest, then each pair of edges tied cheapest.
CHEAPEST_EDGE_WEIGHTS = [
    Weights.of(-1, 1, 2), Weights.of(2, -1, 1), Weights.of(1, 2, -1),
    Weights.of(-1, -1, 2), Weights.of(-1, 2, -1), Weights.of(2, -1, -1),
]


@pytest.mark.parametrize("disks", [3, 4, 5, 6])
def test_base_delta_is_the_replayed_route_score(disks):
    # base_delta comes from the cached route's signed edge counts; it must
    # be the score a replay of s1 . s2_inv sums, on every board.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, start, final)
        for ending in Ending
        for start, final in itertools.permutations((1, 2, 3), 2)
    )
    for cfg in boards:
        for w in CHEAPEST_EDGE_WEIGHTS:
            plan = scoring_strategy(cfg, w)
            route = replay(cfg, None, Concat((plan.s1, plan.s2_inv)), w)
            assert route.legal and route.terminal, (cfg, w)
            assert plan.base_delta == route.delta, (cfg, w)
            r = replay(cfg, None, plan.full, w)
            assert r.legal and r.terminal and r.forced_even_plies, (cfg, w)
            assert r.delta == plan.predicted_delta > 0, (cfg, w)


@pytest.mark.parametrize("disks", range(3, 11))
def test_route_counts_are_the_expanded_counts(disks):
    # _pumped_route folds its counts from the tree; they must be the counts
    # of the expanded line s1 . s2_inv, which plays legal to the end.
    boards = dict.fromkeys(
        GameConfig(disks, 3, ending, start, final)
        for ending in Ending
        for start, final in itertools.permutations((1, 2, 3), 2)
    )
    for cfg in boards:
        for pair in ((1, 2), (1, 3), (2, 3)):
            s1, s2_inv, *_, counts = _pumped_route(cfg, pair)
            route = Concat((s1, s2_inv))
            assert counts == reference_signed_counts(route), (cfg, pair)
            report = replay(cfg, None, route)
            assert report.legal and report.terminal, (cfg, pair)


class TestExceptionalRoutes:
    @pytest.mark.parametrize("smallest", ["w12", "w23"])
    @pytest.mark.parametrize("variant,length", [(1, 11), (2, 13)])
    def test_route_shape(self, smallest, variant, length):
        e = exceptional_three_disk(smallest, variant)
        assert seq_length(e) == length
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        for w in rational_triples(seed=7, count=5):
            r = replay(cfg, None, e, w)
            assert r.legal and r.terminal and r.forced_even_plies
            assert r.final_state.pos == (3, 3, 3)
            assert r.delta == exceptional_delta(smallest, variant, w)

    @pytest.mark.parametrize("smallest", ["w12", "w23"])
    def test_pumped_route_still_lands(self, smallest):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        w = Weights.of(-2, 1, -2) if smallest == "w12" else Weights.of(1, -2, -2)
        for pumps in (1, 2):
            e = exceptional_three_disk_pumped(smallest, 1, pumps)
            r = replay(cfg, None, e, w)
            assert r.legal and r.terminal
            assert seq_length(e) == 11 + 16 * pumps


class TestCertificateRows:
    """Each family and exceptional line is one table row: one lookup, one
    ``ValueError`` for an unknown row, and a stated score that is the
    line's signed edge counts times the weights."""

    @pytest.mark.parametrize("case", [0, 7])
    def test_unknown_family_raises_one_value_error(self, case):
        w = Weights.of(1, 2, 3)
        calls = (
            lambda: two_disk_family(case),
            lambda: two_disk_family_delta(case, w),
            lambda: two_disk_family_end_peg(case),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^unknown two-disk family {case}$"):
                call()

    @pytest.mark.parametrize("smallest,variant", [("w13", 1), ("w12", 3)])
    def test_unknown_exceptional_line_raises_one_value_error(self, smallest, variant):
        w = Weights.of(1, 2, 3)
        calls = (
            lambda: exceptional_three_disk(smallest, variant),
            lambda: exceptional_three_disk_pumped(smallest, variant, 1),
            lambda: exceptional_delta(smallest, variant, w),
        )
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        (message,) = messages
        assert repr(smallest) in message and str(variant) in message

    def test_stated_scores_are_signed_counts_times_weights(self):
        def score(line, w):
            return sum(c * x for c, x in zip(signed_counts(line), w.as_tuple()))

        for w in rational_triples(seed=29, count=8):
            for case, k in itertools.product(range(1, 7), range(4)):
                line = two_disk_family(case, k)
                assert two_disk_family_delta(case, w) == score(line, w), (case, k, w)
            for smallest, variant in itertools.product(("w12", "w23"), (1, 2)):
                line = exceptional_three_disk(smallest, variant)
                assert exceptional_delta(smallest, variant, w) == score(line, w), (
                    smallest, variant, w)


def test_sigma_for():
    assert sigma_for(2) == {1: 2, 2: 1, 3: 3}
    assert sigma_for(1, 3) == {1: 1, 2: 2, 3: 3}
    assert sigma_for(2, 1) == {1: 2, 2: 3, 3: 1}
