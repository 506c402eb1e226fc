"""Closed-form verdicts and minimum-move tables, cross-checked by replay
and by the exhaustive solver where affordable."""

import hashlib
from fractions import Fraction
from math import inf

import pytest

from hanoiduel import (
    Ending,
    GameConfig,
    GameError,
    Outcome,
    Weights,
    bounded_scoring_search,
    build_graph,
    min_moves_normal,
    min_moves_scoring,
    normal_verdict,
    replay,
    scoring_verdict,
    seq_length,
    to_text,
)
from hanoiduel.scoreforms import delta_minimal_11, delta_minimal_13, invariants_of

from helpers import applicable_endings, rational_triples


def W(a, b, c):
    return Weights.of(a, b, c)


class TestInvariants:
    def test_fixture_three_disks(self):
        inv = invariants_of(3, W(1, 2, 3))
        assert inv.beta1 == 2
        assert inv.beta2 == 6
        assert inv.beta3 == 2
        assert inv.gamma == 3
        assert not inv.all_equal

    def test_fixture_four_disks(self):
        inv = invariants_of(4, W(1, 2, 3))
        # Parity flips both transfer scores.
        assert inv.beta1 == 1 + 3 - 2
        assert inv.beta2 == 1 + 2 - 3

    def test_gamma_positive_unless_uniform(self):
        for w in rational_triples(seed=3, count=30):
            inv = invariants_of(3, w)
            if w.is_uniform:
                assert inv.gamma == 0
            else:
                assert inv.gamma > 0

    def test_uniform_alpha(self):
        inv = invariants_of(5, W(7, 7, 7))
        assert inv.all_equal and inv.alpha == 7


class TestClosedFormDeltas:
    @pytest.mark.parametrize("disks", [1, 2, 3, 4, 5])
    def test_minimal(self, disks):
        w = W(1, "2/3", -2)
        if disks % 2:
            assert delta_minimal_13(disks, w) == w.w13
        else:
            assert delta_minimal_13(disks, w) == w.w12 + w.w23 - w.w13

    def test_round_trip_parity(self):
        w = W(1, "2/3", -2)
        assert delta_minimal_11(3, w) == 3 * w.w23 - w.w12 - w.w13
        assert delta_minimal_11(4, w) == w.w12 + w.w13 - w.w23
        with pytest.raises(ValueError):
            delta_minimal_11(1, w)


class TestNormalPlay:
    @pytest.mark.parametrize("disks", range(1, 6))
    def test_three_pegs_always_first_win(self, disks):
        for ending in applicable_endings(disks):
            cfg = GameConfig(disks=disks, pegs=3, ending=ending)
            v = normal_verdict(cfg)
            assert v.outcome is Outcome.FIRST_WIN
            if v.certificate is not None:
                r = replay(cfg, None, v.certificate)
                assert r.legal and r.terminal and r.forced_even_plies

    def test_min_moves_table(self):
        expect = {
            (Ending.TO_PEG, 3): 7,
            (Ending.RETURN_LARGEST, 3): 15,
            (Ending.RETURN_SMALLEST, 3): 7,
            (Ending.ANY_LARGEST, 3): 7,
            (Ending.ANY_SMALLEST, 3): 7,
            (Ending.ANY_SMALLEST, 2): 3,
            (Ending.ANY_SMALLEST, 1): 1,
            (Ending.RETURN_SMALLEST, 2): 7,
        }
        for (ending, disks), val in expect.items():
            cfg = GameConfig(disks=disks, pegs=3, ending=ending)
            m = min_moves_normal(cfg)
            assert m.exact and m.upper == val, (ending, disks)

    def test_four_pegs_table(self):
        cases = {
            (1, Ending.TO_PEG): (Outcome.FIRST_WIN, 1),
            (1, Ending.ANY_LARGEST): (Outcome.FIRST_WIN, 1),
            (1, Ending.ANY_SMALLEST): (Outcome.FIRST_WIN, 1),
            (2, Ending.TO_PEG): (Outcome.DRAW, inf),
            (2, Ending.RETURN_LARGEST): (Outcome.DRAW, inf),
            (2, Ending.RETURN_SMALLEST): (Outcome.DRAW, inf),
            (2, Ending.ANY_LARGEST): (Outcome.FIRST_WIN, 3),
            (2, Ending.ANY_SMALLEST): (Outcome.FIRST_WIN, 3),
            (3, Ending.TO_PEG): (Outcome.DRAW, inf),
            (3, Ending.ANY_SMALLEST): (Outcome.DRAW, inf),
        }
        for (disks, ending), (outcome, moves) in cases.items():
            cfg = GameConfig(disks=disks, pegs=4, ending=ending)
            assert normal_verdict(cfg).outcome is outcome, (disks, ending)
            assert min_moves_normal(cfg).upper == moves

    def test_five_pegs_behaves_like_four(self):
        cfg = GameConfig(disks=2, pegs=5, ending=Ending.ANY_SMALLEST)
        assert normal_verdict(cfg).outcome is Outcome.FIRST_WIN
        cfg = GameConfig(disks=3, pegs=5, ending=Ending.TO_PEG)
        assert normal_verdict(cfg).outcome is Outcome.DRAW


class TestOneDiskScoring:
    cfg13 = GameConfig(disks=1, pegs=3, ending=Ending.TO_PEG)

    @pytest.mark.parametrize(
        "w,outcome",
        [
            ((5, 1, -9), Outcome.FIRST_WIN),
            ((5, 0, -9), Outcome.TIE),
            ((5, -1, -9), Outcome.SECOND_WIN),
        ],
    )
    def test_to_peg_sign(self, w, outcome):
        # Only the start-to-final edge matters.
        assert scoring_verdict(self.cfg13, W(*w)).outcome is outcome

    @pytest.mark.parametrize("ending", [Ending.ANY_LARGEST, Ending.ANY_SMALLEST])
    def test_any_peg_takes_best_edge(self, ending):
        cfg = GameConfig(disks=1, pegs=3, ending=ending)
        assert scoring_verdict(cfg, W(2, -1, -9)).outcome is Outcome.FIRST_WIN
        assert scoring_verdict(cfg, W(-1, -2, 9)).outcome is Outcome.SECOND_WIN
        assert scoring_verdict(cfg, W(0, -2, 9)).outcome is Outcome.TIE

    def test_min_moves(self):
        m = min_moves_scoring(self.cfg13, W(0, 4, 0))
        assert m.exact and m.upper == 1
        m = min_moves_scoring(self.cfg13, W(0, 0, 0))
        assert m.upper == inf


class TestTwoDiskScoring:
    cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)

    def test_first_inequality(self):
        # w12 + w23 - w13 > 0: family one wins on the final peg.
        v = scoring_verdict(self.cfg, W(3, 1, 2))
        assert v.outcome is Outcome.FIRST_WIN
        r = replay(self.cfg, None, v.certificate, W(3, 1, 2))
        assert r.legal and r.terminal and r.delta == 4

    def test_second_inequality(self):
        # 3*w13 - w12 - w23 > 0 via a negative w13 route being avoided.
        v = scoring_verdict(self.cfg, W(2, 2, -3))
        assert v.outcome is Outcome.FIRST_WIN
        assert v.predicted_delta == 7

    def test_draw_region(self):
        assert scoring_verdict(self.cfg, W(-3, -3, -3)).outcome is Outcome.DRAW
        assert scoring_verdict(self.cfg, W(0, 0, 0)).outcome is Outcome.DRAW

    def test_any_disk_endings_use_all_families(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.ANY_LARGEST)
        # Loses on peg 3 routes but wins with the peg-2 families.
        w = W(2, -4, -1)
        v = scoring_verdict(cfg, w)
        assert v.outcome is Outcome.FIRST_WIN
        r = replay(cfg, None, v.certificate, w)
        assert r.legal and r.terminal and r.delta > 0

    def test_return_endings_need_home_families(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.RETURN_LARGEST)
        assert scoring_verdict(cfg, W(2, 2, -3)).outcome is Outcome.FIRST_WIN
        assert scoring_verdict(cfg, W(-1, -1, 3)).outcome is Outcome.DRAW

    def test_verdict_matches_search_spot(self):
        graph = build_graph(self.cfg)
        for w in rational_triples(seed=17, count=15):
            v = scoring_verdict(self.cfg, w)
            res = bounded_scoring_search(self.cfg, w, 24, graph=graph)
            if v.outcome is Outcome.FIRST_WIN:
                assert res.win_found and res.best_delta > 0, w
            else:
                assert not res.win_found, w


class TestManyDiskScoring:
    @pytest.mark.parametrize("ending", list(Ending))
    def test_nonuniform_always_first_win(self, ending):
        cfg = GameConfig(disks=4, pegs=3, ending=ending)
        for w in rational_triples(seed=29, count=8):
            v = scoring_verdict(cfg, w)
            if w.is_uniform:
                continue
            assert v.outcome is Outcome.FIRST_WIN
            r = replay(cfg, None, v.certificate, w)
            assert r.legal and r.terminal and r.delta == v.predicted_delta > 0

    def test_uniform_positive_wins_by_finishing(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        v = scoring_verdict(cfg, W(2, 2, 2))
        assert v.outcome is Outcome.FIRST_WIN
        assert v.predicted_delta == 2
        r = replay(cfg, None, v.certificate, W(2, 2, 2))
        assert r.legal and r.terminal and r.delta == 2

    def test_uniform_nonpositive_draws(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        assert scoring_verdict(cfg, W(0, 0, 0)).outcome is Outcome.DRAW
        assert scoring_verdict(cfg, W(-1, -1, -1)).outcome is Outcome.DRAW

    def test_rejects_many_pegs(self):
        cfg = GameConfig(disks=3, pegs=4, ending=Ending.TO_PEG)
        with pytest.raises(GameError):
            scoring_verdict(cfg, W(1, 2, 3))


class TestScoringMinMoves:
    ec1 = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)

    def test_direct_route_exact(self):
        for w in rational_triples(seed=41, count=20):
            if delta_minimal_13(3, w) > 0:
                m = min_moves_scoring(self.ec1, w)
                assert m.exact and m.upper == 7, w

    def test_worked_bound_example(self):
        m = min_moves_scoring(self.ec1, W(0, -4, 0))
        assert (m.lower, m.upper) == (8, 23)

    def test_exceptional_pair_tightens_bound(self):
        # gamma realized by an expression whose route pair includes the
        # 11-move landing: upper drops below the generic 7 + 16k form.
        m = min_moves_scoring(self.ec1, W(-1, -1, 0))
        assert m.upper == 11

    def test_oracle_containment_three_disks(self):
        graph = build_graph(self.ec1)
        for w in rational_triples(seed=43, count=6):
            m = min_moves_scoring(self.ec1, w)
            if m.upper == inf or m.upper > 31:
                continue
            res = bounded_scoring_search(self.ec1, w, int(m.upper), graph=graph)
            assert res.win_found, w
            assert m.lower <= res.min_win_plies <= m.upper, w

    def test_return_largest_table(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.RETURN_LARGEST)
        m = min_moves_scoring(cfg, W(0, 0, 1))  # round-trip delta 3 > 0
        assert m.exact and m.upper == 15
        m = min_moves_scoring(cfg, W(1, 1, 1))
        assert m.exact and m.upper == 15
        m = min_moves_scoring(cfg, W(0, 0, -1))
        assert m.lower == 16 or m.upper >= 16

    def test_return_smallest_table(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.RETURN_SMALLEST)
        # Seven-move shuffle wins immediately when its score is positive.
        m = min_moves_scoring(cfg, W(1, 1, 1))
        assert m.exact and m.upper == 7
        w = W(-2, -2, -2)
        assert min_moves_scoring(cfg, w).upper == inf

    def test_any_largest_picks_cheaper_route(self):
        cfg = GameConfig(disks=4, pegs=3, ending=Ending.ANY_LARGEST)
        m = min_moves_scoring(cfg, W(1, 1, 1))
        assert m.exact and m.upper == 2**4 - 1

    def test_any_smallest_small_boards(self):
        cfg = GameConfig(disks=3, pegs=3, ending=Ending.ANY_SMALLEST)
        m = min_moves_scoring(cfg, W(1, 1, 1))
        assert m.exact and m.upper == 7

    def test_two_disk_tables(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        m = min_moves_scoring(cfg, W(3, 1, 2))
        assert m.exact and m.upper == 3
        m = min_moves_scoring(cfg, W(0, 0, 0))
        assert m.upper == inf
        cfg2 = GameConfig(disks=2, pegs=3, ending=Ending.RETURN_LARGEST)
        m = min_moves_scoring(cfg2, W(2, 2, 1))
        assert m.exact and m.upper == 7

    def test_scale_invariance(self):
        for w in rational_triples(seed=47, count=10):
            scaled = Weights(w.w12 * 3, w.w13 * 3, w.w23 * 3)
            a = min_moves_scoring(self.ec1, w)
            b = min_moves_scoring(self.ec1, scaled)
            assert (a.lower, a.upper) == (b.lower, b.upper), w


# sha256 of ``_closed_form_lines()``, taken before the closed forms were
# rewritten to read their line scores from ``construct``.
CLOSED_FORM_DIGEST = (
    "8c05eb60599db204d4878df77957d8142dd1eff8e32c1e781608036ebfc47f58"
)


def _boards(disks, pegs=3):
    """Every applicable ending from every start peg, to-peg to every final."""
    for ending in applicable_endings(disks):
        for start in range(1, pegs + 1):
            finals = range(1, pegs + 1) if ending is Ending.TO_PEG else [None]
            for final in finals:
                if final != start:
                    yield GameConfig(disks, pegs, ending, start, final)


def _cert_text(verdict):
    return None if verdict.certificate is None else to_text(verdict.certificate)


def _closed_form_lines():
    values = [Fraction(v) for v in ("-2", "-1/2", "0", "1", "3")]
    grid = [Weights(a, b, c) for a in values for b in values for c in values]
    for disks in range(1, 6):
        for cfg in _boards(disks):
            for w in grid:
                m = min_moves_scoring(cfg, w)
                yield f"{cfg} {w.as_tuple()} {m.lower} {m.upper} {m.exact}"
                if disks <= 2:
                    v = scoring_verdict(cfg, w)
                    yield f"{v.outcome.value} {_cert_text(v)} {v.predicted_delta}"
        for w in grid:
            yield f"{disks} {w.as_tuple()} {invariants_of(disks, w)}"
        for pegs in (3, 4, 5):
            for cfg in _boards(disks, pegs):
                v, m = normal_verdict(cfg), min_moves_normal(cfg)
                yield f"{cfg} {v.outcome.value} {_cert_text(v)} {m.lower} {m.upper} {m.exact}"


def test_closed_forms_unchanged_over_grid():
    # Moved start and final pegs, ties between weights, one to five disks
    # and three to five pegs: any change of a closed-form answer shows.
    digest = hashlib.sha256()
    for line in _closed_form_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CLOSED_FORM_DIGEST
