"""Rules engine: configurations, moves, termination, state codecs."""

import copy
import pickle
import random
from dataclasses import fields
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoiduel import (
    Ending,
    GameConfig,
    GameError,
    GameState,
    IllegalMove,
    InapplicableEnding,
    Move,
    Weights,
    apply_move,
    initial_state,
    is_terminal,
    legal_moves,
    parse_ending,
)
from hanoiduel.construct import scoring_strategy
from hanoiduel.core import (
    Board,
    _free_moves,
    resolve_direction,
    state_from_index,
    state_from_text,
    state_index,
    state_space,
    state_to_text,
    validate_state,
)
from hanoiduel.notation import expand

from helpers import (
    applicable_endings,
    board_fields,
    reference_apply_move,
    reference_legal_moves,
    reference_resolve_direction,
)


def cfg_of(disks, pegs=3, ending=Ending.TO_PEG, **kw):
    return GameConfig(disks=disks, pegs=pegs, ending=ending, **kw)


class TestConfig:
    def test_defaults(self):
        cfg = cfg_of(2)
        assert cfg.start_peg == 1
        assert cfg.final_peg == 3

    def test_final_peg_only_for_to_peg(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.ANY_LARGEST, final_peg=2)
        assert cfg.final_peg is None

    def test_final_must_differ_from_start(self):
        with pytest.raises(GameError):
            GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG, start_peg=1, final_peg=1)

    def test_too_few_pegs(self):
        with pytest.raises(GameError):
            GameConfig(disks=2, pegs=2, ending=Ending.TO_PEG)

    def test_no_disks(self):
        with pytest.raises(GameError):
            GameConfig(disks=0, pegs=3, ending=Ending.TO_PEG)

    @pytest.mark.parametrize("ending", [Ending.RETURN_LARGEST, Ending.RETURN_SMALLEST])
    def test_single_disk_return_rejected(self, ending):
        # With one disk every position is a completed stack, so the first
        # move would already have to end the game on another peg.
        with pytest.raises(InapplicableEnding):
            GameConfig(disks=1, pegs=3, ending=ending)

    def test_peg_out_of_board(self):
        with pytest.raises(GameError):
            GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG, start_peg=4)

    @pytest.mark.parametrize(
        "text,want",
        [
            ("1", Ending.TO_PEG),
            ("to-peg", Ending.TO_PEG),
            ("2", Ending.RETURN_LARGEST),
            ("return-largest", Ending.RETURN_LARGEST),
            ("return-smallest", Ending.RETURN_SMALLEST),
            ("any-largest", Ending.ANY_LARGEST),
            ("5", Ending.ANY_SMALLEST),
            ("any-smallest", Ending.ANY_SMALLEST),
        ],
    )
    def test_parse_ending(self, text, want):
        assert parse_ending(text) is want

    def test_parse_ending_garbage(self):
        with pytest.raises(GameError):
            parse_ending("sideways")


class TestLegalMoves:
    def test_initial_two_disks(self):
        cfg = cfg_of(2)
        assert legal_moves(initial_state(cfg), cfg) == (Move(1, 2), Move(1, 3))

    def test_ban_after_first_move(self):
        cfg = cfg_of(2)
        state = apply_move(initial_state(cfg), Move(1, 3), cfg)
        # Disk 1 just moved, so only disk 2 may move, and it cannot sit on
        # top of disk 1.
        assert legal_moves(state, cfg) == (Move(1, 2),)

    def test_single_disk_completion_filter(self):
        # Moving the lone disk to peg 2 would complete the tower on a peg
        # that does not satisfy the ending, which the rules forbid.
        cfg = cfg_of(1)
        assert legal_moves(initial_state(cfg), cfg) == (Move(1, 3),)

    def test_completion_filter_return_ending(self):
        cfg = cfg_of(2, ending=Ending.RETURN_LARGEST)
        s = initial_state(cfg)
        s = apply_move(s, Move(1, 3), cfg)
        s = apply_move(s, Move(1, 2), cfg)
        # Disk 1 on 3, disk 2 on 2.  Disk 1 onto peg 2 would complete the
        # tower on peg 2, not the start peg: banned.
        assert Move(3, 2) not in legal_moves(s, cfg)
        assert Move(3, 1) in legal_moves(s, cfg)

    def test_larger_on_smaller_rejected(self):
        cfg = cfg_of(2)
        s = apply_move(initial_state(cfg), Move(1, 3), cfg)
        with pytest.raises(IllegalMove, match="smaller"):
            apply_move(s, Move(1, 3), cfg)

    def test_empty_source_rejected(self):
        cfg = cfg_of(2)
        with pytest.raises(IllegalMove):
            apply_move(initial_state(cfg), Move(2, 3), cfg)

    def test_ban_message(self):
        cfg = cfg_of(2)
        s = apply_move(initial_state(cfg), Move(1, 3), cfg)
        with pytest.raises(IllegalMove, match="previous ply"):
            apply_move(s, Move(3, 2), cfg)

    def test_terminal_has_no_moves(self):
        cfg = cfg_of(1)
        s = apply_move(initial_state(cfg), Move(1, 3), cfg)
        assert is_terminal(s, cfg)
        assert legal_moves(s, cfg) == ()
        with pytest.raises(IllegalMove, match="over"):
            apply_move(s, Move(3, 1), cfg)


def reachable_states(cfg):
    """Every state reachable from the initial one, terminal ones included."""
    seen = {initial_state(cfg)}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for move in legal_moves(state, cfg):
            nxt = apply_move(state, move, cfg)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@pytest.mark.parametrize("pegs", [3, 4])
@pytest.mark.parametrize("disks", [1, 2, 3])
def test_resolve_direction_matches_legal_moves(disks, pegs):
    """The size-rule resolver picks what a scan of the legal moves would:
    the first legal move along the edge, or None (one off-board peg
    included)."""
    for ending in applicable_endings(disks):
        cfg = cfg_of(disks, pegs, ending)
        for state in reachable_states(cfg):
            moves = legal_moves(state, cfg)
            for i in range(1, pegs + 2):
                for j in range(1, pegs + 2):
                    want = next(
                        (m for m in moves if {m.source, m.target} == {i, j}), None
                    )
                    assert resolve_direction(state, cfg, i, j) == want, (
                        ending, state, i, j,
                    )


def _outcome(apply, state, move, cfg):
    try:
        return apply(state, move, cfg)
    except IllegalMove as exc:
        return str(exc)


@pytest.mark.parametrize("pegs", [3, 4, 5])
@pytest.mark.parametrize("disks", [1, 2, 3, 4])
def test_rules_match_pair_by_pair_reference(disks, pegs):
    """The one-scan rules agree with the per-pair reference rules of
    ``helpers`` on every state the reference reaches: the same legal
    moves, edge resolutions and move results or messages, one off-board
    peg included."""
    board = range(1, pegs + 2)
    for ending in applicable_endings(disks):
        cfg = cfg_of(disks, pegs, ending)
        seen = {initial_state(cfg)}
        frontier = list(seen)
        while frontier:
            state = frontier.pop()
            moves = reference_legal_moves(state, cfg)
            assert legal_moves(state, cfg) == moves, (ending, state)
            for i in board:
                for j in board:
                    assert resolve_direction(
                        state, cfg, i, j
                    ) == reference_resolve_direction(state, cfg, i, j), (
                        ending, state, i, j,
                    )
                    move = Move(i, j)
                    assert _outcome(apply_move, state, move, cfg) == _outcome(
                        reference_apply_move, state, move, cfg
                    ), (ending, state, i, j)
            for move in moves:
                nxt = reference_apply_move(state, move, cfg)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)


def test_rules_match_reference_on_random_deep_games():
    """The one-scan rules agree with the per-pair reference rules on every
    state of seeded random games with 6 to 13 disks on 3 and 4 pegs, every
    applicable ending and varied start and final pegs: the reachable-state
    test above stops at 4 disks, the replayed plans go up to 13.  Each
    board also plays from a position where only disk 1 is off the stack
    and the largest disk may have moved, which random play from the start
    does not reach.  A board stepped through each game equals, after
    every ply, a fresh scan of the state the game reached, and so does
    the board carried by the state that ``apply_move`` returns."""
    rng = random.Random(2015)
    for pegs in (3, 4):
        board = range(1, pegs + 2)
        for disks in range(6, 14):
            for ending in applicable_endings(disks):
                start, final = rng.sample(range(1, pegs + 1), 2)
                cfg = cfg_of(disks, pegs, ending, start_peg=start, final_peg=final)
                smallest, stack = rng.sample(range(1, pegs + 1), 2)
                last = rng.randint(2, disks)
                near = GameState(
                    pos=(smallest,) + (stack,) * (disks - 1),
                    last_moved=last,
                    largest_moved=last == disks or rng.random() < 0.5,
                    smallest_moved=True,
                )
                for state, plies in ((initial_state(cfg), 20), (near, 5)):
                    stepped = Board(state, cfg)
                    played = state
                    for _ in range(plies):
                        moves = reference_legal_moves(state, cfg)
                        assert legal_moves(state, cfg) == moves, (cfg, state)
                        for i in board:
                            for j in board:
                                assert resolve_direction(
                                    state, cfg, i, j
                                ) == reference_resolve_direction(
                                    state, cfg, i, j
                                ), (cfg, state, i, j)
                                move = Move(i, j)
                                assert _outcome(
                                    apply_move, state, move, cfg
                                ) == _outcome(
                                    reference_apply_move, state, move, cfg
                                ), (cfg, state, i, j)
                        if not moves:
                            break
                        move = rng.choice(moves)
                        state = reference_apply_move(state, move, cfg)
                        # A board stepped through the game stays equal to
                        # a fresh scan of the state the game reached.
                        stepped.step(move)
                        assert board_fields(stepped) == board_fields(
                            Board(state, cfg)
                        ), (cfg, state)
                        # So does the board that the state returned by
                        # ``apply_move`` carries.
                        played = apply_move(played, move, cfg)
                        assert played == state, (cfg, state)
                        assert board_fields(vars(played)["_board"]) == board_fields(
                            Board(state, cfg)
                        ), (cfg, state)


def test_carried_boards_are_never_stepped_and_leave_the_value_alone():
    """The board a state carries is private to it: two moves applied to
    one state give independent successors and leave the state as it was;
    one state object asked under a 3-peg and a 4-peg config answers for
    each; and states returned by ``apply_move`` have the fields,
    equality, hash, repr and pickles of the same states built with
    ``GameState(...)``."""
    rng = random.Random(26)
    cfg = cfg_of(8)
    state = initial_state(cfg)
    played = []
    for _ in range(40):
        moves = legal_moves(state, cfg)
        if len(moves) > 1:
            before = board_fields(Board(state, cfg))
            first, second = (apply_move(state, move, cfg) for move in moves[:2])
            assert first != second
            for after, move in ((first, moves[0]), (second, moves[1])):
                assert after == reference_apply_move(state, move, cfg)
                assert legal_moves(after, cfg) == reference_legal_moves(after, cfg)
                assert board_fields(vars(after)["_board"]) == board_fields(
                    Board(after, cfg)
                )
            assert board_fields(vars(state)["_board"]) == before
            assert legal_moves(state, cfg) == moves
        state = apply_move(state, rng.choice(moves), cfg)
        played.append(state)

    three, four = cfg_of(4, 3, Ending.ANY_SMALLEST), cfg_of(4, 4, Ending.ANY_SMALLEST)
    mixed = GameState(pos=(2, 1, 1, 3), last_moved=1, smallest_moved=True)
    for cfg in (three, four, three, cfg_of(4, 3, Ending.ANY_SMALLEST), four):
        assert legal_moves(mixed, cfg) == reference_legal_moves(mixed, cfg)
        for i in range(1, 5):
            for j in range(1, 5):
                assert resolve_direction(
                    mixed, cfg, i, j
                ) == reference_resolve_direction(mixed, cfg, i, j), (cfg, i, j)
                move = Move(i, j)
                assert _outcome(apply_move, mixed, move, cfg) == _outcome(
                    reference_apply_move, mixed, move, cfg
                ), (cfg, i, j)
        assert not is_terminal(mixed, cfg)

    built = [GameState(*(getattr(s, f.name) for f in fields(s))) for s in played]
    assert all("_board" in vars(s) for s in played)
    assert fields(played[0]) == fields(built[0]) == fields(GameState)
    assert played == built
    assert [hash(s) for s in played] == [hash(s) for s in built]
    assert repr(played) == repr(built)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(played, protocol) == pickle.dumps(built, protocol)
        assert [pickle.dumps(s, protocol) for s in played] == [
            pickle.dumps(s, protocol) for s in built
        ]
    last = played[-1]
    for twin in (pickle.loads(pickle.dumps(last)), copy.copy(last), copy.deepcopy(last)):
        assert twin == last and "_board" not in vars(twin)


def _as_built(state):
    """The same value built with ``GameState(...)``."""
    return GameState(*(getattr(state, f.name) for f in fields(state)))


def _assert_built_alike(state):
    built = _as_built(state)
    assert state == built and hash(state) == hash(built) and repr(state) == repr(built)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(state, protocol) == pickle.dumps(built, protocol)


def test_states_without_a_board_step_a_fresh_scan():
    """``apply_move`` on a state that carries no board for its ``cfg``
    (built with ``GameState(...)``, unpickled, or carrying the board of
    another ``cfg`` object, equal or not) steps a fresh scan, hands it to
    the state it returns and leaves the given state as it was.  The
    states of ``Board.state`` and ``apply_move`` equal, hash, print and
    pickle (protocols 0 to 5) as ``GameState(...)`` does, and every move
    agrees with the reference rules."""
    rng = random.Random(28)
    for pegs, disks in ((3, 1), (3, 3), (3, 6), (4, 2), (4, 5)):
        for ending in applicable_endings(disks):
            cfg = cfg_of(disks, pegs, ending)
            twin, other = cfg_of(disks, pegs, ending), cfg_of(disks, pegs + 1, ending)
            state = initial_state(cfg)
            for _ in range(12):
                board = Board(state, cfg)
                assert board.state() == state
                _assert_built_alike(board.state())
                asked = [_as_built(state), _as_built(state)]
                legal_moves(asked[0], twin)
                legal_moves(asked[1], other)
                for given in (_as_built(state), pickle.loads(pickle.dumps(state)), *asked):
                    before = vars(given).copy()
                    for i in range(1, pegs + 1):
                        for j in range(1, pegs + 1):
                            move = Move(i, j)
                            got = _outcome(apply_move, given, move, cfg)
                            assert got == _outcome(reference_apply_move, state, move, cfg)
                            if isinstance(got, GameState):
                                _assert_built_alike(got)
                                assert board_fields(vars(got)["_board"]) == board_fields(
                                    Board(got, cfg)
                                )
                            assert vars(given) == before, (cfg, state, move)
                moves = reference_legal_moves(state, cfg)
                if not moves:
                    break
                state = reference_apply_move(state, rng.choice(moves), cfg)


def test_stepped_board_matches_a_fresh_scan_on_scoring_plans():
    """A board stepped through a pumped scoring plan, as ``replay`` steps
    it, equals after every ply a fresh scan of the state that the
    reference rules reach: n = 6 to 13 on three pegs, seeded unequal
    weights, every ending."""
    rng = random.Random(23)
    for disks in range(6, 14):
        for ending in Ending:
            cfg = cfg_of(disks, ending=ending)
            w = Weights.of(*rng.sample(range(-3, 4), 3))
            state = initial_state(cfg)
            board = Board(state, cfg)
            for i, j in expand(scoring_strategy(cfg, w).full):
                move = board.direction(i, j)
                board.step(move)
                state = reference_apply_move(state, move, cfg)
                fresh = Board(state, cfg)
                assert board_fields(board) == board_fields(fresh), (cfg, w, state)
            assert board.over


def _near_complete_states(cfg):
    """Hand-made positions with n - 1 disks on one peg and disk 1 or disk
    n on another, with one of the two flags raised, which play from the
    start need not reach."""
    disks, board = cfg.disks, range(1, cfg.pegs + 1)
    for stack in board:
        for odd_peg in board:
            if odd_peg == stack:
                continue
            for odd in (1, disks):
                pos = tuple(odd_peg if d == odd else stack for d in range(1, disks + 1))
                for largest in (False, True):
                    yield GameState(pos, None, largest, not largest)


def test_memo_answers_match_the_reference_past_the_reachable_range():
    """With the memo ``_free_moves`` cleared first, ``legal_moves`` and
    ``resolve_direction`` agree with the per-pair reference rules where
    the reachable-state test above does not look: on every reachable
    state of three pegs with n = 5 in every ending, and on hand-made
    near-complete states of three pegs n = 5, four pegs n = 4 and five
    pegs n = 3, for every (i, j) in 0..pegs+1, peg 0 included."""
    _free_moves.cache_clear()
    for pegs, disks in ((3, 5), (4, 4), (5, 3)):
        span = range(pegs + 2)
        for ending in applicable_endings(disks):
            cfg = cfg_of(disks, pegs, ending)
            states = list(_near_complete_states(cfg))
            if pegs == 3:
                states += reachable_states(cfg)
            for state in states:
                state = _as_built(state)
                assert legal_moves(state, cfg) == reference_legal_moves(state, cfg), (
                    cfg, state,
                )
                # The reference is symmetric in i and j, and refuses equal
                # and off-board pegs before anything else.
                want = {}
                for i, j in combinations(range(1, pegs + 1), 2):
                    want[i, j] = want[j, i] = reference_resolve_direction(
                        state, cfg, i, j
                    )
                for i in span:
                    for j in span:
                        assert resolve_direction(state, cfg, i, j) == want.get(
                            (i, j)
                        ), (cfg, state, i, j)


def test_memo_answers_stay_right_past_its_cap_on_a_long_playout():
    """A seeded random playout of 24,000 plies on five pegs with n = 12
    meets more signatures than the memo holds: its answers share at
    most 2,000 distinct move lists, and every answer equals the per-pair
    reference rules."""
    cfg = cfg_of(12, 5, Ending.ANY_SMALLEST)
    _free_moves.cache_clear()
    rng = random.Random(31)
    state = initial_state(cfg)
    answers = {}
    for _ in range(24_000):
        moves = legal_moves(state, cfg)
        assert moves == reference_legal_moves(state, cfg), state
        answers[id(moves)] = moves
        if not moves:
            state = initial_state(cfg)
            continue
        move = moves[rng.randrange(len(moves))]
        assert resolve_direction(state, cfg, move.target, move.source) == move
        state = apply_move(state, move, cfg)
    assert _free_moves.cache_info().misses > _free_moves.cache_info().maxsize
    assert len(answers) <= 2000


class TestTermination:
    def test_to_peg(self):
        cfg = cfg_of(2)
        assert is_terminal(GameState(pos=(3, 3), last_moved=1), cfg)
        assert not is_terminal(GameState(pos=(2, 2), last_moved=1), cfg)
        assert not is_terminal(GameState(pos=(3, 2), last_moved=1), cfg)

    def test_return_needs_flag(self):
        cfg = cfg_of(2, ending=Ending.RETURN_LARGEST)
        home = GameState(pos=(1, 1), last_moved=1, largest_moved=False)
        assert not is_terminal(home, cfg)
        moved = GameState(pos=(1, 1), last_moved=1, largest_moved=True)
        assert is_terminal(moved, cfg)

    def test_any_peg_endings(self):
        cfg = cfg_of(2, ending=Ending.ANY_LARGEST)
        on2 = GameState(pos=(2, 2), last_moved=1, largest_moved=True)
        assert is_terminal(on2, cfg)
        cfg5 = cfg_of(2, ending=Ending.ANY_SMALLEST)
        assert is_terminal(
            GameState(pos=(2, 2), last_moved=1, smallest_moved=True), cfg5
        )
        assert not is_terminal(
            GameState(pos=(1, 1), last_moved=None), cfg5
        )

    def test_start_variant(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG, start_peg=2, final_peg=1)
        s = initial_state(cfg)
        assert s.pos == (2, 2)
        assert is_terminal(GameState(pos=(1, 1), last_moved=1), cfg)


class TestStateCodec:
    def test_space_size(self):
        assert state_space(cfg_of(2)) == 108
        assert state_space(cfg_of(3, pegs=4)) == 1024

    @pytest.mark.parametrize("disks,pegs", [(2, 3), (3, 3), (2, 4)])
    def test_index_round_trip_exhaustive(self, disks, pegs):
        cfg = cfg_of(disks, pegs=pegs)
        for idx in range(state_space(cfg)):
            st = state_from_index(idx, cfg)
            assert state_index(st, cfg) == idx

    def test_index_out_of_range(self):
        cfg = cfg_of(2)
        with pytest.raises(GameError):
            state_from_index(108, cfg)

    def test_text_round_trip(self):
        cfg = cfg_of(2)
        s = apply_move(initial_state(cfg), Move(1, 3), cfg)
        text = state_to_text(s, cfg)
        assert text == "pegs=3;disks=2;pos=3,1;last=1;flags=01"
        back, pegs, disks = state_from_text(text)
        assert (pegs, disks) == (3, 2)
        assert back == s

    @pytest.mark.parametrize(
        "bad",
        [
            "pegs=3;disks=2;pos=3;last=1;flags=01",
            "pegs=3;disks=2;pos=3,1;last=9;flags=01",
            "pegs=3;disks=2;pos=3,1;last=1;flags=5",
            "no fields at all",
        ],
    )
    def test_text_rejects_malformed(self, bad):
        with pytest.raises(GameError):
            state_from_text(bad)


@st.composite
def walks(draw):
    disks = draw(st.integers(min_value=1, max_value=4))
    pegs = draw(st.sampled_from([3, 4]))
    endings = applicable_endings(disks)
    ending = draw(st.sampled_from(endings))
    steps = draw(st.lists(st.integers(min_value=0, max_value=11), max_size=40))
    return disks, pegs, ending, steps


@settings(max_examples=150, deadline=None)
@given(walks())
def test_random_walks_stay_valid(walk):
    """Random legal play never produces an invalid state and the move
    flags only ever switch on."""
    disks, pegs, ending, steps = walk
    cfg = GameConfig(disks=disks, pegs=pegs, ending=ending)
    state = initial_state(cfg)
    for pick in steps:
        moves = legal_moves(state, cfg)
        if not moves:
            assert is_terminal(state, cfg)
            break
        move = moves[pick % len(moves)]
        nxt = apply_move(state, move, cfg)
        validate_state(nxt, cfg)
        assert state_from_index(state_index(nxt, cfg), cfg) == nxt
        assert nxt.largest_moved >= state.largest_moved
        assert nxt.smallest_moved >= state.smallest_moved
        assert nxt.last_moved is not None
        state = nxt


def test_weights_helpers():
    w = Weights.of(1, "1/2", 0.25)
    assert w.edge(1, 2) == 1
    assert w.edge(3, 1) == w.w13
    assert w.as_tuple()[2].denominator == 4
    assert not w.is_uniform
    assert Weights.of(2, 2, 2).is_uniform
    m12, m13, m23, mult = w.scaled_integers()
    assert (m12, m13, m23) == (4, 2, 1)
    assert mult == 4


def test_weights_permuted():
    w = Weights.of(1, 2, 3)
    # Swap pegs 2 and 3: the 1-2 edge becomes the 1-3 edge.
    sw = w.permuted({1: 1, 2: 3, 3: 2})
    assert sw == Weights.of(2, 1, 3)
