"""Sequence grammar, algebra, and replay semantics."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanoiduel import (
    Atom,
    Concat,
    Ending,
    GameConfig,
    GameError,
    GameState,
    InfiniteRepetition,
    NotationError,
    Repeat,
    Weights,
    expand,
    initial_state,
    parse,
    replay,
    reverse_seq,
    seq_length,
    to_text,
)
from hanoiduel.construct import (
    _TWO_DISK_EXPR,
    even_transfer,
    exceptional_three_disk,
    exceptional_three_disk_pumped,
    minimal_transfer,
    odd_transfer,
    permute_seq,
    return_transfer,
    scoring_strategy,
    sigma_for,
    two_disk_family,
)
from hanoiduel.notation import (
    MAX_GROUP_DEPTH,
    MAX_LINE_MOVES,
    PegOutOfRange,
    SequenceSyntaxError,
    atoms_to_expr,
    signed_counts,
)

from helpers import (
    applicable_endings,
    needs_default_int_limit,
    reference_apply_move,
    reference_expand,
    reference_legal_moves,
    reference_permute_seq,
    reference_replay,
    reference_reverse_seq,
    reference_seq_length,
    reference_signed_counts,
    reference_to_text,
    replay_text,
    unique_nodes,
)


def test_parse_single_move():
    assert parse("13") == Atom(1, 3)


def test_parse_concat():
    assert expand(parse("13-12-23")) == ((1, 3), (1, 2), (2, 3))


def test_parse_repeat():
    e = parse("(13-12)^3")
    assert isinstance(e, Repeat)
    assert seq_length(e) == 6


def test_parse_nested():
    e = parse("12-(13-(12-23)^2)^2-13")
    assert seq_length(e) == 1 + 2 * (1 + 4) + 1
    assert expand(e)[0] == (1, 2)
    assert expand(e)[-1] == (1, 3)


def test_parse_whitespace():
    assert expand(parse(" 13 - 12 ")) == ((1, 3), (1, 2))


def test_parse_zero_exponent():
    assert expand(parse("(13)^0")) == ()


@pytest.mark.parametrize("text", ["(12)^∞", "(12)^inf"])
def test_parse_infinite_repetition(text):
    with pytest.raises(InfiniteRepetition):
        parse(text)


@pytest.mark.parametrize(
    "text",
    ["", "1", "11", "13-", "-13", "(13", "(13)", "13)^2", "^2", "(13-12)^", "13--12"],
)
def test_parse_syntax_errors(text):
    with pytest.raises(SequenceSyntaxError):
        parse(text)


def test_parse_peg_range():
    with pytest.raises(PegOutOfRange):
        parse("14", pegs=3)
    assert parse("14", pegs=4) == Atom(1, 4)
    with pytest.raises(PegOutOfRange):
        parse("10")


def test_error_position():
    try:
        parse("13-12-99", pegs=3)
    except NotationError as exc:
        assert exc.position == 6
    else:
        pytest.fail("no error raised")


def test_atoms_canonical():
    assert Atom(3, 1) == Atom(3, 1)
    assert atoms_to_expr([(3, 1), (2, 3)]) == Concat((Atom(1, 3), Atom(2, 3)))


def test_to_text_round_trip_fixture():
    text = "12-(13-12-23)^3-13"
    assert to_text(parse(text)) == text


def test_reverse_expand():
    e = parse("12-(13-23)^2")
    assert expand(reverse_seq(e)) == tuple(reversed(expand(e)))


_atoms = st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda t: t[0] != t[1])


@st.composite
def exprs(draw, depth=0):
    if depth >= 3:
        i, j = draw(_atoms)
        return Atom(i, j)
    kind = draw(st.integers(0, 2))
    if kind == 0:
        i, j = draw(_atoms)
        return Atom(i, j)
    if kind == 1:
        parts = draw(st.lists(exprs(depth=depth + 1), min_size=1, max_size=4))
        return Concat(tuple(parts))
    return Repeat(draw(exprs(depth=depth + 1)), draw(st.integers(1, 4)))


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_text_round_trips_preserve_moves(e):
    assert expand(parse(to_text(e))) == expand(e)


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_reverse_is_an_involution(e):
    assert expand(reverse_seq(reverse_seq(e))) == expand(e)
    assert seq_length(reverse_seq(e)) == seq_length(e)


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_reverse_matches_recursive_reversal(e):
    assert reverse_seq(e) == reference_reverse_seq(e)


def test_reverse_keeps_shared_nodes_shared():
    # The cached transfer and the odd transfer share subtrees; reversing
    # them must not unfold the sharing into a tree of 2^n nodes.
    from hanoiduel.construct import (
    _TWO_DISK_EXPR,
    even_transfer,
    exceptional_three_disk,
    exceptional_three_disk_pumped,
    minimal_transfer,
    odd_transfer,
    permute_seq,
    return_transfer,
    scoring_strategy,
    sigma_for,
    two_disk_family,
)

    s2 = permute_seq(odd_transfer(13, (1, 1) + (3,) * 11), sigma_for(3))
    for e in (minimal_transfer(12, 1, 3), s2):
        reversed_e = reverse_seq(e)
        assert reversed_e == reference_reverse_seq(e)
        assert unique_nodes(reversed_e) <= unique_nodes(e) < 500


def test_length_measures_shared_nodes_once():
    # A 200-disk transfer is 2^200 - 1 moves on a few hundred shared nodes.
    from hanoiduel.construct import minimal_transfer, return_transfer

    assert seq_length(minimal_transfer(200, 1, 3)) == 2**200 - 1
    for variant in (1, 2):
        assert seq_length(return_transfer(200, variant)) == 2**201 - 1


@settings(max_examples=200, deadline=None)
@given(exprs())
def test_reverse_preserves_edge_multiset(e):
    normalize = lambda moves: sorted(tuple(sorted(m)) for m in moves)
    assert normalize(expand(reverse_seq(e))) == normalize(expand(e))


@st.composite
def shared_exprs(draw):
    """Trees whose nodes reuse earlier nodes, so subtrees are shared."""
    pool = [draw(exprs()) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 4))):
        pick = st.sampled_from(tuple(pool))
        if draw(st.booleans()):
            node = Concat(tuple(draw(st.lists(pick, min_size=1, max_size=2))))
        else:
            node = Repeat(draw(pick), draw(st.integers(0, 2)))
        pool.append(node)
    return pool[-1]


@settings(max_examples=200, deadline=None)
@given(st.one_of(exprs(), shared_exprs()), st.permutations((1, 2, 3)))
def test_walkers_match_recursive_references(e, pegs):
    sigma = dict(zip((1, 2, 3), pegs))
    assert to_text(e) == reference_to_text(e)
    assert expand(e) == reference_expand(e)
    assert seq_length(e) == reference_seq_length(e)
    assert reverse_seq(e) == reference_reverse_seq(e)
    assert permute_seq(e, sigma) == reference_permute_seq(e, sigma)


@settings(max_examples=200, deadline=None)
@given(st.one_of(exprs(), shared_exprs()))
def test_signed_counts_match_the_expanded_line(e):
    assert signed_counts(e) == reference_signed_counts(e)


def test_signed_counts_refuse_a_move_off_three_pegs():
    with pytest.raises(ValueError, match="move 14 is not on a three-peg board"):
        signed_counts(parse("12-14", pegs=4))


def _built_lines():
    """Lines ``construct`` builds: transfers up to n=10, the two-disk
    families and reach lines, the exceptional three-disk lines and pumped
    plans for seeded weights."""
    rng = random.Random(10)
    for disks in range(1, 11):
        for source in (1, 2, 3):
            for target in {1, 2, 3} - {source}:
                yield minimal_transfer(disks, source, target)
        if disks >= 2:
            for _ in range(4):
                target = tuple(rng.choice((1, 2, 3)) for _ in range(disks))
                yield odd_transfer(disks, target)
                if len(set(target)) > 1:
                    yield even_transfer(disks, target)
            yield from (return_transfer(disks, variant) for variant in (1, 2))
    for case in range(1, 7):
        yield from (two_disk_family(case, k) for k in range(4))
    yield from _TWO_DISK_EXPR.values()
    for smallest in ("w12", "w23"):
        for variant in (1, 2):
            yield exceptional_three_disk(smallest, variant)
            yield from (exceptional_three_disk_pumped(smallest, variant, p) for p in range(4))
    halves = [Fraction(k, 2) for k in range(-8, 9)]
    for disks in range(3, 11):
        for ending in applicable_endings(disks):
            w = Weights(*rng.sample(halves, 3))
            yield scoring_strategy(GameConfig(disks, 3, ending), w).full


def test_recorded_length_is_the_expanded_length_of_built_lines():
    for e in _built_lines():
        assert seq_length(e) == len(expand(e)), to_text(e)


@settings(max_examples=200, deadline=None)
@given(st.one_of(exprs(), shared_exprs()))
def test_recorded_length_is_the_expanded_length_of_parsed_lines(e):
    parsed = parse(to_text(e))
    assert seq_length(parsed) == len(expand(parsed)) == seq_length(e) == len(expand(e))


def test_recorded_length_leaves_equality_hash_and_repr_alone():
    body, parts = parse("13-23"), (Atom(1, 2), parse("(13-23)^2"))
    assert repr(Concat(parts)) == (
        "Concat(parts=(Atom(i=1, j=2), Repeat(body=Concat(parts=(Atom(i=1, j=3), "
        "Atom(i=2, j=3))), count=2)))"
    )
    assert repr(Repeat(body, 0)) == (
        "Repeat(body=Concat(parts=(Atom(i=1, j=3), Atom(i=2, j=3))), count=0)")
    assert hash(Concat(parts)) == hash((parts,))
    assert hash(Repeat(body, 2)) == hash((body, 2))
    assert Concat(parts) == parse("12-(13-23)^2")
    assert Repeat(body, 2) == parts[1] and Repeat(body, 3) != parts[1]
    # Equal lines of different shape stay different trees.
    assert Concat((body,)) != body and Repeat(body, 1) != body


@needs_default_int_limit
def test_replay_refuses_an_exponent_at_the_digit_limit_before_expanding():
    cfg = GameConfig(3, 3, Ending.TO_PEG)
    top = "9" * 4300  # the most digits the interpreter reads
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as once:
            replay(cfg, None, parse(f"(12)^{top}"))
        with pytest.raises(ValueError) as twice:
            replay(cfg, None, parse(f"((12)^{top})^{top}"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(once.value) == f"a line of {top} moves exceeds the cap of {MAX_LINE_MOVES} moves"
    assert str(twice.value) == (
        f"a line of at least 10^4300 moves exceeds the cap of {MAX_LINE_MOVES} moves")
    assert peak < 2_000_000


def test_walkers_handle_a_chain_deeper_than_the_recursion_limit():
    depth = 5000
    assert sys.getrecursionlimit() < depth
    e, text = Atom(1, 2), "12"
    for level in range(depth):
        if level % 2:
            e, text = Repeat(e, 1), f"({text})^1"
        else:
            e, text = Concat((e, Atom(1, 3))), f"{text}-13"
    moves = ((1, 2),) + ((1, 3),) * (depth // 2)
    assert to_text(e) == text
    assert expand(e) == moves
    assert seq_length(e) == len(moves)
    assert expand(reverse_seq(e)) == moves[::-1]
    assert expand(permute_seq(e, {1: 3, 2: 2, 3: 1})) == ((2, 3),) + moves[1:]


def test_relabelled_and_reversed_deep_transfers_stay_shared():
    disks = 3000
    rng = random.Random(disks)
    e = odd_transfer(disks, tuple(rng.choice((1, 2, 3)) for _ in range(disks)))
    for out in (permute_seq(e, sigma_for(3)), reverse_seq(e)):
        assert unique_nodes(out) <= 8 * disks
        assert seq_length(out) == seq_length(e)


def test_expand_refuses_a_line_over_the_cap_before_building_it():
    assert len(expand(parse(f"(12)^{MAX_LINE_MOVES}"))) == MAX_LINE_MOVES
    over = (parse(f"(12)^{2 * MAX_LINE_MOVES}"), minimal_transfer(996, 1, 3))
    tracemalloc.start()
    try:
        for e in over:
            with pytest.raises(ValueError) as info:
                expand(e)
            assert str(info.value) == (
                f"a line of {seq_length(e)} moves exceeds the cap of "
                f"{MAX_LINE_MOVES} moves"
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measuring the 996-disk transfer takes a few hundred kB; a tuple of
    # MAX_LINE_MOVES moves alone would take 8 MB.
    assert peak < 2_000_000


@needs_default_int_limit
def test_expand_names_a_length_too_long_to_print():
    # 2^15000 - 1 moves: 4516 digits, more than the interpreter prints.
    with pytest.raises(ValueError) as info:
        expand(minimal_transfer(15000, 1, 3))
    assert str(info.value) == (
        f"a line of at least 10^4300 moves exceeds the cap of {MAX_LINE_MOVES} moves"
    )


@needs_default_int_limit
def test_parse_names_an_exponent_too_long_to_read():
    with pytest.raises(SequenceSyntaxError) as info:
        parse("(12)^" + "9" * 5000)
    assert info.value.position == 5
    assert str(info.value) == (
        "exponent has more than 4300 digits, the most this interpreter reads"
        " (at index 5)"
    )


@pytest.mark.parametrize("text,position", [("1²", 1), ("(12)^²", 5), ("(12)^1²", 6)])
def test_parse_refuses_digits_that_are_not_decimal(text, position):
    with pytest.raises(SequenceSyntaxError) as info:
        parse(text)
    assert info.value.position == position


def test_parse_refuses_groups_nested_too_deep():
    def nested(depth):
        return "(" * depth + "12" + ")^1" * depth

    assert seq_length(parse(nested(MAX_GROUP_DEPTH))) == 1
    for depth in (MAX_GROUP_DEPTH + 1, 600):
        with pytest.raises(SequenceSyntaxError, match="nested deeper than"):
            parse(nested(depth))


class TestReplay:
    def test_table_row(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.RETURN_LARGEST)
        r = replay_text(cfg, "13-12-13-23-12-13-12")
        assert r.legal and r.terminal
        assert r.plies_applied == 7
        assert r.final_state.pos == (1, 1)

    def test_ban_violation_reported(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        r = replay_text(cfg, "13-13")
        assert not r.legal
        assert r.failed_at == 2

    def test_unresolvable_edge(self):
        # Both directions of 2-3 are empty at the start.
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        r = replay_text(cfg, "23")
        assert not r.legal and r.failed_at == 1

    def test_trailing_moves_after_terminal(self):
        cfg = GameConfig(disks=1, pegs=3, ending=Ending.TO_PEG)
        r = replay_text(cfg, "13-23")
        assert r.terminal
        assert not r.legal
        assert r.failed_at == 2

    def test_direction_resolution(self):
        # Third atom 13 must run 3->1 because disk 1 sits on peg 3.
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        r = replay_text(cfg, "13-12-13")
        assert r.legal
        assert r.final_state.pos == (1, 2)

    def test_point_attribution(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        w = Weights.of(1, 2, 3)
        r = replay_text(cfg, "13-12", w)
        assert r.a_points == 2
        assert r.b_points == 1
        assert r.delta == 1

    def test_forced_even_plies(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        assert replay_text(cfg, "12-13-23").forced_even_plies
        cfg3 = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
        assert replay_text(cfg3, "13-12-23-13-12-23-13").forced_even_plies

    def test_illegal_even_ply_keeps_forcing(self):
        # Forcing is judged on the even plies that were played only.  Here
        # ply 2 fails, once after the game ended on ply 1 (no legal move
        # left) and once with two legal moves the banned atom is not among.
        one = GameConfig(disks=1, pegs=3, ending=Ending.ANY_SMALLEST, start_peg=2)
        r = replay_text(one, "12-12-(12-12)^2")
        assert (r.legal, r.failed_at, r.forced_even_plies) == (False, 2, True)
        assert r.terminal and r.plies_applied == 1
        four = GameConfig(disks=2, pegs=4, ending=Ending.TO_PEG)
        r = replay_text(four, "12-12")
        assert (r.legal, r.failed_at, r.forced_even_plies) == (False, 2, True)
        assert not r.terminal and r.plies_applied == 1

    def test_points_on_unweighted_edge_rejected(self):
        cfg = GameConfig(disks=2, pegs=4, ending=Ending.TO_PEG)
        with pytest.raises(ValueError, match="no weight for edge 1-4"):
            replay_text(cfg, "14-12", Weights.of(1, 2, 3))

    def test_replay_from_explicit_state(self):
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        s = initial_state(cfg)
        r = replay(cfg, s, parse("12-13-23"))
        assert r.terminal

    @pytest.mark.parametrize("pos", [(0, 1), (4, 1), (-1, 1), (1, 1, 1)])
    def test_start_state_off_the_board_rejected(self, pos):
        # Off-board pegs and a wrong disk count are refused before any ply.
        cfg = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
        with pytest.raises(GameError):
            replay(cfg, GameState(pos), parse("12"))


@st.composite
def replay_cases(draw):
    """A game on 3-5 pegs with 1-6 disks under an applicable ending, a start
    (the initial state, any position, or a full stack, which may be
    terminal, each with random flags and last-moved disk), a line of 1-40
    atoms, and weights on three pegs or none.  Half the lines are random
    atoms, most of them illegal early; the other half follow legal moves
    from the start and then add random atoms, so they reach forced and
    terminal plies."""
    pegs = draw(st.integers(3, 5))
    disks = draw(st.integers(1, 6))
    ending = draw(st.sampled_from(applicable_endings(disks)))
    start_peg, final_peg = draw(st.permutations(range(1, pegs + 1)))[:2]
    cfg = GameConfig(disks, pegs, ending, start_peg, final_peg)
    board = st.integers(1, pegs)
    kind = draw(st.sampled_from(("initial", "any", "stack")))
    start = None
    if kind != "initial":
        pos = (
            draw(st.tuples(*[board] * disks))
            if kind == "any"
            else (draw(board),) * disks
        )
        start = GameState(
            pos,
            draw(st.none() | st.integers(1, disks)),
            draw(st.booleans()),
            draw(st.booleans()),
        )
    atom = st.tuples(board, board).filter(lambda t: t[0] != t[1])
    atoms = []
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        state = initial_state(cfg) if start is None else start
        for _ in range(draw(st.integers(0, 39))):
            moves = reference_legal_moves(state, cfg)
            if not moves:
                break
            move = rng.choice(moves)
            atoms.append((move.source, move.target))
            state = reference_apply_move(state, move, cfg)
    atoms += draw(st.lists(atom, min_size=1, max_size=40 - len(atoms)))
    weights = None
    if pegs == 3 and draw(st.booleans()):
        part = st.fractions(-4, 4, max_denominator=3)
        weights = Weights(draw(part), draw(part), draw(part))
    return cfg, start, atoms_to_expr(atoms), weights


@settings(max_examples=400, deadline=None)
@given(replay_cases())
def test_replay_matches_the_per_ply_reference(case):
    """Replay on one stepped board gives the report, field by field, of
    the reference replay that checks and plays every ply on a fresh state."""
    assert replay(*case) == reference_replay(*case)


def test_replay_names_the_unweighted_edge_after_a_legal_move():
    # Ply 1 (12) is legal and scored; ply 2 (14) is legal but has no weight.
    cfg = GameConfig(disks=2, pegs=4, ending=Ending.TO_PEG)
    line, w = parse("12-14"), Weights.of(1, 2, 3)
    for play in (replay, reference_replay):
        with pytest.raises(ValueError, match="no weight for edge 1-4"):
            play(cfg, None, line, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 18))
def test_delta_additivity_over_even_splits(seed, plies):
    """Splitting a legal game after an even ply leaves per-player points
    additive across the two halves."""
    import random

    from hanoiduel import apply_move, legal_moves

    rng = random.Random(seed)
    cfg = GameConfig(disks=3, pegs=3, ending=Ending.ANY_SMALLEST)
    w = Weights.of(1, -2, Fraction(1, 2))
    state = initial_state(cfg)
    moves = []
    for _ in range(plies):
        options = legal_moves(state, cfg)
        if not options:
            break
        mv = rng.choice(options)
        moves.append((mv.source, mv.target))
        state = apply_move(state, mv, cfg)
    if len(moves) < 2:
        return
    cut = len(moves) // 2 * 2
    whole = replay(cfg, None, atoms_to_expr(moves), w)
    first = replay(cfg, None, atoms_to_expr(moves[:cut]), w)
    rest = replay(cfg, first.final_state, atoms_to_expr(moves[cut:]), w)
    assert whole.legal
    assert whole.a_points == first.a_points + rest.a_points
    assert whole.b_points == first.b_points + rest.b_points
