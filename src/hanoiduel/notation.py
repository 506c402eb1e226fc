"""Move-sequence notation: AST, parser, printer and replay.

A move is written as two peg digits, e.g. ``13``.  The pair names the edge
between two pegs, not a direction: in any position at most one of the two
directions along an edge can be legal (the smaller top disk goes onto the
larger), so replay resolves the direction from the current state.

Grammar (whitespace is ignored everywhere)::

    seq  := term ('-' term)*
    term := MOVE | '(' seq ')' '^' INT
    MOVE := DIGIT DIGIT        (two distinct pegs, 1..9)

``(...)^k`` repeats a group k times (k = 0 is allowed and expands to
nothing).  An infinite exponent (``^inf`` or the infinity sign) names a
drawing loop and cannot be expanded; parsing one raises
:class:`InfiniteRepetition`.  Pegs beyond the board (or the digit 0) raise
:class:`PegOutOfRange`.  The digit syntax caps boards at nine pegs, which is
plenty for every game studied here.

Trees share nodes: a transfer of n disks is 2^n - 1 moves on O(n) nodes.
Each Concat and Repeat node records its length when it is built, from its
children's, so :func:`seq_length` reads one field.  Every other question
about a tree (its text, its signed edge counts, its reversal, and
relabelling its pegs in ``construct``) is a callback on one fold,
:func:`fold_seq`, which walks the tree with an explicit stack and visits
each distinct node once: deep Concat and Repeat chains cost no recursion,
and shared subtrees no repeated work.  Only :func:`expand`, and
so :func:`replay`, which plays the line, builds the moves; a line longer
than ``MAX_LINE_MOVES`` is never expanded.  The parser refuses groups
nested deeper than ``MAX_GROUP_DEPTH``.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .core import (
    Board,
    GameConfig,
    GameState,
    Weights,
    count_text,
    initial_state,
    validate_state,
)


# Longest line ``expand`` builds (and so ``replay`` plays).
MAX_LINE_MOVES = 2**20

# Deepest nesting of ``(...)^k`` groups the parser accepts.
MAX_GROUP_DEPTH = 100


class NotationError(Exception):
    """Base class for notation parsing errors."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at index {position})")
        self.position = position


class SequenceSyntaxError(NotationError):
    """Malformed sequence text."""


class PegOutOfRange(NotationError):
    """A move names peg 0 or a peg beyond the board."""


class InfiniteRepetition(NotationError):
    """An infinite exponent cannot be expanded into a finite sequence."""


@dataclass(frozen=True)
class Atom:
    """One move along the edge between pegs ``i`` and ``j``."""

    i: int
    j: int


@dataclass(frozen=True)
class Concat:
    """Its parts in order; ``length`` counts the moves they expand to."""

    parts: tuple["SeqExpr", ...]
    length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "length", sum(
            1 if type(p) is Atom else p.length for p in self.parts))


@dataclass(frozen=True)
class Repeat:
    """``body`` played ``count`` times; ``length`` counts the moves."""

    body: "SeqExpr"
    count: int
    length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        body = self.body
        object.__setattr__(self, "length", self.count * (
            1 if type(body) is Atom else body.length))


SeqExpr = Atom | Concat | Repeat


def atoms_to_expr(pairs) -> SeqExpr:
    """Build an expression from (i, j) pairs (a single Atom or a Concat)."""
    atoms = tuple(Atom(min(i, j), max(i, j)) for i, j in pairs)
    if not atoms:
        return Concat(())
    if len(atoms) == 1:
        return atoms[0]
    return Concat(atoms)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # groups open at the current position

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str | None:
        c = self.peek()
        if c is not None:
            self.pos += 1
        return c


def parse(text: str, pegs: int = 9) -> SeqExpr:
    """Parse sequence text into an AST.

    ``pegs`` bounds the peg digits accepted (at most 9).
    """
    scanner = _Scanner(text)
    if scanner.peek() is None:
        raise SequenceSyntaxError("empty sequence", scanner.pos)
    expr = _parse_seq(scanner, min(pegs, 9))
    if scanner.peek() is not None:
        raise SequenceSyntaxError(
            f"unexpected character {scanner.peek()!r}", scanner.pos
        )
    return expr


def _parse_seq(scanner: _Scanner, pegs: int) -> SeqExpr:
    parts = [_parse_term(scanner, pegs)]
    while scanner.peek() == "-":
        scanner.take()
        parts.append(_parse_term(scanner, pegs))
    if len(parts) == 1:
        return parts[0]
    return Concat(tuple(parts))


def _parse_peg(scanner: _Scanner, pegs: int) -> int:
    c = scanner.peek()
    at = scanner.pos
    if c is None or not c.isdecimal():
        raise SequenceSyntaxError(
            "expected a peg digit" if c is None else f"expected a peg digit, got {c!r}",
            at,
        )
    scanner.take()
    peg = int(c)
    if peg == 0 or peg > pegs:
        raise PegOutOfRange(f"peg {peg} is not on a board with {pegs} pegs", at)
    return peg


def _parse_term(scanner: _Scanner, pegs: int) -> SeqExpr:
    c = scanner.peek()
    at = scanner.pos
    if c == "(":
        scanner.take()
        scanner.depth += 1
        if scanner.depth > MAX_GROUP_DEPTH:
            raise SequenceSyntaxError(f"groups nested deeper than {MAX_GROUP_DEPTH}", at)
        body = _parse_seq(scanner, pegs)
        if scanner.peek() != ")":
            raise SequenceSyntaxError("expected ')'", scanner.pos)
        scanner.take()
        scanner.depth -= 1
        if scanner.peek() != "^":
            raise SequenceSyntaxError("expected '^' after ')'", scanner.pos)
        scanner.take()
        count = _parse_exponent(scanner)
        return Repeat(body, count)
    if c is not None and c.isdecimal():
        i = _parse_peg(scanner, pegs)
        j_at = scanner.pos
        j = _parse_peg(scanner, pegs)
        if i == j:
            raise SequenceSyntaxError("the two pegs of a move must differ", j_at)
        return Atom(i, j)
    raise SequenceSyntaxError(
        "unexpected end of input" if c is None else f"unexpected character {c!r}",
        at,
    )


def _parse_exponent(scanner: _Scanner) -> int:
    c = scanner.peek()
    at = scanner.pos
    if c == "∞":
        raise InfiniteRepetition("infinite repetition cannot be expanded", at)
    if c is not None and c.isalpha():
        word = ""
        while scanner.peek() is not None and scanner.peek().isalpha():
            word += scanner.take()
        if word.lower() == "inf":
            raise InfiniteRepetition("infinite repetition cannot be expanded", at)
        raise SequenceSyntaxError(f"bad exponent {word!r}", at)
    digits = ""
    while scanner.peek() is not None and scanner.peek().isdecimal():
        digits += scanner.take()
    if not digits:
        raise SequenceSyntaxError("expected an exponent", at)
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        raise SequenceSyntaxError(f"exponent has more than {limit} digits, the most "
                                  "this interpreter reads", at) from None


def fold_seq(expr: SeqExpr, atom: Callable, node: Callable):
    """Fold ``expr`` bottom-up with an explicit stack, without recursion.

    ``atom(a)`` gives the value of an Atom, and ``node(n, values)`` the
    value of a Concat or Repeat node ``n`` from its children's values, in
    order.  Each distinct node is visited once (keyed by id).
    """
    if type(expr) is Atom:
        return atom(expr)
    done = {}
    kids = expr.parts if type(expr) is Concat else (expr.body,)
    stack = [(expr, kids, iter(kids))]
    while stack:
        top, kids, todo = stack[-1]
        for k in todo:
            if id(k) in done:
                continue
            if type(k) is Atom:
                done[id(k)] = atom(k)
            else:
                sub = k.parts if type(k) is Concat else (k.body,)
                stack.append((k, sub, iter(sub)))
                break
        else:  # every child is done: fold this node
            stack.pop()
            done[id(top)] = node(top, [done[id(k)] for k in kids])
    return done[id(expr)]


def to_text(expr: SeqExpr) -> str:
    """Render an expression in the notation grammar."""
    return fold_seq(expr, lambda a: f"{a.i}{a.j}", lambda n, texts: (
        "-".join(t for t in texts if t) if type(n) is Concat
        else f"({texts[0]})^{n.count}"))


def check_line_length(length: int) -> None:
    """Raise ValueError if a line of ``length`` moves exceeds
    ``MAX_LINE_MOVES``.  A length too long to print is written as the bound
    ``count_text`` gives, so any lower bound of it gives the same text."""
    if length > MAX_LINE_MOVES:
        raise ValueError(
            f"a line of {count_text(length)} moves exceeds the cap of "
            f"{MAX_LINE_MOVES} moves"
        )


def expand(expr: SeqExpr) -> tuple[tuple[int, int], ...]:
    """Flatten an expression into its (i, j) edge pairs, in play order.

    Raises ValueError, before building anything, for a line longer than
    ``MAX_LINE_MOVES``.
    """
    check_line_length(seq_length(expr))
    return fold_seq(expr, lambda a: ((a.i, a.j),), lambda n, pairs: (
        tuple(chain.from_iterable(pairs)) if type(n) is Concat
        else pairs[0] * n.count))


def seq_length(expr: SeqExpr) -> int:
    """Number of moves the expression expands to, recorded on its root."""
    return 1 if type(expr) is Atom else expr.length


def signed_counts(expr: SeqExpr) -> tuple[int, int, int]:
    """Signed edge counts of a three-peg line, by one fold: per edge 12, 13
    and 23, its moves on odd (first-player) plies minus those on even plies.

    A node's value is its length and its counts as if its first move were a
    first-player ply: a Concat part after an odd-length prefix flips sign,
    and the copies of an odd-length Repeat body alternate in sign.
    """

    def atom(a: Atom):
        if max(a.i, a.j) > 3:
            raise ValueError(f"move {a.i}{a.j} is not on a three-peg board")
        return 1, tuple(int(e == a.i + a.j - 3) for e in range(3))

    def node(n, values):
        if type(n) is Repeat:
            (length, counts), k = values[0], n.count
            return k * length, tuple(c * (k % 2 if length % 2 else k) for c in counts)
        total, counts = 0, (0, 0, 0)
        for length, part in values:
            counts = tuple(c - p if total % 2 else c + p for c, p in zip(counts, part))
            total += length
        return total, counts

    return fold_seq(expr, atom, node)[1]


def reverse_seq(expr: SeqExpr) -> SeqExpr:
    """Structurally reverse an expression (edge atoms are direction free).

    A node shared within ``expr`` is reversed once and stays shared.
    """
    return fold_seq(expr, lambda a: a, lambda n, parts: (
        Concat(tuple(parts[::-1])) if type(n) is Concat
        else Repeat(parts[0], n.count)))


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying a sequence from a state.

    ``legal`` is False as soon as any atom cannot be played, including
    trailing atoms after the game already ended; ``failed_at`` is then the
    1-based index of the first unplayable atom.  ``forced_even_plies`` is
    True when the second player had exactly one legal move at every even ply
    that was played.  Points are collected per ``Weights`` if given; odd
    plies belong to the first player.
    """

    legal: bool
    failed_at: int | None
    terminal: bool
    forced_even_plies: bool
    final_state: GameState
    plies_applied: int
    a_points: Fraction
    b_points: Fraction

    @property
    def delta(self) -> Fraction:
        return self.a_points - self.b_points


def replay(
    cfg: GameConfig,
    start: GameState | None,
    expr: SeqExpr,
    weights: Weights | None = None,
) -> ReplayReport:
    """Play ``expr`` from ``start`` (initial state if None) under ``cfg``.

    A given start state is validated once (``GameError`` if it is off the
    board).  The line is played on one ``Board``, scanned from the start
    state once and stepped in place on each ply, so a ply costs a few list
    updates and no new state; the final state is built once, at the end.
    Each ply's edge is resolved by ``Board.direction``, and on an even ply
    while play is still forced the board's legal-move list is counted.
    """
    if start is not None:
        validate_state(start, cfg)
    board = Board(initial_state(cfg) if start is None else start, cfg)
    mult = 1
    if weights is not None:
        m12, m13, m23, mult = weights.scaled_integers()
        scaled = {(1, 2): m12, (1, 3): m13, (2, 3): m23}
        scaled.update({(b, a): m for (a, b), m in scaled.items()})
    points = [0, 0]  # scaled points of the second and the first player
    forced = True
    failed_at: int | None = None
    applied = 0
    for ply, (i, j) in enumerate(expand(expr), start=1):
        move = board.direction(i, j)
        if move is None:
            failed_at = ply
            break
        if forced and ply % 2 == 0:
            forced = len(board.moves()) == 1
        if weights is not None:
            if (i, j) not in scaled:
                weights.edge(i, j)  # raises ValueError naming the edge
            points[ply % 2] += scaled[i, j]
        board.step(move)
        applied += 1
    return ReplayReport(
        legal=failed_at is None,
        failed_at=failed_at,
        terminal=board.over,
        forced_even_plies=forced,
        final_state=board.state(),
        plies_applied=applied,
        a_points=Fraction(points[1], mult),
        b_points=Fraction(points[0], mult),
    )
