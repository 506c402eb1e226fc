"""Game model for the two-player Tower of Hanoi.

Two players, Anh (moving first) and Bao, alternate moves of a single tower
of n disks across l pegs (disk 1 is the smallest, disk n the largest).  A
move takes the top disk of one peg and puts it on an empty peg or on top of
a strictly larger disk.  The disk moved in the previous ply may not be moved
again immediately.  The game ends the moment all n disks are stacked on one
peg, and a move that completes such a stack is only legal if the resulting
state satisfies the configured ending condition; completions that would
violate it are excluded from the legal moves.

Ending conditions:

1. ``TO_PEG``          all disks on a fixed target peg (distinct from start)
2. ``RETURN_LARGEST``  all disks back on the start peg, largest disk has moved
3. ``RETURN_SMALLEST`` all disks back on the start peg, smallest disk has moved
4. ``ANY_LARGEST``     all disks on any peg, largest disk has moved
5. ``ANY_SMALLEST``    all disks on any peg, smallest disk has moved

``RETURN_LARGEST`` and ``RETURN_SMALLEST`` are rejected for n = 1: with a
single disk every position is a completed stack, so no move can ever be legal
(any first move would finish the game away from the start peg) and the
ending is unsatisfiable.

The rules live on a :class:`Board`: a position in play, with ``pos`` as a
list, every peg's top disk and disk count, the last-moved disk, the two
flags and whether the game is over.  One scan over a state builds it, and
that scan serves every rule: a move completes the stack when its target
peg holds the other n - 1 disks.  ``Board.error`` explains why one move is
illegal.  ``Board.moves`` and ``Board.direction`` read one memo,
``_free_moves``, keyed by the flat tuple ``(last, *top)``: the moves that
the size rule and the last-moved disk allow depend only on the top disk
of each peg and the last-moved disk, and not on n, the ending or the
start and final pegs, so one key serves every board size and every
caller.  Its answer is those moves, sorted, with a map from both orders
of each move's edge to that move, so ``direction`` is one lookup.  Only
a move onto a peg holding the other n - 1 disks completes the stack, so
when such a peg exists (always so with n = 1) the moves onto it that
violate the ending are dropped (``Board._completes``).  The memo is a
process-wide ``functools.lru_cache`` of at most 2**14 keys, whose
answers are shared between keys with equal moves (``_free_value``, at
most 2**12 of them).  It pays across the questions of one process, as
in a benchmark round or a test run: a round of plans and playouts meets
the same few thousand keys again and again, and only its first round
fills them.  A single CLI command fills the memo as it goes and gains
little or nothing from it, and on five or more pegs with many disks
play rarely meets a key twice, so there the memo costs more than it
saves.
``Board.step`` plays a legal move of disk d from peg s to peg t in place:
it sets ``pos[d-1]`` and ``top[t] = d``, finds the new top of s by one
search of ``pos`` from disk d + 1, updates the two counts, the last-moved
disk and the flags, and recomputes whether the game is over from t's
count and the ending.  A line of play (``replay``) keeps one board from
its first ply to its last.

A ``GameState`` may carry the board of its position, kept in its instance
``__dict__`` and built for one ``cfg`` object.  The state functions
(``legal_moves``, ``resolve_direction``, ``apply_move``, ``is_terminal``)
ask that board when it was built for the ``cfg`` they are given.
Otherwise ``legal_moves``, ``resolve_direction`` and ``is_terminal`` scan
the state once and store the new board in its place, so a state with no
board (built with ``GameState(...)``, unpickled or copied), or one asked
under another ``cfg``, pays one scan.  ``apply_move`` plays the move on a
board of its own, a copy of the carried board or else a fresh scan that
the given state does not keep, and returns the board's state carrying
that board, so a playout scans only its first state.  So the states that
carry a board are those returned by ``apply_move`` and those asked by the
other three functions.  ``Board.state`` builds a state without the
dataclass ``__init__``, by one ``__dict__`` assignment in field order.  A
carried board is never stepped, so states stay safe to share; it is not
part of the value: ``==``, ``hash``, ``repr``, pickles and copies see the
four fields only.  It costs memory while the state lives
(about 680 B per state against 217 B without, at n = 8 on three pegs,
for states kept from ``apply_move``; tracemalloc); no library path keeps
states in bulk.

In the scoring variant each edge between two pegs carries a rational weight
and a player collects the weight of every edge they move a disk along; see
:class:`Weights`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cache, lru_cache
from math import lcm


class GameError(Exception):
    """Base class for rule and configuration errors."""


class IllegalMove(GameError):
    """Raised when a move violates the rules in the current state."""


class InapplicableEnding(GameError):
    """Raised for ending conditions that are unsatisfiable for the config."""


class Ending(IntEnum):
    TO_PEG = 1
    RETURN_LARGEST = 2
    RETURN_SMALLEST = 3
    ANY_LARGEST = 4
    ANY_SMALLEST = 5


_ENDING_ALIASES = {
    "to-peg": Ending.TO_PEG,
    "return-largest": Ending.RETURN_LARGEST,
    "return-smallest": Ending.RETURN_SMALLEST,
    "any-largest": Ending.ANY_LARGEST,
    "any-smallest": Ending.ANY_SMALLEST,
}


def parse_ending(text: str) -> Ending:
    """Parse an ending condition given as its number or mnemonic alias."""
    key = text.strip().lower()
    if key in _ENDING_ALIASES:
        return _ENDING_ALIASES[key]
    try:
        return Ending(int(key))
    except (KeyError, ValueError):
        raise InapplicableEnding(f"unknown ending condition {text!r}") from None


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        # Repr round-trips decimal CLI input exactly; 0.1 stays 1/10.
        return Fraction(repr(value))
    return Fraction(value)


@dataclass(frozen=True)
class Weights:
    """Rational edge weights for the scoring variant on three pegs.

    ``w12`` is collected whenever a disk moves between pegs 1 and 2, in
    either direction, and similarly for the other edges.
    """

    w12: Fraction
    w13: Fraction
    w23: Fraction

    @classmethod
    def of(cls, w12, w13, w23) -> "Weights":
        return cls(_as_fraction(w12), _as_fraction(w13), _as_fraction(w23))

    def edge(self, a: int, b: int) -> Fraction:
        pair = (min(a, b), max(a, b))
        if pair == (1, 2):
            return self.w12
        if pair == (1, 3):
            return self.w13
        if pair == (2, 3):
            return self.w23
        raise ValueError(f"no weight for edge {a}-{b}")

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.w12, self.w13, self.w23)

    @property
    def is_uniform(self) -> bool:
        return self.w12 == self.w13 == self.w23

    def permuted(self, sigma: dict[int, int]) -> "Weights":
        """Weights of the game with pegs relabelled by ``sigma``.

        ``sigma[p]`` is the new name of peg ``p``; the returned weights w'
        satisfy w'_{sigma(a)sigma(b)} = w_{ab}.
        """
        table = {}
        for a, b in ((1, 2), (1, 3), (2, 3)):
            x, y = sigma[a], sigma[b]
            table[(min(x, y), max(x, y))] = self.edge(a, b)
        return Weights(table[(1, 2)], table[(1, 3)], table[(2, 3)])

    def scaled_integers(self) -> tuple[int, int, int, int]:
        """Return (m12, m13, m23, mult) with m_xy = w_xy * mult, all ints."""
        mult = lcm(
            self.w12.denominator, self.w13.denominator, self.w23.denominator
        )
        return (
            int(self.w12 * mult),
            int(self.w13 * mult),
            int(self.w23 * mult),
            mult,
        )


@dataclass(frozen=True)
class GameConfig:
    """Immutable game parameters.

    Args:
        disks: number of disks n >= 1.
        pegs: number of pegs l >= 3.
        ending: the ending condition in force.
        start_peg: peg holding the initial stack (default 1).
        final_peg: target peg for ``TO_PEG`` (default 3); must differ from
            the start peg.  Normalised to None for the other endings.
    """

    disks: int
    pegs: int
    ending: Ending
    start_peg: int = 1
    final_peg: int | None = None

    def __post_init__(self) -> None:
        if self.disks < 1:
            raise GameError(f"need at least one disk, got {self.disks}")
        if self.pegs < 3:
            raise GameError(f"need at least three pegs, got {self.pegs}")
        if not 1 <= self.start_peg <= self.pegs:
            raise GameError(f"start peg {self.start_peg} out of range")
        ending = Ending(self.ending)
        object.__setattr__(self, "ending", ending)
        if ending is Ending.TO_PEG:
            final = 3 if self.final_peg is None else self.final_peg
            if not 1 <= final <= self.pegs:
                raise GameError(f"final peg {final} out of range")
            if final == self.start_peg:
                raise GameError("final peg must differ from the start peg")
            object.__setattr__(self, "final_peg", final)
        else:
            object.__setattr__(self, "final_peg", None)
        if ending in (Ending.RETURN_LARGEST, Ending.RETURN_SMALLEST):
            if self.disks == 1:
                raise InapplicableEnding(
                    "return endings are unsatisfiable with a single disk"
                )


@dataclass(frozen=True)
class GameState:
    """A game position.

    ``pos[d-1]`` is the peg currently holding disk d.  ``last_moved`` is the
    disk moved in the previous ply (None before the first move).  The two
    flags record whether the largest/smallest disk has moved at least once.
    A state may also carry the ``Board`` of its position (``_board_of``),
    which is not a field and not part of its value.
    """

    pos: tuple[int, ...]
    last_moved: int | None = None
    largest_moved: bool = False
    smallest_moved: bool = False

    def __getstate__(self) -> dict:
        # The carried board (``_board_of``) is a scan of the value, not
        # part of it: pickles and copies hold the four fields only.
        fields = self.__dict__
        if "_board" in fields:
            fields = fields.copy()
            del fields["_board"]
        return fields


@dataclass(frozen=True, order=True)
class Move:
    """A directed move of the top disk from ``source`` peg to ``target``."""

    source: int
    target: int


def initial_state(cfg: GameConfig) -> GameState:
    return GameState(pos=(cfg.start_peg,) * cfg.disks)


def validate_state(state: GameState, cfg: GameConfig) -> None:
    """Raise GameError unless the state is structurally valid for cfg."""
    if len(state.pos) != cfg.disks:
        raise GameError(
            f"state has {len(state.pos)} disks, config has {cfg.disks}"
        )
    for disk, peg in enumerate(state.pos, start=1):
        if not 1 <= peg <= cfg.pegs:
            raise GameError(f"disk {disk} on out-of-range peg {peg}")
    if state.last_moved is not None and not 1 <= state.last_moved <= cfg.disks:
        raise GameError(f"last moved disk {state.last_moved} out of range")


def _ending_satisfied(
    cfg: GameConfig, peg: int, largest_moved: bool, smallest_moved: bool
) -> bool:
    ending = cfg.ending
    if ending is Ending.TO_PEG:
        return peg == cfg.final_peg
    if ending is Ending.RETURN_LARGEST:
        return peg == cfg.start_peg and largest_moved
    if ending is Ending.RETURN_SMALLEST:
        return peg == cfg.start_peg and smallest_moved
    if ending is Ending.ANY_LARGEST:
        return largest_moved
    return smallest_moved


class Board:
    """A position in play: ``pos`` as a list, every peg's top disk (0 if
    none) and disk count, indexed by peg number, the state's last-moved
    disk and flags, and whether the game is over.

    Built by one scan over a valid state (not checked, as in
    ``legal_moves``); ``step`` then plays legal moves in place.
    ``moves`` and ``direction`` read the process-wide memo ``_free_moves``
    under the key ``(last, *top)``.  The board a state carries
    (``_board_of``) is never stepped: ``apply_move`` steps a ``copy``, or
    a fresh scan that the given state does not keep.
    """

    __slots__ = ("cfg", "pos", "top", "count", "last", "largest", "smallest", "over")

    def __init__(self, state: GameState, cfg: GameConfig) -> None:
        pos = list(state.pos)
        top = [0] * (cfg.pegs + 1)
        count = top[:]
        disk = len(pos)
        for peg in reversed(pos):
            top[peg] = disk
            count[peg] += 1
            disk -= 1
        self.cfg = cfg
        self.pos = pos
        self.top = top
        self.count = count
        self.last = state.last_moved
        self.largest = state.largest_moved
        self.smallest = state.smallest_moved
        self.over = self._stacked_on(pos[0])

    def _stacked_on(self, peg: int) -> bool:
        """Whether the full stack is on ``peg``, satisfying the ending."""
        return self.count[peg] == self.cfg.disks and _ending_satisfied(
            self.cfg, peg, self.largest, self.smallest
        )

    def _completes(self, disk: int, target: int) -> bool:
        """Whether moving ``disk`` onto ``target``, which holds the other
        n - 1 disks, satisfies the ending with the flags the move raises."""
        cfg = self.cfg
        return _ending_satisfied(cfg, target, self.largest or disk == cfg.disks,
                                 self.smallest or disk == 1)

    def state(self) -> GameState:
        """The position as a ``GameState``.  It is built by one ``__dict__``
        assignment, in field order, instead of the frozen dataclass
        ``__init__``, so its fields, ``==``, ``hash``, ``repr``, pickles and
        copies are those of ``GameState(...)``."""
        state = object.__new__(GameState)
        object.__setattr__(state, "__dict__", {
            "pos": tuple(self.pos),
            "last_moved": self.last,
            "largest_moved": self.largest,
            "smallest_moved": self.smallest,
        })
        return state

    def error(self, source: int, target: int) -> str:
        """Why the move source->target is illegal, or "" if it is legal
        (a finished game is not checked here)."""
        cfg = self.cfg
        if source == target:
            return "source and target peg coincide"
        if not (1 <= source <= cfg.pegs and 1 <= target <= cfg.pegs):
            return "peg out of range"
        top = self.top
        disk = top[source]
        if not disk:
            return f"peg {source} is empty"
        if disk == self.last:
            return f"disk {disk} was moved in the previous ply"
        if 0 < top[target] < disk:
            return f"disk {disk} cannot rest on smaller disk {top[target]}"
        if self.count[target] == cfg.disks - 1 and not self._completes(disk, target):
            return (
                "completing the stack on peg "
                f"{target} would violate the ending condition"
            )
        return ""

    def moves(self) -> tuple[Move, ...]:
        """All legal moves, sorted by (source, target).

        The moves that the size rule and the last-moved disk allow are
        read from the memo ``_free_moves`` under ``(last, *top)``.  Only
        a move onto a peg holding the other n - 1 disks completes the
        stack, so when such a peg exists (always so with n = 1, as the
        empty index-0 slot of ``count`` holds n - 1 = 0 disks) the moves
        onto it that violate the ending are dropped (``_completes``).
        """
        if self.over:
            return ()
        moves = _free_moves((self.last, *self.top))[0]
        count, rest = self.count, self.cfg.disks - 1
        if rest not in count:
            return moves
        # A loop, not a generator expression: one would turn the locals it
        # reads into cells, which every call of ``moves`` pays for.
        top = self.top
        legal = []
        for move in moves:
            if count[move.target] != rest or self._completes(top[move.source], move.target):
                legal.append(move)
        return tuple(legal)

    def direction(self, i: int, j: int) -> Move | None:
        """The legal move along the undirected edge i-j, if any.

        Only the smaller of the two top disks can move without landing on
        a smaller disk, so at most one direction passes the size rule:
        the memo ``_free_moves`` maps both orders of the edge to it, and
        off-board and equal pegs are absent from its map.  That move is
        then dropped, as in ``moves``, if it completes the stack in
        violation of the ending.  A finished game gives None.
        """
        if self.over:
            return None
        move = _free_moves((self.last, *self.top))[1].get((i, j))
        if (
            move is not None
            and self.count[move.target] == self.cfg.disks - 1
            and not self._completes(self.top[move.source], move.target)
        ):
            return None
        return move

    def step(self, move: Move) -> None:
        """Play ``move``, which the caller has found legal, in place."""
        source, target = move.source, move.target
        pos, top, count = self.pos, self.top, self.count
        disk = top[source]
        pos[disk - 1] = target
        top[target] = disk
        count[source] -= 1
        count[target] += 1
        # Every disk smaller than ``disk`` is off ``source``, so its new
        # top disk is the next one found there.
        top[source] = pos.index(source, disk) + 1 if count[source] else 0
        self.last = disk
        self.largest = self.largest or disk == self.cfg.disks
        self.smallest = self.smallest or disk == 1
        self.over = self._stacked_on(target)

    def copy(self) -> Board:
        """A board of the same position that steps on its own."""
        board = Board.__new__(Board)
        board.cfg = self.cfg
        board.pos = self.pos[:]
        board.top = self.top[:]
        board.count = self.count[:]
        board.last = self.last
        board.largest = self.largest
        board.smallest = self.smallest
        board.over = self.over
        return board


def _board_of(state: GameState, cfg: GameConfig) -> Board:
    """The board ``state`` carries for ``cfg``: the one stored in its
    ``__dict__`` when it was built for this very ``cfg`` object, else a
    fresh scan, which is stored in its place.  A carried board is never
    stepped."""
    fields = state.__dict__
    board = fields.get("_board")
    if board is None or board.cfg is not cfg:
        board = fields["_board"] = Board(state, cfg)
    return board


def is_terminal(state: GameState, cfg: GameConfig) -> bool:
    """True when the full stack sits on a peg satisfying the ending."""
    return _board_of(state, cfg).over


@cache
def _moves_on(pegs: int) -> dict[tuple[int, int], Move]:
    """One shared ``Move`` per ordered pair of distinct pegs, in pair order."""
    board = range(1, pegs + 1)
    return {(s, t): Move(s, t) for s in board for t in board if s != t}


@lru_cache(maxsize=1 << 14)
def _free_moves(
    key: tuple[int | None, ...],
) -> tuple[tuple[Move, ...], dict[tuple[int, int], Move]]:
    """The moves that the size rule and the last-moved disk allow in a
    position that is not over, whatever n, the ending and the start and
    final pegs: a move onto a peg holding the other n - 1 disks may
    still violate the ending, which ``Board.moves`` and
    ``Board.direction`` check on top.  ``key`` is ``(last, *top)``, the
    last-moved disk and then a board's ``top`` list (index-0 slot
    included, so its length gives the peg count).  The answer is the
    moves, sorted by (source, target), and a map from both orders of each
    move's edge to that move; it is shared by every key with the same
    moves (``_free_value``).

    The memo is process-wide and bounded: at most 2**14 keys, the least
    recently used dropped first.  A round of plans and playouts on three
    and four pegs with n <= 13 meets about 3,600 keys and 80 answers.
    """
    last, top = key[0], key[1:]
    legal = []
    for (source, target), move in _moves_on(len(top) - 1).items():
        disk = top[source]
        if disk and disk != last and not 0 < top[target] < disk:
            legal.append(move)
    return _free_value(tuple(legal))


@lru_cache(maxsize=1 << 12)
def _free_value(
    moves: tuple[Move, ...],
) -> tuple[tuple[Move, ...], dict[tuple[int, int], Move]]:
    """``moves`` with the map from (source, target) and (target, source)
    of each move to the move.  One answer serves many keys of
    ``_free_moves``: its readers never change the map."""
    edges = {}
    for move in moves:
        edges[move.source, move.target] = edges[move.target, move.source] = move
    return moves, edges


def legal_moves(state: GameState, cfg: GameConfig) -> tuple[Move, ...]:
    """All legal moves in ``state``, sorted by (source, target).

    Terminal states have no legal moves by definition.  ``state`` must be
    valid for ``cfg`` (``validate_state``); it is not checked on every call.
    Asks the board ``state`` carries for ``cfg``, scanning the state only
    if it has none; the board reads the moves from the memo
    ``_free_moves`` (``Board.moves``).
    """
    return _board_of(state, cfg).moves()


def resolve_direction(
    state: GameState, cfg: GameConfig, i: int, j: int
) -> Move | None:
    """The legal move along the undirected edge i-j in ``state``, if any
    (``Board.direction``).  Terminal states and off-board pegs give None."""
    return _board_of(state, cfg).direction(i, j)


def apply_move(state: GameState, move: Move, cfg: GameConfig) -> GameState:
    """Apply a legal move to a valid state (not checked, as in
    ``legal_moves``); raises IllegalMove otherwise.

    The move is checked by ``Board.error`` and played by ``Board.step`` on
    a board of its own: a copy of the board ``state`` carries for ``cfg``,
    or, if it carries none, a fresh scan, which ``state`` does not keep.
    The returned state carries that board, so asking it under the same
    ``cfg`` needs no scan.
    """
    board = state.__dict__.get("_board")
    board = Board(state, cfg) if board is None or board.cfg is not cfg else board.copy()
    if board.over:
        raise IllegalMove("the game is already over")
    reason = board.error(move.source, move.target)
    if reason:
        raise IllegalMove(f"move {move.source}->{move.target}: {reason}")
    board.step(move)
    after = board.state()
    after.__dict__["_board"] = board
    return after


def state_space(cfg: GameConfig) -> int:
    """Size of the index space: l^n * (n+1) * 4."""
    return cfg.pegs**cfg.disks * (cfg.disks + 1) * 4


def count_text(n: int, power: str | None = None) -> str:
    """``n`` in decimal.  With more digits than the interpreter prints
    (``sys.get_int_max_str_digits()``): ``power``, the same number written
    as a power, if given, else the bound that ``n`` is known to reach."""
    try:
        return str(n)
    except ValueError:
        return power or f"at least 10^{sys.get_int_max_str_digits()}"


def state_index(state: GameState, cfg: GameConfig) -> int:
    """Pack a state into a dense index in ``range(state_space(cfg))``."""
    pos_index = 0
    for disk in range(cfg.disks, 0, -1):
        pos_index = pos_index * cfg.pegs + (state.pos[disk - 1] - 1)
    last_code = 0 if state.last_moved is None else state.last_moved
    idx = pos_index * (cfg.disks + 1) + last_code
    idx = idx * 2 + (1 if state.largest_moved else 0)
    return idx * 2 + (1 if state.smallest_moved else 0)


def state_from_index(index: int, cfg: GameConfig) -> GameState:
    if not 0 <= index < state_space(cfg):
        raise GameError(f"state index {index} out of range")
    index, smallest_bit = divmod(index, 2)
    index, largest_bit = divmod(index, 2)
    pos_index, last_code = divmod(index, cfg.disks + 1)
    pos = []
    for _ in range(cfg.disks):
        pos_index, peg = divmod(pos_index, cfg.pegs)
        pos.append(peg + 1)
    return GameState(
        pos=tuple(pos),
        last_moved=None if last_code == 0 else last_code,
        largest_moved=bool(largest_bit),
        smallest_moved=bool(smallest_bit),
    )


def state_to_text(state: GameState, cfg: GameConfig) -> str:
    """Render a state in the one-line text format.

    Example: ``pegs=3;disks=2;pos=1,3;last=1;flags=01`` (flags are the
    largest-moved and smallest-moved bits, in that order).
    """
    last = "-" if state.last_moved is None else str(state.last_moved)
    flags = f"{int(state.largest_moved)}{int(state.smallest_moved)}"
    pos = ",".join(str(p) for p in state.pos)
    return f"pegs={cfg.pegs};disks={cfg.disks};pos={pos};last={last};flags={flags}"


def state_from_text(text: str) -> tuple[GameState, int, int]:
    """Parse the text format; returns (state, pegs, disks)."""
    fields = {}
    for part in text.strip().split(";"):
        if "=" not in part:
            raise GameError(f"malformed state field {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        pegs = int(fields["pegs"])
        disks = int(fields["disks"])
        pos = tuple(int(p) for p in fields["pos"].split(","))
        last_text = fields["last"]
        flags = fields["flags"]
    except (KeyError, ValueError) as exc:
        raise GameError(f"malformed state text {text!r}") from exc
    if len(pos) != disks:
        raise GameError("pos field length disagrees with disks")
    if len(flags) != 2 or set(flags) - {"0", "1"}:
        raise GameError(f"malformed flags field {flags!r}")
    last = None if last_text == "-" else int(last_text)
    if pegs < 3 or disks < 1:
        raise GameError("state text needs pegs >= 3 and disks >= 1")
    if any(not 1 <= p <= pegs for p in pos):
        raise GameError("pos field mentions a peg off the board")
    if last is not None and not 1 <= last <= disks:
        raise GameError(f"last field names a disk out of range: {last}")
    state = GameState(
        pos=pos,
        last_moved=last,
        largest_moved=flags[0] == "1",
        smallest_moved=flags[1] == "1",
    )
    return state, pegs, disks
