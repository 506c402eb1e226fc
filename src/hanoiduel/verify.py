"""Built-in cross-check suite behind ``hanoiduel verify-paper``.

Each check pits a closed-form claim against an independent oracle: replay
of a constructed sequence, the retrograde normal-play solver, or the
bounded scoring search.  Everything is deterministic and sized to finish
in well under a minute.  A check fails through ``_expect``, never an
``assert`` statement: ``python -O`` strips those, and a refuted claim
would then pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import inf

from .core import Ending, GameConfig, InapplicableEnding, Weights
from .notation import parse, replay, seq_length, to_text
from .construct import (
    TWO_DISK_REACH,
    exceptional_delta,
    exceptional_three_disk,
    minimal_transfer,
    odd_transfer,
    even_transfer,
    return_transfer,
    scoring_strategy,
    two_disk_family,
    two_disk_family_delta,
    two_disk_family_end_peg,
    NotIntermediate,
)
from .scoreforms import (
    Outcome,
    delta_minimal_11,
    delta_minimal_13,
    min_moves_normal,
    min_moves_scoring,
    normal_verdict,
    scoring_verdict,
)
from .solve import bounded_scoring_search, build_graph, export_graph, solve_normal


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _expect(ok: bool, message: str, *args) -> None:
    """Unless ``ok``, fail the check with ``message.format(*args)``, built only then."""
    if not ok:
        raise AssertionError(message.format(*args))


def _plays(cfg, expr, w=None, *, pos=None, delta=None, length=None):
    """Replay ``expr`` from the start of ``cfg``, scored by ``w`` if given;
    fail unless it is legal and ends the game (or, given ``pos``, ends on
    ``pos``) with the ``length`` (moves) and ``delta`` (score) asked for."""
    report = replay(cfg, None, expr, w)
    ends = report.terminal if pos is None else report.final_state.pos == pos
    if not (report.legal and ends
            and (length is None or report.plies_applied == length)
            and (delta is None or report.delta == delta)):
        # Not through ``_expect``: the line's text is worth building only here.
        raise AssertionError(f"{to_text(expr)} under {cfg}, weights {w}: {report}")
    return report


def check_two_disk_rows() -> None:
    # Completion anywhere once disk 1 has moved: legal for every transfer
    # target, terminal exactly when a full stack appears.
    cfg = GameConfig(disks=2, pegs=3, ending=Ending.ANY_SMALLEST)
    lengths = [_plays(cfg, parse(text), pos=pos).plies_applied
               for pos, text in TWO_DISK_REACH.items()]
    # Every row is odd: the list below holds odd lengths only.
    _expect(lengths == [7, 1, 1, 3, 3, 5, 3, 5, 3], "lengths {}", lengths)


def check_transfer_parity() -> None:
    cfg = GameConfig(disks=3, pegs=3, ending=Ending.ANY_SMALLEST)  # as above
    for target in product((1, 2, 3), repeat=3):
        expr = odd_transfer(3, target)
        _expect(seq_length(expr) % 2 == 1, "odd transfer to {} is even", target)
        _plays(cfg, expr, pos=target)
        if len(set(target)) > 1:
            expr = even_transfer(3, target)
            _expect(seq_length(expr) % 2 == 0, "even transfer to {} is odd", target)
            _plays(cfg, expr, pos=target)
        else:
            try:
                even_transfer(3, target)
            except NotIntermediate:
                pass
            else:
                raise AssertionError(f"even transfer accepted stack {target}")


_TRIPLES = [
    Weights.of(1, 2, 3),
    Weights.of(-1, 2, 0),
    Weights.of(Fraction(1, 2), Fraction(-3, 4), 2),
    Weights.of(0, 0, 5),
    Weights.of(-2, -2, -1),
]


def check_transfer_scores() -> None:
    for disks in range(2, 7):
        ec1 = GameConfig(disks=disks, pegs=3, ending=Ending.TO_PEG)
        ec2 = GameConfig(disks=disks, pegs=3, ending=Ending.RETURN_LARGEST)
        for w in _TRIPLES:
            _plays(ec1, minimal_transfer(disks, 1, 3), w,
                   delta=delta_minimal_13(disks, w), length=2**disks - 1)
            for variant in (1, 2):
                _plays(ec2, return_transfer(disks, variant), w,
                       delta=delta_minimal_11(disks, w), length=2 ** (disks + 1) - 1)


def check_two_disk_families() -> None:
    cfg = GameConfig(disks=2, pegs=3, ending=Ending.ANY_LARGEST)
    for case in range(1, 7):
        for k in (0, 1, 2):
            expr = two_disk_family(case, k)
            for w in _TRIPLES:
                report = _plays(cfg, expr, w, delta=two_disk_family_delta(case, w))
                _expect(report.final_state.pos[0] == two_disk_family_end_peg(case),
                        "family {} k={} ends off its peg", case, k)


def _applicable_configs(disks: int, pegs: int):
    """One config per ending that ``GameConfig`` accepts for this board."""
    for ending in Ending:
        try:
            cfg = GameConfig(disks=disks, pegs=pegs, ending=ending)
        except InapplicableEnding:
            continue
        yield cfg


def check_normal_three_pegs() -> None:
    for disks in range(1, 5):
        for cfg in _applicable_configs(disks, 3):
            labeling = solve_normal(build_graph(cfg))
            expected = min_moves_normal(cfg)
            _expect(labeling.initial_label == "Win", "{} not a first win", cfg)
            want = expected.upper
            if disks >= 4 and cfg.ending is Ending.RETURN_LARGEST:
                # The closed form 2^(n+1) - 1 overstates this ending from
                # four disks on; the searched radius is 2^n + 7.
                _expect(want == 2 ** (disks + 1) - 1, "{}: {}", cfg, expected)
                want = 2**disks + 7
            _expect(labeling.initial_radius == want, "{}: radius {} != {}",
                    cfg, labeling.initial_radius, want)
            _expect(normal_verdict(cfg).outcome is Outcome.FIRST_WIN,
                    "{}: verdict is not a first win", cfg)


def check_normal_four_pegs() -> None:
    for disks in range(1, 4):
        for cfg in _applicable_configs(disks, 4):
            labeling = solve_normal(build_graph(cfg))
            verdict = normal_verdict(cfg)
            expected = min_moves_normal(cfg)
            if verdict.outcome is Outcome.FIRST_WIN:
                _expect(labeling.initial_label == "Win", "{} should be a win", cfg)
                _expect(labeling.initial_radius == expected.upper,
                        "{}: radius {}", cfg, labeling.initial_radius)
            else:
                _expect(labeling.initial_label == "Draw", "{} should be drawn", cfg)


def check_two_disk_region() -> None:
    values = [Fraction(v) for v in range(-1, 2)]
    w23 = Fraction(-1)
    for ending in Ending:
        cfg = GameConfig(disks=2, pegs=3, ending=ending)
        graph = build_graph(cfg)
        for w12 in values:
            for w13 in values:
                w = Weights(w12, w13, w23)
                wins = scoring_verdict(cfg, w).outcome is Outcome.FIRST_WIN
                found = bounded_scoring_search(cfg, w, 20, graph=graph)
                _expect(found.win_found == wins and (not wins or found.best_delta > 0),
                        "{} {}: verdict win {}, search {}", ending, w, wins, found)


def check_pumped_strategies() -> None:
    triples = [Weights.of(-1, 2, 0), Weights.of(3, 1, 1), Weights.of(-2, -2, -1)]
    for disks in (3, 4):
        for ending in (Ending.TO_PEG, Ending.RETURN_LARGEST, Ending.ANY_LARGEST):
            cfg = GameConfig(disks=disks, pegs=3, ending=ending)
            for w in triples:
                plan = scoring_strategy(cfg, w)
                report = _plays(cfg, plan.full, w, delta=plan.predicted_delta)
                _expect(report.forced_even_plies, "{} {} plan not forcing", ending, w)
                _expect(report.delta > 0, "{} {} plan does not win", ending, w)


def _search_wins(cfg, w, lower, upper, depth=None, graph=None) -> None:
    """Fail unless ``min_moves_scoring`` bounds the first player's win by
    ``lower`` and ``upper`` and the search to ``depth`` plies (``upper``
    by default) finds a win within them."""
    m = min_moves_scoring(cfg, w)
    _expect((m.lower, m.upper) == (lower, upper), "{} {}: {}", cfg, w, m)
    r = bounded_scoring_search(cfg, w, depth or upper, graph=graph)
    _expect(r.win_found and lower <= r.min_win_plies <= upper, "{} {}: {}", cfg, w, r)


def check_min_moves_spots() -> None:
    ec1 = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
    graph3 = build_graph(ec1)
    _search_wins(ec1, Weights.of(1, 2, 3), 7, 7, depth=9, graph=graph3)
    _search_wins(ec1, Weights.of(0, -4, 0), 8, 23, graph=graph3)
    _search_wins(ec1, Weights.of(-1, -1, 0), 8, 11, graph=graph3)
    ec2 = GameConfig(disks=3, pegs=3, ending=Ending.RETURN_LARGEST)
    _search_wins(ec2, Weights.of(1, 1, 1), 15, 15)
    two = GameConfig(disks=2, pegs=3, ending=Ending.RETURN_LARGEST)
    _search_wins(two, Weights.of(2, 2, 1), 7, 7, depth=9)
    flat = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
    m = min_moves_scoring(flat, Weights.of(0, 0, 0))
    _expect(m.upper == inf, "flat weights bounded by {}", m.upper)
    _expect(not bounded_scoring_search(flat, Weights.of(0, 0, 0), 20).win_found,
            "flat weights win")


def check_exceptional_lines() -> None:
    cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
    for smallest in ("w12", "w23"):
        for variant, length in ((1, 11), (2, 13)):
            expr = exceptional_three_disk(smallest, variant)
            for w in _TRIPLES:
                report = _plays(cfg, expr, w, length=length,
                                delta=exceptional_delta(smallest, variant, w))
                _expect(report.final_state.pos == (3, 3, 3),
                        "special line {}/{} ends off peg 3", smallest, variant)


def check_graph_exports() -> None:
    expected = {1: (3, 3), 2: (9, 12), 3: (27, 39)}
    for disks, (nodes, edges) in expected.items():
        cfg = GameConfig(disks=disks, pegs=3, ending=Ending.TO_PEG)
        dot = export_graph(cfg, fmt="dot", level="position")
        _expect(dot == export_graph(cfg, fmt="dot", level="position"),
                "n={}: export differs between calls", disks)
        lines = dot.splitlines()
        node_count = sum(
            1 for ln in lines if ln.endswith(";") and " -- " not in ln
        )
        edge_count = sum(1 for ln in lines if " -- " in ln)
        _expect(node_count == nodes, "n={}: {} nodes", disks, node_count)
        _expect(edge_count == edges, "n={}: {} edges", disks, edge_count)


_CHECKS = [
    ("two-disk reach table", check_two_disk_rows),
    ("odd and even transfers", check_transfer_parity),
    ("transfer scores", check_transfer_scores),
    ("two-disk winning families", check_two_disk_families),
    ("normal play, three pegs", check_normal_three_pegs),
    ("normal play, four pegs", check_normal_four_pegs),
    ("two-disk scoring region", check_two_disk_region),
    ("pumped strategies", check_pumped_strategies),
    ("minimum-move spot checks", check_min_moves_spots),
    ("special three-disk lines", check_exceptional_lines),
    ("graph exports", check_graph_exports),
]


def run_checks() -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        try:
            fn()
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # pragma: no cover - defensive
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, True))
    return results
