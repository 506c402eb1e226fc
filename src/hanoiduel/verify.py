"""Built-in cross-check suite behind ``hanoiduel verify-paper``.

Each check pits a closed-form claim against an independent oracle: replay
of a constructed sequence, the retrograde normal-play solver, or the
bounded scoring search.  Everything is deterministic and sized to finish
in well under a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import inf

from .core import Ending, GameConfig, InapplicableEnding, Weights
from .notation import parse, replay, seq_length
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


def _replay_cfg(disks: int) -> GameConfig:
    # Completion anywhere once disk 1 has moved: legal for every transfer
    # target, terminal exactly when a full stack appears.
    return GameConfig(disks=disks, pegs=3, ending=Ending.ANY_SMALLEST)


def check_two_disk_rows() -> None:
    cfg = _replay_cfg(2)
    lengths = []
    for (p1, p2), text in TWO_DISK_REACH.items():
        expr = parse(text)
        report = replay(cfg, None, expr)
        assert report.legal, f"row {(p1, p2)} is illegal"
        assert report.final_state.pos == (p1, p2), f"row {(p1, p2)} misses"
        assert seq_length(expr) % 2 == 1, f"row {(p1, p2)} is even"
        lengths.append(seq_length(expr))
    assert lengths == [7, 1, 1, 3, 3, 5, 3, 5, 3], f"lengths {lengths}"


def check_transfer_parity() -> None:
    cfg = _replay_cfg(3)
    for target in product((1, 2, 3), repeat=3):
        expr = odd_transfer(3, target)
        assert seq_length(expr) % 2 == 1, f"odd transfer to {target} is even"
        report = replay(cfg, None, expr)
        assert report.legal, f"odd transfer to {target} illegal"
        assert report.final_state.pos == target, f"odd transfer misses {target}"
        if len(set(target)) > 1:
            expr = even_transfer(3, target)
            assert seq_length(expr) % 2 == 0
            report = replay(cfg, None, expr)
            assert report.legal and report.final_state.pos == target, (
                f"even transfer misses {target}"
            )
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
            expr = minimal_transfer(disks, 1, 3)
            assert seq_length(expr) == 2**disks - 1
            report = replay(ec1, None, expr, w)
            assert report.legal and report.terminal
            assert report.delta == delta_minimal_13(disks, w), (
                f"minimal transfer delta off at n={disks}"
            )
            for variant in (1, 2):
                expr = return_transfer(disks, variant)
                assert seq_length(expr) == 2 ** (disks + 1) - 1
                report = replay(ec2, None, expr, w)
                assert report.legal and report.terminal, (
                    f"round trip variant {variant} fails at n={disks}"
                )
                assert report.delta == delta_minimal_11(disks, w), (
                    f"round trip delta off at n={disks} variant {variant}"
                )


def check_two_disk_families() -> None:
    cfg = GameConfig(disks=2, pegs=3, ending=Ending.ANY_LARGEST)
    for case in range(1, 7):
        for k in (0, 1, 2):
            expr = two_disk_family(case, k)
            for w in _TRIPLES:
                report = replay(cfg, None, expr, w)
                assert report.legal and report.terminal, (
                    f"family {case} k={k} does not finish"
                )
                assert report.final_state.pos[0] == two_disk_family_end_peg(case)
                assert report.delta == two_disk_family_delta(case, w), (
                    f"family {case} delta off"
                )


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
            assert labeling.initial_label == "Win", f"{cfg} not a first win"
            want = expected.upper
            if disks >= 4 and cfg.ending is Ending.RETURN_LARGEST:
                # The closed form 2^(n+1) - 1 overstates this ending from
                # four disks on; the searched radius is 2^n + 7.
                assert want == 2 ** (disks + 1) - 1, f"{cfg}: {expected}"
                want = 2**disks + 7
            assert labeling.initial_radius == want, (
                f"{cfg}: radius {labeling.initial_radius} != {want}"
            )
            assert normal_verdict(cfg).outcome is Outcome.FIRST_WIN


def check_normal_four_pegs() -> None:
    for disks in range(1, 4):
        for cfg in _applicable_configs(disks, 4):
            labeling = solve_normal(build_graph(cfg))
            verdict = normal_verdict(cfg)
            expected = min_moves_normal(cfg)
            if verdict.outcome is Outcome.FIRST_WIN:
                assert labeling.initial_label == "Win", f"{cfg} should be a win"
                assert labeling.initial_radius == expected.upper
            else:
                assert labeling.initial_label == "Draw", f"{cfg} should be drawn"


def check_two_disk_region() -> None:
    values = [Fraction(v) for v in range(-1, 2)]
    w23 = Fraction(-1)
    for ending in Ending:
        cfg = GameConfig(disks=2, pegs=3, ending=ending)
        graph = build_graph(cfg)
        for w12 in values:
            for w13 in values:
                w = Weights(w12, w13, w23)
                verdict = scoring_verdict(cfg, w)
                result = bounded_scoring_search(cfg, w, 20, graph=graph)
                if verdict.outcome is Outcome.FIRST_WIN:
                    assert result.win_found, f"{ending} {w} should win"
                    assert result.best_delta > 0
                else:
                    assert not result.win_found, f"{ending} {w} should not win"


def check_pumped_strategies() -> None:
    triples = [Weights.of(-1, 2, 0), Weights.of(3, 1, 1), Weights.of(-2, -2, -1)]
    for disks in (3, 4):
        for ending in (Ending.TO_PEG, Ending.RETURN_LARGEST, Ending.ANY_LARGEST):
            cfg = GameConfig(disks=disks, pegs=3, ending=ending)
            for w in triples:
                plan = scoring_strategy(cfg, w)
                report = replay(cfg, None, plan.full, w)
                assert report.legal and report.terminal, f"{ending} {w} plan fails"
                assert report.forced_even_plies, f"{ending} {w} plan not forcing"
                assert report.delta == plan.predicted_delta
                assert report.delta > 0, f"{ending} {w} plan does not win"


def check_min_moves_spots() -> None:
    ec1 = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
    graph3 = build_graph(ec1)

    m = min_moves_scoring(ec1, Weights.of(1, 2, 3))
    assert (m.lower, m.upper, m.exact) == (7, 7, True)
    r = bounded_scoring_search(ec1, Weights.of(1, 2, 3), 9, graph=graph3)
    assert r.win_found and r.min_win_plies == 7

    m = min_moves_scoring(ec1, Weights.of(0, -4, 0))
    assert (m.lower, m.upper) == (8, 23), f"bounds {(m.lower, m.upper)}"
    r = bounded_scoring_search(ec1, Weights.of(0, -4, 0), 23, graph=graph3)
    assert r.win_found and 8 <= r.min_win_plies <= 23

    m = min_moves_scoring(ec1, Weights.of(-1, -1, 0))
    assert m.upper == 11, f"special-route bound {m.upper}"
    r = bounded_scoring_search(ec1, Weights.of(-1, -1, 0), 11, graph=graph3)
    assert r.win_found and 8 <= r.min_win_plies <= 11

    ec2 = GameConfig(disks=3, pegs=3, ending=Ending.RETURN_LARGEST)
    m = min_moves_scoring(ec2, Weights.of(1, 1, 1))
    assert (m.lower, m.upper, m.exact) == (15, 15, True)
    r = bounded_scoring_search(ec2, Weights.of(1, 1, 1), 15)
    assert r.win_found and r.min_win_plies == 15

    two = GameConfig(disks=2, pegs=3, ending=Ending.RETURN_LARGEST)
    m = min_moves_scoring(two, Weights.of(2, 2, 1))
    assert (m.lower, m.upper, m.exact) == (7, 7, True)
    r = bounded_scoring_search(two, Weights.of(2, 2, 1), 9)
    assert r.win_found and r.min_win_plies == 7

    flat = GameConfig(disks=2, pegs=3, ending=Ending.TO_PEG)
    m = min_moves_scoring(flat, Weights.of(0, 0, 0))
    assert m.upper == inf
    assert not bounded_scoring_search(flat, Weights.of(0, 0, 0), 20).win_found


def check_exceptional_lines() -> None:
    cfg = GameConfig(disks=3, pegs=3, ending=Ending.TO_PEG)
    for smallest in ("w12", "w23"):
        for variant, length in ((1, 11), (2, 13)):
            expr = exceptional_three_disk(smallest, variant)
            assert seq_length(expr) == length
            for w in _TRIPLES:
                report = replay(cfg, None, expr, w)
                assert report.legal and report.terminal, (
                    f"special line {smallest}/{variant} fails"
                )
                assert report.final_state.pos == (3, 3, 3)
                assert report.delta == exceptional_delta(smallest, variant, w)


def check_graph_exports() -> None:
    expected = {1: (3, 3), 2: (9, 12), 3: (27, 39)}
    for disks, (nodes, edges) in expected.items():
        cfg = GameConfig(disks=disks, pegs=3, ending=Ending.TO_PEG)
        dot = export_graph(cfg, fmt="dot", level="position")
        assert dot == export_graph(cfg, fmt="dot", level="position")
        lines = dot.splitlines()
        node_count = sum(
            1 for ln in lines if ln.endswith(";") and " -- " not in ln
        )
        edge_count = sum(1 for ln in lines if " -- " in ln)
        assert node_count == nodes, f"n={disks}: {node_count} nodes"
        assert edge_count == edges, f"n={disks}: {edge_count} edges"


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
