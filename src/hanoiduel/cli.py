"""Command line interface.

Subcommands::

    solve         normal-play verdict, minimum moves, solver cross-check
    score         scoring-play verdict and certificate for a weight triple
    minmoves      minimum moves to settle the game (normal or scoring)
    strategy      synthesise and verify the pumped scoring strategy
    replay        replay a move sequence and report what happened
    graph         export the game graph as DOT or JSON
    region        CSV sweep of scoring verdicts over a weight grid
    verify-paper  run the built-in cross-check suite

Exit codes: 0 on success, 1 when a verification cross-check disagrees,
2 for usage or configuration errors.  ``--json`` switches solve, score,
minmoves, strategy, replay and verify-paper to a stable JSON report on
stdout.  A cross-check that runs by default (``solve``, ``minmoves``) and
would exceed its budget is skipped with the reason; requested work
(``score --check``, ``graph --level state``) exits 2 instead, as does a
``--budget-depth`` below one ply.  A ``--budget-depth`` shorter than the
shortest finish checks nothing: ``minmoves`` skips its check, ``score
--check`` exits 2.  Weights accept integers, decimals or fractions
(``-3``, ``0.25``, ``1/2``).

A certificate longer than ``notation.MAX_LINE_MOVES`` (2^20 moves) is not
printed: ``solve`` and ``score`` state its length and the cap instead
(JSON ``"text": null``) after the verdict, and ``strategy`` and
``replay``, which must play the line, exit 2 naming both.  A move count
or certificate length too long for the interpreter to print as a decimal
(more than ``sys.get_int_max_str_digits()`` digits) exits 2 naming the
disk count and that limit, with nothing on stdout; ``score`` and
``region`` refuse a pumped route that long before any verdict counts
it.  A ``region`` grid of more than ``MAX_REGION_CELLS`` weight pairs
exits 2 naming that cap, before any verdict is computed or anything is
written.

Each process builds one parser, on its first ``main()`` call (not at
import), and reuses it: parsing never changes it, and every default is
immutable.  The subcommand functions are bound to it at that first build.
``build_parser()`` returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from math import inf

from .core import (
    Ending,
    GameConfig,
    GameError,
    Weights,
    count_text,
    parse_ending,
    state_from_text,
    state_to_text,
)
from . import construct
from .notation import (
    MAX_LINE_MOVES,
    NotationError,
    check_line_length,
    parse as parse_seq,
    replay,
    seq_length,
    to_text,
)
from .scoreforms import (
    MinMovesResult,
    Outcome,
    Verdict,
    min_moves_normal,
    min_moves_scoring,
    normal_verdict,
    scoring_verdict,
)
from .solve import (
    BudgetExceeded,
    bounded_scoring_search,
    build_graph,
    export_graph,
    shortest_finish,
    shortest_forced_win,
    solve_normal,
)
from .verify import run_checks


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc


def _search_depth(text: str) -> int:
    """A ``--budget-depth`` value: a search of zero plies checks nothing."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ply count {text!r}") from None
    if depth < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 ply, got {depth}")
    return depth


def _state_budget(text: str) -> int:
    """A ``--budget-states`` value: a count of states, 0 or more (no graph
    fits a budget of 0)."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad state count {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0 states, got {budget}")
    return budget


class _Unprintable(Exception):
    """A count with more digits than the interpreter prints."""


def _printable(n: int) -> int:
    """``n``, checked to print as a decimal (raises ``_Unprintable``)."""
    try:
        str(n)
    except ValueError:
        raise _Unprintable from None
    return n


def _count_json(x):
    return "inf" if x == inf else _printable(int(x))


def _line(expr, width: int | None = None) -> tuple[dict, str]:
    """A certificate line as JSON (its text and length) and for a human:
    the text, cut to ``width`` characters if given, then the length.

    A line longer than ``MAX_LINE_MOVES`` is not printed: its JSON text is
    null, and the human form gives its length and the cap instead.
    """
    length = _printable(seq_length(expr))
    if length > MAX_LINE_MOVES:
        return {"text": None, "length": length}, (
            f"{length} moves, not printed (longer than the {MAX_LINE_MOVES}-move cap)"
        )
    text = to_text(expr)
    shown = text if width is None or len(text) <= width else text[: width - 3] + "..."
    return {"text": text, "length": length}, f"{shown} ({length} moves)"


def _verdict_json(v: Verdict):
    return {
        "outcome": v.outcome.value,
        "predicted_delta": None if v.predicted_delta is None else str(v.predicted_delta),
        "certificate": None if v.certificate is None else _line(v.certificate)[0],
    }


def _weights_json(w: Weights):
    return {"w12": str(w.w12), "w13": str(w.w13), "w23": str(w.w23)}


def _minmoves_json(m: MinMovesResult):
    return {"lower": _count_json(m.lower), "upper": _count_json(m.upper), "exact": m.exact}


def _config_json(cfg: GameConfig):
    return {
        "disks": cfg.disks,
        "pegs": cfg.pegs,
        "ending": int(cfg.ending),
        "start_peg": cfg.start_peg,
        "final_peg": cfg.final_peg,
    }


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human:
            print(line)


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when it is absent or ``-``.
    A file that cannot be opened or written is a ``GameError`` naming it."""
    if path and path != "-":
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise GameError(f"cannot write {path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _make_config(args) -> GameConfig:
    return GameConfig(
        disks=args.disks,
        pegs=args.pegs,
        ending=parse_ending(args.ec),
        start_peg=args.start,
        final_peg=args.final,
    )


def _make_weights(args) -> Weights:
    missing = [n for n in ("w12", "w13", "w23") if getattr(args, n) is None]
    if missing:
        raise GameError(f"missing weights: {', '.join('--' + m for m in missing)}")
    return Weights(args.w12, args.w13, args.w23)


def _given_weights(args) -> Weights | None:
    """The weights when any of them is given, else None (normal play)."""
    if all(getattr(args, n) is None for n in ("w12", "w13", "w23")):
        return None
    return _make_weights(args)


def _add_game_args(p: argparse.ArgumentParser, disks: int | None = None) -> None:
    """Board options; ``-n`` is required unless ``disks`` gives its default."""
    p.add_argument("-n", "--disks", type=int, required=disks is None, default=disks)
    p.add_argument("-l", "--pegs", type=int, default=3)
    p.add_argument(
        "--ec",
        default="1",
        help="ending condition: 1..5 or to-peg, return-largest, "
        "return-smallest, any-largest, any-smallest",
    )
    p.add_argument("--start", type=int, default=1, help="start peg (default 1)")
    p.add_argument("--final", type=int, default=None, help="target peg for --ec 1 (default 3)")


def _add_weight_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w12", type=_fraction, default=None)
    p.add_argument("--w13", type=_fraction, default=None)
    p.add_argument("--w23", type=_fraction, default=None)


# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    cfg = _make_config(args)
    # Refuse an unprintable count before building a line that long.
    moves = _minmoves_json(min_moves_normal(cfg))
    verdict = normal_verdict(cfg)
    payload = {
        "config": _config_json(cfg),
        "verdict": _verdict_json(verdict),
        "min_moves": moves,
        "oracle": None,
        "agrees": None,
    }
    human = [
        f"verdict: {verdict.outcome.value}",
    ]
    if verdict.certificate is not None:
        human.append(f"certificate: {_line(verdict.certificate)[1]}")
    human.append(f"min moves: {moves['upper']}")
    agrees = None
    try:
        graph = build_graph(cfg, args.budget_states)
    except BudgetExceeded as exc:
        human.append(f"oracle: skipped ({exc})")
    else:
        labeling = solve_normal(graph)
        label = labeling.initial_label
        radius = labeling.initial_radius
        oracle_outcome = {
            "Win": Outcome.FIRST_WIN.value,
            "Loss": Outcome.SECOND_WIN.value,
            "Draw": Outcome.DRAW.value,
        }[label]
        # Outcome agreement only; radius vs the closed-form table is the
        # business of `minmoves`, which owns that cross-check.
        agrees = oracle_outcome == verdict.outcome.value
        payload["oracle"] = {
            "initial_label": label,
            "initial_radius": _count_json(radius),
            "states_total": graph.total_states,
            "states_reachable": graph.reachable_count,
        }
        payload["agrees"] = agrees
        human.append(
            f"oracle: {label}, radius {_count_json(radius)}, "
            f"{graph.reachable_count}/{graph.total_states} states reachable"
        )
        human.append(f"agreement: {'yes' if agrees else 'MISMATCH'}")
    _emit(args, payload, human)
    return 0 if agrees in (None, True) else 1


def _refuse_unprintable_route(cfg: GameConfig, uniform: bool) -> None:
    """Refuse, before any verdict counts it, a pumped route whose length
    does not print: on three pegs with n >= 3 a verdict with non-uniform
    weights counts the route, whose s1 moves disk n off the start peg, so
    it is at least 2^(n-1) moves long (raises ``_Unprintable``)."""
    if cfg.pegs == 3 and cfg.disks >= 3 and not uniform:
        _printable(2 ** (cfg.disks - 1))


def _cmd_score(args) -> int:
    cfg = _make_config(args)
    w = _make_weights(args)
    _refuse_unprintable_route(cfg, w.is_uniform)
    verdict = scoring_verdict(cfg, w)
    payload = {
        "config": _config_json(cfg),
        "weights": _weights_json(w),
        "verdict": _verdict_json(verdict),
        "check": None,
    }
    human = [f"verdict: {verdict.outcome.value}"]
    if verdict.predicted_delta is not None:
        human.append(f"predicted delta: {verdict.predicted_delta}")
    if verdict.certificate is not None:
        human.append(f"certificate: {_line(verdict.certificate, 120)[1]}")
    ok = True
    if args.check:
        graph = _search_graph(cfg, args)
        result = bounded_scoring_search(cfg, w, args.budget_depth, graph=graph)
        expected_win = verdict.outcome is Outcome.FIRST_WIN
        if expected_win:
            ok = result.win_found and result.best_delta > 0
        else:
            ok = not result.win_found
        payload["check"] = {
            "bound": args.budget_depth,
            "win_found": result.win_found,
            "min_win_plies": _count_json(result.min_win_plies),
            "best_delta": None if result.best_delta is None else str(result.best_delta),
            "agrees": ok,
        }
        human.append(
            f"search to {args.budget_depth} plies: "
            + (
                f"win in {_count_json(result.min_win_plies)} "
                f"(delta {result.best_delta})"
                if result.win_found
                else "no forced win"
            )
        )
        human.append(f"agreement: {'yes' if ok else 'MISMATCH'}")
    _emit(args, payload, human)
    return 0 if ok else 1


def _search_graph(cfg: GameConfig, args):
    """The graph for a search to ``--budget-depth`` plies, which must reach
    the shortest finish: a shorter search finds no win whatever the weights."""
    graph = build_graph(cfg, args.budget_states)
    finish = shortest_finish(graph)
    if args.budget_depth < finish:
        raise BudgetExceeded(
            f"--budget-depth {args.budget_depth} is shorter than the "
            f"shortest finish, {_count_json(finish)} plies"
        )
    return graph


# A finite scoring bound is checked by searching exactly that many plies;
# the search's tables grow with the ply budget, so longer bounds are not searched.
SEARCH_PLY_CAP = 63


def _cmd_minmoves(args) -> int:
    cfg = _make_config(args)
    w = _given_weights(args)
    payload = {"config": _config_json(cfg), "check": None}
    if w is None:
        moves = min_moves_normal(cfg)
        payload["mode"] = "normal"
    else:
        moves = min_moves_scoring(cfg, w)
        payload.update(weights=_weights_json(w), mode="scoring")
    payload["min_moves"] = _minmoves_json(moves)
    if moves.exact:
        human = [f"min moves: {_count_json(moves.upper)}"]
    else:
        human = [
            f"min moves: between {_count_json(moves.lower)} "
            f"and {_count_json(moves.upper)}"
        ]
    ok = True
    if not args.no_check:
        try:
            check = _minmoves_check(cfg, w, moves, args)
        except BudgetExceeded as exc:
            human.append(f"oracle: skipped ({exc})")
        else:
            payload["check"] = check
            ok = check["agrees"]
            human.append(f"oracle: {check['summary']}")
            human.append(f"agreement: {'yes' if ok else 'MISMATCH'}")
    _emit(args, payload, human)
    return 0 if ok else 1


def _minmoves_check(cfg, w, moves: MinMovesResult, args) -> dict:
    """Compare ``moves`` with the oracle; raises BudgetExceeded to skip."""
    if w is None:
        radius = shortest_forced_win(cfg, args.budget_states)
        return {
            "kind": "normal-solver",
            "radius": _count_json(radius),
            "agrees": moves.lower <= radius <= moves.upper,
            "summary": f"forced win radius {_count_json(radius)}",
        }
    if moves.upper == inf:
        graph = _search_graph(cfg, args)
        result = bounded_scoring_search(cfg, w, args.budget_depth, graph=graph)
        agrees = not result.win_found
        return {
            "kind": "scoring-search",
            "bound": args.budget_depth,
            "min_win_plies": _count_json(result.min_win_plies),
            "agrees": agrees,
            "summary": f"no win within {args.budget_depth} plies"
            if agrees
            else f"unexpected win in {_count_json(result.min_win_plies)}",
        }
    if moves.upper > SEARCH_PLY_CAP:
        raise BudgetExceeded(
            f"upper bound {_count_json(moves.upper)} exceeds the "
            f"{SEARCH_PLY_CAP}-ply search cap"
        )
    result = bounded_scoring_search(
        cfg, w, int(moves.upper), budget_states=args.budget_states
    )
    return {
        "kind": "scoring-search",
        "bound": int(moves.upper),
        "min_win_plies": _count_json(result.min_win_plies),
        "agrees": result.win_found
        and moves.lower <= result.min_win_plies <= moves.upper,
        "summary": (
            f"first forced win at {_count_json(result.min_win_plies)} plies"
            if result.win_found
            else f"no win within {int(moves.upper)} plies"
        ),
    }


def _cmd_strategy(args) -> int:
    cfg = _make_config(args)
    w = _make_weights(args)
    if cfg.disks < 3:
        raise GameError(
            "strategy synthesis needs at least three disks; use `score` for"
            " the small games"
        )
    if w.is_uniform:
        verdict = scoring_verdict(cfg, w)
        payload = {
            "config": _config_json(cfg),
            "uniform_weights": str(w.w12),
            "verdict": _verdict_json(verdict),
        }
        human = [
            f"all weights equal {w.w12}: every finished game scores {w.w12}",
            f"verdict: {verdict.outcome.value}",
        ]
        _emit(args, payload, human)
        return 0
    if cfg.pegs == 3:
        # Refuse before synthesising the plan, as its replay would: s1 moves
        # disk n off the start peg, so the plan is at least 2^(n-1) moves
        # long, and a length that does not print is over the cap.
        try:
            _printable(2 ** (cfg.disks - 1))
        except _Unprintable:
            check_line_length(2 ** (cfg.disks - 1))
    plan = construct.scoring_strategy(cfg, w)
    report = replay(cfg, None, plan.full, w)
    ok = (
        report.legal
        and report.terminal
        and report.forced_even_plies
        and report.delta == plan.predicted_delta
        and report.delta > 0
    )
    # The replay expanded the whole plan, so no part is over the cap.
    s1, s3, s2_inv = (_line(part)[0] for part in (plan.s1, plan.s3, plan.s2_inv))
    payload = {
        "config": _config_json(cfg),
        "weights": _weights_json(w),
        "plan": {
            "s1": s1["text"],
            "s3": s3["text"],
            "s2_inv": s2_inv["text"],
            "pumps": plan.pumps,
            "intermediate": list(plan.intermediate),
            "base_delta": str(plan.base_delta),
            "pump_increment": str(plan.pump_increment),
            "predicted_delta": str(plan.predicted_delta),
            "total_moves": seq_length(plan.full),
        },
        "replay": {
            "legal": report.legal,
            "terminal": report.terminal,
            "forced_even_plies": report.forced_even_plies,
            "delta": str(report.delta),
        },
        "agrees": ok,
    }
    human = [
        f"intermediate position: {','.join(map(str, plan.intermediate))}",
        f"s1 ({s1['length']} moves): {s1['text']}",
        f"s3 pump x{plan.pumps}: {s3['text']}",
        f"s2 reversed ({s2_inv['length']} moves): {s2_inv['text']}",
        f"base delta {plan.base_delta}, pump adds {plan.pump_increment}",
        f"predicted delta: {plan.predicted_delta} over {seq_length(plan.full)} moves",
        f"replay: legal={report.legal} terminal={report.terminal} "
        f"forced={report.forced_even_plies} delta={report.delta}",
        f"agreement: {'yes' if ok else 'MISMATCH'}",
    ]
    _emit(args, payload, human)
    return 0 if ok else 1


def _cmd_replay(args) -> int:
    cfg = _make_config(args)
    try:
        expr = parse_seq(args.seq, cfg.pegs)
    except NotationError as exc:
        raise GameError(f"bad sequence: {exc}") from exc
    start = None
    if args.state is not None:
        state, pegs, disks = state_from_text(args.state)
        if pegs != cfg.pegs or disks != cfg.disks:
            raise GameError(
                "start state is for a different board "
                f"({disks} disks, {pegs} pegs)"
            )
        start = state
    weights = _given_weights(args)
    report = replay(cfg, start, expr, weights)
    payload = {
        "config": _config_json(cfg),
        "sequence": to_text(expr),
        "moves": seq_length(expr),
        "legal": report.legal,
        "failed_at": report.failed_at,
        "terminal": report.terminal,
        "forced_even_plies": report.forced_even_plies,
        "plies_applied": report.plies_applied,
        "final_state": state_to_text(report.final_state, cfg),
    }
    human = [
        f"legal: {report.legal}"
        + (f" (failed at move {report.failed_at})" if report.failed_at else ""),
        f"terminal: {report.terminal}",
        f"forced even plies: {report.forced_even_plies}",
        f"final state: {state_to_text(report.final_state, cfg)}",
    ]
    if weights is not None:
        payload["a_points"] = str(report.a_points)
        payload["b_points"] = str(report.b_points)
        payload["delta"] = str(report.delta)
        human.append(
            f"points: first {report.a_points}, second {report.b_points}, "
            f"delta {report.delta}"
        )
    _emit(args, payload, human)
    return 0


def _cmd_graph(args) -> int:
    cfg = _make_config(args)
    text = export_graph(
        cfg,
        fmt=args.format,
        level=args.level,
        highlight_minimal=args.highlight_minimal,
        budget_states=args.budget_states,
    )
    _write_output(args.output, text)
    return 0


# Each region cell is one scoring verdict (tens of µs), so a capped sweep takes under a minute.
MAX_REGION_CELLS = 10**6


def _cmd_region(args) -> int:
    cfg = _make_config(args)
    try:
        lo_s, hi_s, step_s = args.grid.split(":")
        lo, hi, step = Fraction(lo_s), Fraction(hi_s), Fraction(step_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise GameError(f"bad grid {args.grid!r}; expected lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise GameError(f"bad grid {args.grid!r}; expected lo:hi:step with step > 0")
    side = (hi - lo) // step + 1
    if side**2 > MAX_REGION_CELLS:
        raise GameError(
            f"grid {args.grid!r} has {count_text(side**2)} cells, more than the "
            f"cap of {MAX_REGION_CELLS}"
        )
    values = [lo + i * step for i in range(side)]
    _refuse_unprintable_route(cfg, values == [args.w23])
    rows = ["w12,w13,outcome\n"]
    for w12 in values:
        for w13 in values:
            verdict = scoring_verdict(cfg, Weights(w12, w13, args.w23))
            rows.append(f"{w12},{w13},{verdict.outcome.value}\n")
    _write_output(args.output, "".join(rows))
    return 0


def _cmd_verify(args) -> int:
    results = run_checks()
    failed = [r for r in results if not r.ok]
    payload = {
        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        "passed": len(results) - len(failed),
        "failed": len(failed),
    }
    human = [
        f"ok - {r.name}" if r.ok else f"FAIL - {r.name}" + (f": {r.detail}" if r.detail else "")
        for r in results
    ]
    human.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    _emit(args, payload, human)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanoiduel",
        description="Two-player Tower of Hanoi: verdicts, strategies, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="normal-play verdict and solver cross-check")
    _add_game_args(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--budget-states", type=_state_budget, default=10**8)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("score", help="scoring-play verdict for a weight triple")
    _add_game_args(p)
    _add_weight_args(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--budget-states", type=_state_budget, default=10**8)
    p.add_argument("--budget-depth", type=_search_depth, default=30)
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check against the bounded search oracle",
    )
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("minmoves", help="minimum moves to settle the game")
    _add_game_args(p)
    _add_weight_args(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--budget-states", type=_state_budget, default=500_000)
    p.add_argument("--budget-depth", type=_search_depth, default=30)
    p.add_argument("--no-check", action="store_true", help="skip the oracle check")
    p.set_defaults(func=_cmd_minmoves)

    p = sub.add_parser("strategy", help="synthesise the pumped scoring strategy")
    _add_game_args(p)
    _add_weight_args(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_strategy)

    p = sub.add_parser("replay", help="replay a move sequence")
    _add_game_args(p)
    _add_weight_args(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--seq", required=True, help="move sequence, e.g. 12-(13-12-23)^2-13")
    p.add_argument("--state", default=None, help="start state in text form")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("graph", help="export the game graph")
    _add_game_args(p)
    p.add_argument("--budget-states", type=_state_budget, default=10**8)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--level", choices=("position", "state"), default="position")
    p.add_argument("--highlight-minimal", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("region", help="CSV sweep of scoring verdicts")
    _add_game_args(p, disks=2)
    p.add_argument("--w23", type=_fraction, required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step for both w12 and w13")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser(
        "verify-paper",
        help="cross-check closed forms, strategies and tables against oracles",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_verify)

    return parser


# The parser of this process: built by the first main() call, then reused.
_parser = cache(build_parser)


_LONG_OPTION = re.compile(r"--[^=]+")
_NEGATIVE = re.compile(r"-[0-9.]")


def _fuse_negative_values(argv: list[str]) -> list[str]:
    """Join ``--option`` with a following value such as ``-1/2`` or ``-6:6:1``.

    argparse reads any token starting with ``-`` as an option unless it is
    a plain number like ``-3``, so ``--w13 -1/2`` would lose its value.
    """
    out: list[str] = []
    for tok in argv:
        if out and _LONG_OPTION.fullmatch(out[-1]) and _NEGATIVE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_fuse_negative_values(list(argv)))
    try:
        return args.func(args)
    except _Unprintable:
        print(
            f"error: a move count for {args.disks} disks has more than "
            f"{sys.get_int_max_str_digits()} digits, the most this interpreter "
            "prints (sys.get_int_max_str_digits())",
            file=sys.stderr,
        )
        return 2
    except (GameError, NotationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
