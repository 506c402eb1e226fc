"""The four benchmark workloads: question pools, sampling, answers, checks.

Every workload asks hanoiduel the questions its users ask and compares
each answer with the value pinned in ``pins/<workload>.json``.  A pin file
holds a pool of questions, each with the answer the library gave when the
pins were made (see ``pin.py``).  A run draws its question set from the
pool with its own seed, stratified so that the set's cost hardly depends on
the seed, and answers the whole set once per round.

Each pinned entry also records ``cost_ms``, the least time its answer took
when the pins were made.  It is used only to order a pool for ``stratified``, so
that a question set has nearly the same cost distribution, and so the same
run time and percentiles, whatever the seed.

``answer`` calls the library functions imported by name below, so that a
traced run can time each call by patching this module's namespace (see
``tracing.instrument``).  It returns plain JSON values, so that an answer
and its pin compare with ``==``.

``divergence`` names a question whose pinned answer shows a closed form
disagreeing with its exhaustive oracle.  Such a question is counted and
listed, not failed: the pin records the disagreement as it stands.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hanoiduel.cli import main
from hanoiduel.construct import scoring_strategy
from hanoiduel.core import (
    Ending,
    GameConfig,
    Weights,
    apply_move,
    initial_state,
    is_terminal,
    legal_moves,
)
from hanoiduel.notation import replay, seq_length
from hanoiduel.scoreforms import (
    min_moves_normal,
    min_moves_scoring,
    normal_verdict,
    scoring_verdict,
)
from hanoiduel.solve import bounded_scoring_search, build_graph, solve_normal

HALVES = [Fraction(k, 2) for k in range(-8, 9)]

# The bounded scoring search scans at most this many budgets, as `minmoves`
# does.
SEARCH_CAP = 63


def _num(x):
    """JSON form of a count that may be infinite."""
    return "inf" if x == math.inf else int(x)


def _moves(m) -> list:
    return [_num(m.lower), _num(m.upper), m.exact]


def _ending_name(ending: int) -> str:
    return Ending(ending).name.lower().replace("_", "-")


def _weights(rng: random.Random, uniform_share: float = 0.0) -> list[str]:
    """Three halves in [-4, 4]: all equal with probability ``uniform_share``,
    and never all equal when that share is 0."""
    if rng.random() < uniform_share:
        return [str(rng.choice(HALVES))] * 3
    while True:
        w = [rng.choice(HALVES) for _ in range(3)]
        if uniform_share or len(set(w)) > 1:
            return [str(x) for x in w]


def _pegs_for(rng: random.Random, pegs: int, ending: int) -> tuple[int, int | None]:
    start = rng.randint(1, pegs)
    if ending != Ending.TO_PEG:
        return start, None
    return start, rng.choice([p for p in range(1, pegs + 1) if p != start])


def stratified(entries: list, k: int, rng: random.Random) -> list:
    """One entry from each of ``k`` equal blocks of ``entries`` sorted by cost."""
    ordered = sorted(entries, key=lambda e: e["cost_ms"])
    cuts = [round(i * len(ordered) / k) for i in range(k + 1)]
    return [rng.choice(ordered[cuts[i]:cuts[i + 1]]) for i in range(k)]


class NormalOracle:
    """Normal play: closed-form verdict and minimum against the solver."""

    name = "normal-oracle"
    SIZES = ((3, 5), (3, 6), (3, 7), (4, 4), (4, 5))
    TINY = ((3, 5), (4, 4))

    def pool(self, rng):
        # Relabelling the pegs maps one game onto another, so a pin made
        # from start peg 1 holds for every start and final peg.
        return [
            {"pegs": pegs, "n": n, "ending": e, "start": 1, "final": None}
            for pegs, n in self.SIZES
            for e in range(1, 6)
        ]

    def sample(self, pool, rng, tiny):
        out = []
        for pegs, n in self.TINY if tiny else self.SIZES:
            cell = [e for e in pool if (e["q"]["pegs"], e["q"]["n"]) == (pegs, n)]
            entry = rng.choice(cell)
            q = dict(entry["q"])
            q["start"], q["final"] = _pegs_for(rng, pegs, q["ending"])
            out.append((q, entry["a"]))
        return out

    def prepare(self, questions):
        return None

    def answer(self, q, ctx):
        cfg = GameConfig(q["n"], q["pegs"], Ending(q["ending"]), q["start"], q["final"])
        verdict = normal_verdict(cfg)
        moves = min_moves_normal(cfg)
        graph = build_graph(cfg)
        labeling = solve_normal(graph)
        cert = verdict.certificate
        return {
            "outcome": verdict.outcome.value,
            "cert_moves": None if cert is None else seq_length(cert),
            "min_moves": _moves(moves),
            "states": graph.total_states,
            "reachable": graph.reachable_count,
            "edges": sum(map(len, graph.succ)),
            "label": labeling.initial_label,
            "radius": _num(labeling.initial_radius),
        }

    def divergence(self, q, a):
        solver_outcome = {"Win": "FirstWin", "Loss": "SecondWin", "Draw": "Draw"}
        claimed = a["min_moves"][1]
        if solver_outcome[a["label"]] == a["outcome"] and claimed == a["radius"]:
            return None
        return (
            f"normal {q['pegs']} pegs n={q['n']} {_ending_name(q['ending'])}: "
            f"closed form {a['outcome']} in {claimed}, solver {a['label']} "
            f"in {a['radius']}"
        )


class ScoringOracle:
    """Scoring play: verdict and move bounds against the bounded search."""

    name = "scoring-oracle"
    DISKS = (5, 6)
    PER_DISKS = 90
    POOL_PER_DISKS = 480

    def pool(self, rng):
        return [
            {"n": n, "ending": rng.randint(1, 5), "w": _weights(rng, 0.15)}
            for n in self.DISKS
            for _ in range(self.POOL_PER_DISKS)
        ]

    def sample(self, pool, rng, tiny):
        out = []
        for n in self.DISKS[:1] if tiny else self.DISKS:
            cell = [e for e in pool if e["q"]["n"] == n]
            picked = stratified(cell, 4 if tiny else self.PER_DISKS, rng)
            out.extend((e["q"], e["a"]) for e in picked)
        rng.shuffle(out)
        return out

    def prepare(self, questions):
        cells = sorted({(q["n"], q["ending"]) for q in questions})
        return {
            (n, e): build_graph(GameConfig(n, 3, Ending(e))) for n, e in cells
        }

    def answer(self, q, graphs):
        cfg = GameConfig(q["n"], 3, Ending(q["ending"]))
        w = Weights(*(Fraction(x) for x in q["w"]))
        verdict = scoring_verdict(cfg, w)
        moves = min_moves_scoring(cfg, w)
        cert = None if verdict.certificate is None else seq_length(verdict.certificate)
        bound = min(cert or SEARCH_CAP, SEARCH_CAP)
        result = bounded_scoring_search(
            cfg, w, bound, graph=graphs[(q["n"], q["ending"])]
        )
        return {
            "outcome": verdict.outcome.value,
            "delta": None if verdict.predicted_delta is None else str(verdict.predicted_delta),
            "cert_moves": cert,
            "min_moves": _moves(moves),
            "bound": bound,
            "win_found": result.win_found,
            "win_plies": _num(result.min_win_plies),
            "best_delta": None if result.best_delta is None else str(result.best_delta),
            "line": len(result.line),
            "budgets": result.min_win_plies if result.win_found else bound,
        }

    def divergence(self, q, a):
        lower, upper, exact = a["min_moves"]
        plies = a["win_plies"]
        if a["win_found"]:
            agrees = upper != "inf" and (
                plies == upper if exact else lower <= plies <= upper
            ) and a["outcome"] == "FirstWin"
        elif upper == "inf":
            agrees = a["outcome"] != "FirstWin"
        else:
            # No win within the bound: a disagreement only if the closed
            # form promised one inside it.
            agrees = upper > a["bound"]
        if agrees:
            return None
        w = ",".join(q["w"])
        span = upper if exact else f"{lower}..{upper}"
        return (
            f"scoring n={q['n']} {_ending_name(q['ending'])} w=({w}): "
            f"closed form {span}, search {plies}"
        )


class LineReplay:
    """Strategy synthesis plus replay, and random playouts: no graph at all."""

    name = "line-replay"
    # Pooled plans by disk count, fewer of the large ones: a plan's length
    # doubles with each disk.  Plans of ten or more disks are kept under a
    # tenth of the pool, so that the 90th percentile falls among the 50 ms
    # questions and not in the gap between them and the n=10 plans.
    PLANS = {6: 48, 7: 36, 8: 30, 9: 24, 10: 12, 11: 6, 12: 6, 13: 6}
    PLAYOUT_POOL = 240
    PER_ROUND = 120
    MAX_PLIES = 2000

    def pool(self, rng):
        out = []
        for n, count in self.PLANS.items():
            for _ in range(count):
                e = rng.randint(1, 5)
                start, final = _pegs_for(rng, 3, e)
                out.append({"kind": "plan", "n": n, "ending": e, "start": start,
                            "final": final, "w": _weights(rng)})
        for _ in range(self.PLAYOUT_POOL):
            pegs, n, e = rng.choice((3, 4)), rng.randint(3, 8), rng.randint(1, 5)
            start, final = _pegs_for(rng, pegs, e)
            out.append({"kind": "playout", "pegs": pegs, "n": n, "ending": e,
                        "start": start, "final": final, "game": rng.getrandbits(32)})
        return out

    def sample(self, pool, rng, tiny):
        out = stratified(pool, 4 if tiny else self.PER_ROUND, rng)
        rng.shuffle(out)
        return [(e["q"], e["a"]) for e in out]

    def prepare(self, questions):
        return None

    def answer(self, q, ctx):
        pegs = q.get("pegs", 3)
        cfg = GameConfig(q["n"], pegs, Ending(q["ending"]), q["start"], q["final"])
        if q["kind"] == "plan":
            w = Weights(*(Fraction(x) for x in q["w"]))
            plan = scoring_strategy(cfg, w)
            report = replay(cfg, None, plan.full, w)
            return {
                "pumps": plan.pumps,
                "moves": seq_length(plan.full),
                "predicted": str(plan.predicted_delta),
                "legal": report.legal,
                "terminal": report.terminal,
                "forced": report.forced_even_plies,
                "delta": str(report.delta),
                "plies": report.plies_applied,
            }
        rng = random.Random(q["game"])
        state = initial_state(cfg)
        digest = plies = 0
        while plies < self.MAX_PLIES:
            moves = legal_moves(state, cfg)
            if not moves:
                break
            move = moves[rng.randrange(len(moves))]
            state = apply_move(state, move, cfg)
            digest = (digest * 1_000_003 + move.source * 16 + move.target) % (1 << 61)
            plies += 1
        return {
            "plies": plies,
            "terminal": is_terminal(state, cfg),
            "pos": "".join(map(str, state.pos)),
            "last": state.last_moved,
            "digest": digest,
        }

    def divergence(self, q, a):
        if q["kind"] != "plan":
            return None
        if (a["legal"] and a["terminal"] and a["forced"]
                and a["delta"] == a["predicted"] and Fraction(a["delta"]) > 0):
            return None
        return (
            f"plan n={q['n']} {_ending_name(q['ending'])} w=({','.join(q['w'])}): "
            f"predicted {a['predicted']}, replayed {a['delta']}"
        )


def _w_args(w: list[str]) -> list[str]:
    # argparse reads "-1/2" after a separate option token as an option of
    # its own, so every weight goes in the --w13=-1/2 form.
    return [f"--w12={w[0]}", f"--w13={w[1]}", f"--w23={w[2]}"]


def _game_args(rng, pegs: int, n: int, e: int) -> list[str]:
    start, final = _pegs_for(rng, pegs, e)
    args = ["-n", str(n), "-l", str(pegs), "--ec", str(e), "--start", str(start)]
    return args + ([] if final is None else ["--final", str(final)])


def _ending_for(rng, n: int) -> int:
    # The return endings are unsatisfiable with one disk.
    return rng.choice((1, 4, 5) if n == 1 else (1, 2, 3, 4, 5))


class SmallBatch:
    """In-process CLI calls on tiny games, plus one verify-paper per round."""

    name = "small-batch"
    # Pooled calls per subcommand; verify-paper is asked once every round.
    COUNTS = {"solve": 40, "score": 50, "minmoves": 60, "strategy": 30,
              "replay": 60, "graph": 30, "region": 20}
    PER_ROUND = 80

    def _argv(self, rng, cmd):
        n = rng.randint(3, 4) if cmd == "strategy" else rng.randint(1, 4)
        # Four pegs only up to three disks: the four-peg n=4 graph alone takes
        # half a second, and this workload is about per-call fixed cost.
        four = n <= 3 and (cmd in ("solve", "graph") or (cmd == "minmoves" and rng.random() < 0.3))
        pegs = rng.choice((3, 4)) if four else 3
        e = _ending_for(rng, n)
        game = _game_args(rng, pegs, n, e)
        if cmd == "solve":
            return pegs, n, ["solve", *game, "--json"]
        if cmd == "score":
            return pegs, n, ["score", *game, *_w_args(_weights(rng, 0.15)),
                             "--check", "--budget-depth", str(SEARCH_CAP), "--json"]
        if cmd == "minmoves":
            weights = [] if pegs == 4 else _w_args(_weights(rng, 0.15))
            return pegs, n, ["minmoves", *game, *weights, "--json"]
        if cmd == "strategy":
            return pegs, n, ["strategy", *game, *_w_args(_weights(rng)), "--json"]
        if cmd == "replay":
            atoms = [rng.choice(("12", "13", "23")) for _ in range(rng.randint(3, 12))]
            seq = "-".join(atoms[:-2]) + f"-({atoms[-2]}-{atoms[-1]})^{rng.randint(1, 4)}"
            weights = _w_args(_weights(rng)) if rng.random() < 0.5 else []
            return pegs, n, ["replay", *game, "--seq", seq, *weights, "--json"]
        if cmd == "graph":
            return pegs, n, ["graph", *game, "--level", "state", "--format", "json"]
        return pegs, n, ["region", "-n", str(n), "--ec", str(e),
                         f"--w23={rng.choice(HALVES)}", "--grid=-2:2:1"]

    def pool(self, rng):
        out = []
        for cmd, count in self.COUNTS.items():
            for _ in range(count):
                pegs, n, argv = self._argv(rng, cmd)
                out.append({"cmd": cmd, "pegs": pegs, "n": n, "argv": argv})
        return out + [{"cmd": "verify-paper", "pegs": 3, "n": 0, "argv": ["verify-paper", "--json"]}]

    def sample(self, pool, rng, tiny):
        calls = [e for e in pool if e["q"]["cmd"] != "verify-paper"]
        out = stratified(calls, 4 if tiny else self.PER_ROUND, rng)
        out += [e for e in pool if e["q"]["cmd"] == "verify-paper"]
        rng.shuffle(out)
        return [(e["q"], e["a"]) for e in out]

    def prepare(self, questions):
        return None

    def answer(self, q, ctx):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(q["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue() + "\0" + err.getvalue()
        return {"exit": code, "output": hashlib.sha256(text.encode()).hexdigest()[:16]}

    def divergence(self, q, a):
        # Exit status 1 is the CLI reporting that a cross-check disagrees.
        return " ".join(q["argv"]) if a["exit"] == 1 else None


WORKLOADS = {w.name: w for w in (NormalOracle(), ScoringOracle(), LineReplay(), SmallBatch())}
