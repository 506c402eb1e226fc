"""Command-line surface, exercised through real subprocesses."""

import argparse
import json
import re
import subprocess
import sys

import pytest

from hanoiduel import cli, verify

from helpers import needs_default_int_limit

CLI = [sys.executable, "-m", "hanoiduel.cli"]


def run_cli(*args, check=False):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=120
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"{args}: rc={proc.returncode}\n{proc.stderr}")
    return proc


def run_json(*args):
    proc = run_cli(*args, "--json", check=True)
    return json.loads(proc.stdout)


class TestSolve:
    def test_three_disks(self):
        data = run_json("solve", "-n", "3", "-l", "3", "--ec", "1")
        assert data["verdict"]["outcome"] == "FirstWin"
        assert data["min_moves"]["upper"] == 7
        assert data["oracle"]["initial_radius"] == 7
        assert data["agrees"] is True

    def test_four_pegs_draw(self):
        data = run_json("solve", "-n", "3", "-l", "4", "--ec", "1")
        assert data["verdict"]["outcome"] == "Draw"
        assert data["agrees"] is True

    def test_ending_aliases(self):
        data = run_json("solve", "-n", "2", "--ec", "return-largest")
        assert data["config"]["ending"] == 2

    def test_return_largest_table_overshoot(self):
        # The closed form says 31, exhaustive play needs only 23; solve
        # still agrees on the outcome and reports the true radius.
        data = run_json("solve", "-n", "4", "--ec", "2")
        assert data["min_moves"]["upper"] == 31
        assert data["oracle"]["initial_radius"] == 23
        assert data["agrees"] is True


class TestScore:
    def test_first_win_with_certificate(self):
        data = run_json(
            "score", "-n", "2", "--ec", "1",
            "--w12", "2", "--w13", "2", "--w23", "-3",
        )
        assert data["verdict"]["outcome"] == "FirstWin"
        assert data["verdict"]["predicted_delta"] == "7"

    def test_missing_weights(self):
        proc = run_cli("score", "-n", "2", "--ec", "1", "--w12", "1")
        assert proc.returncode == 2

    def test_check_against_search(self):
        proc = run_cli(
            "score", "-n", "2", "--ec", "4",
            "--w12", "1/2", "--w13", "-1", "--w23", "0", "--check",
        )
        assert proc.returncode == 0, proc.stderr

    def test_fraction_weights(self):
        data = run_json(
            "score", "-n", "3", "--ec", "1",
            "--w12", "0.5", "--w13", "1/4", "--w23", "-2",
        )
        assert data["weights"]["w12"] == "1/2"

    def test_check_shorter_than_any_finish_is_usage_error(self, capsys):
        # No two-disk game ends before ply 3, so a 2-ply search checks nothing.
        args = ["score", "-n", "2", "--w12", "0", "--w13", "0", "--w23", "0", "--check"]
        assert cli.main([*args, "--budget-depth", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--budget-depth 2 is shorter than the shortest finish, 3 plies" in err
        assert cli.main([*args, "--budget-depth", "3"]) == 0


class TestMinMoves:
    def test_normal_agrees_small(self):
        data = run_json("minmoves", "-n", "3", "--ec", "2")
        assert data["min_moves"] == {"lower": 15, "upper": 15, "exact": True}
        assert data["check"]["agrees"] is True

    def test_normal_table_mismatch_is_reported(self):
        proc = run_cli("minmoves", "-n", "4", "--ec", "2")
        assert proc.returncode == 1
        assert "MISMATCH" in proc.stdout

    def test_scoring_bounds(self):
        data = run_json(
            "minmoves", "-n", "3", "--ec", "1",
            "--w12", "0", "--w13", "-4", "--w23", "0",
        )
        assert data["min_moves"]["lower"] == 8
        assert data["min_moves"]["upper"] == 23

    def test_infinite_upper(self):
        data = run_json(
            "minmoves", "-n", "2", "--ec", "1",
            "--w12", "0", "--w13", "0", "--w23", "0",
        )
        assert data["min_moves"]["upper"] == "inf"

    def test_no_check_flag(self):
        proc = run_cli("minmoves", "-n", "4", "--ec", "2", "--no-check", check=True)
        assert "oracle" not in proc.stdout

    def test_state_budget_skip_says_why(self):
        proc = run_cli("minmoves", "-n", "3", "--budget-states", "100", check=True)
        assert proc.stdout == (
            "min moves: 7\n"
            "oracle: skipped (state space 432 exceeds the budget of 100)\n"
        )

    def test_ply_cap_skip_says_why(self):
        proc = run_cli(
            "minmoves", "-n", "7", "--w12", "1", "--w13", "2", "--w23", "3",
            check=True,
        )
        assert proc.stdout == (
            "min moves: 127\n"
            "oracle: skipped (upper bound 127 exceeds the 63-ply search cap)\n"
        )

    def test_depth_shorter_than_any_finish_is_skipped(self, capsys):
        # A search that no game can finish within is not an agreement.
        args = ["minmoves", "-n", "2", "--w12", "0", "--w13", "0", "--w23", "0"]
        assert cli.main([*args, "--budget-depth", "1"]) == 0
        assert capsys.readouterr().out == (
            "min moves: inf\n"
            "oracle: skipped (--budget-depth 1 is shorter than the shortest"
            " finish, 3 plies)\n"
        )
        assert cli.main([*args, "--budget-depth", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["check"] is None
        assert cli.main([*args, "--budget-depth", "3"]) == 0
        assert "agreement: yes" in capsys.readouterr().out

    def test_budget_states_reaches_the_solver(self, monkeypatch):
        # A budget above the default is used, not clipped to it; the solver
        # is replaced so that no large board has to be built.
        seen = []

        def fake_solver(cfg, budget_states):
            seen.append(budget_states)
            return 7

        monkeypatch.setattr(cli, "shortest_forced_win", fake_solver)
        assert cli.main(["minmoves", "-n", "3", "--budget-states", "1000000000"]) == 0
        assert cli.main(["minmoves", "-n", "3"]) == 0
        assert seen == [10**9, 500_000]


class TestStrategy:
    def test_plan_dump(self):
        proc = run_cli(
            "strategy", "-n", "3", "--ec", "1",
            "--w12", "1", "--w13", "1", "--w23", "5",
            check=True,
        )
        assert "predicted delta" in proc.stdout
        assert "agreement: yes" in proc.stdout

    def test_uniform_weights_report(self):
        proc = run_cli(
            "strategy", "-n", "3", "--ec", "1",
            "--w12", "2", "--w13", "2", "--w23", "2",
            check=True,
        )
        assert "equal" in proc.stdout

    def test_too_few_disks(self):
        proc = run_cli(
            "strategy", "-n", "2", "--ec", "1",
            "--w12", "1", "--w13", "2", "--w23", "3",
        )
        assert proc.returncode == 2


class TestReplay:
    def test_table_row(self):
        data = run_json(
            "replay", "-n", "2", "--ec", "2", "--seq", "13-12-13-23-12-13-12",
            "--w12", "1", "--w13", "2", "--w23", "3",
        )
        assert data["legal"] is True
        assert data["terminal"] is True
        assert data["plies_applied"] == 7
        assert data["delta"] == "0"

    def test_bad_sequence_is_usage_error(self):
        proc = run_cli("replay", "-n", "2", "--seq", "13-99")
        assert proc.returncode == 2

    def test_illegal_replay_reported_not_crash(self):
        data = run_json("replay", "-n", "2", "--seq", "13-13")
        assert data["legal"] is False
        assert data["failed_at"] == 2

    def test_from_state(self):
        data = run_json(
            "replay", "-n", "2", "--seq", "13",
            "--state", "pegs=3;disks=2;pos=3,2;last=2;flags=01",
        )
        assert data["legal"] is True

    def test_state_mismatch(self):
        proc = run_cli(
            "replay", "-n", "3", "--seq", "12",
            "--state", "pegs=3;disks=2;pos=1,1;last=-;flags=00",
        )
        assert proc.returncode == 2


class TestGraphAndRegion:
    def test_dot_deterministic(self):
        a = run_cli("graph", "-n", "2", "--format", "dot", check=True).stdout
        b = run_cli("graph", "-n", "2", "--format", "dot", check=True).stdout
        assert a == b
        assert a.count(" -- ") == 12

    def test_json_counts(self):
        proc = run_cli("graph", "-n", "3", "--format", "json", check=True)
        data = json.loads(proc.stdout)
        assert data["counts"] == {"nodes": 27, "edges": 39}

    def test_highlight_off_three_pegs_is_usage_error(self):
        proc = run_cli("graph", "-n", "2", "-l", "4", "--final", "4",
                       "--highlight-minimal")
        assert proc.returncode == 2
        assert "three-peg transfer" in proc.stderr
        assert proc.stdout == ""

    def test_highlight_from_peg_three_is_usage_error(self):
        proc = run_cli("graph", "-n", "2", "--ec", "4", "--start", "3",
                       "--highlight-minimal")
        assert proc.returncode == 2
        assert "start peg must not be peg 3" in proc.stderr
        assert proc.stdout == ""

    def test_state_level_highlight_is_usage_error(self):
        proc = run_cli("graph", "-n", "2", "--level", "state", "--highlight-minimal")
        assert proc.returncode == 2
        assert "position graph only" in proc.stderr
        assert proc.stdout == ""

    def test_position_budget_is_usage_error(self, capsys):
        assert cli.main(["graph", "-n", "3", "--budget-states", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "position space 27 exceeds the budget of 10" in err
        assert cli.main(["graph", "-n", "3", "--budget-states", "27"]) == 0

    def test_output_file(self, tmp_path):
        out = tmp_path / "g.dot"
        run_cli("graph", "-n", "1", "--format", "dot", "-o", str(out), check=True)
        assert out.read_text().startswith("graph positions {")

    def test_region_grid(self):
        proc = run_cli(
            "region", "--ec", "1", "--w23", "-3", "--grid", "-3:3:3", check=True
        )
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "w12,w13,outcome"
        assert "-3,-3,Draw" in lines
        assert "3,3,FirstWin" in lines
        assert len(lines) == 1 + 9

    def test_region_defaults_two_disks(self):
        proc = run_cli("region", "--w23", "0", "--grid", "0:1:1", check=True)
        assert len(proc.stdout.strip().splitlines()) == 5

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_region_error_writes_nothing(self, tmp_path, to_file):
        out = tmp_path / "region.csv"
        args = ["region", "-l", "4", "--w23", "0", "--grid", "0:1:1"]
        proc = run_cli(*args, *(["-o", str(out)] if to_file else []))
        assert proc.returncode == 2
        assert "three-peg" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_region_over_cap_writes_nothing(self, tmp_path, to_file):
        # A 1001 x 1001 grid is over the cap: refused before any verdict.
        out = tmp_path / "region.csv"
        args = ["region", "--w23", "0", "--grid", "0:1000:1"]
        proc = run_cli(*args, *(["-o", str(out)] if to_file else []))
        assert proc.returncode == 2
        assert "has 1002001 cells, more than the cap of 1000000" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_region_cap_counts_cells(self, monkeypatch, capsys):
        # -3:3:3 is a 3 x 3 grid: nine cells are within a cap of nine.
        args = ["region", "--w23", "-3", "--grid", "-3:3:3"]
        monkeypatch.setattr(cli, "MAX_REGION_CELLS", 9)
        assert cli.main(args) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 9
        monkeypatch.setattr(cli, "MAX_REGION_CELLS", 8)
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "has 9 cells, more than the cap of 8" in err


class TestDashValues:
    @pytest.mark.parametrize(
        "spaced,joined",
        [
            pytest.param(
                ["score", "-n", "2", "--w12", "1", "--w13", "-1/2", "--w23", "0"],
                ["score", "-n", "2", "--w12", "1", "--w13=-1/2", "--w23", "0"],
                id="score",
            ),
            pytest.param(
                ["region", "--w23", "-1/2", "--grid", "0:1:1"],
                ["region", "--w23=-1/2", "--grid", "0:1:1"],
                id="region",
            ),
        ],
    )
    def test_value_with_leading_minus(self, spaced, joined):
        # argparse alone only takes plain negative numbers such as -3 as a
        # value; a fraction after a space must parse like the = form.
        want = run_cli(*joined, check=True)
        got = run_cli(*spaced)
        assert got.returncode == 0, got.stderr
        assert got.stdout == want.stdout


class TestVerifyAndErrors:
    def test_verify_paper_passes(self):
        proc = run_cli("verify-paper", check=True)
        assert "checks passed" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_verify_paper_json(self):
        data = run_json("verify-paper")
        assert data["failed"] == 0
        assert data["passed"] == len(data["checks"])
        assert all(c["ok"] for c in data["checks"])

    def test_verify_paper_reports_a_refuted_claim(self, monkeypatch, capsys):
        # One formula off by one refutes exactly the check that uses it.
        monkeypatch.setattr(verify, "delta_minimal_13", lambda disks, w: w.w13 + 1)
        failed = [r for r in verify.run_checks() if not r.ok]
        assert [r.name for r in failed] == ["transfer scores"]
        assert failed[0].detail
        assert cli.main(["verify-paper"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[2].startswith("FAIL - transfer scores: ")
        assert out[-1] == "10/11 checks passed"

    def test_verify_paper_fails_with_assertions_off(self):
        # ``python -O`` strips assert statements; the checks must not use them.
        code = (
            "import sys\n"
            "from hanoiduel import cli, verify\n"
            "verify.delta_minimal_13 = lambda disks, w: w.w13 + 1\n"
            "sys.exit(cli.main(['verify-paper']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL - transfer scores: " in proc.stdout
        assert proc.stdout.endswith("10/11 checks passed\n")

    @pytest.mark.parametrize(
        "argv",
        [["graph", "-n", "2"], ["region", "-n", "2", "--w23", "0", "--grid", "0:1:1"]],
        ids=["graph", "region"],
    )
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, argv, where):
        path = tmp_path / "missing" / "out.txt" if where == "missing-dir" else tmp_path
        assert cli.main([*argv, "-o", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_single_disk_return_ending(self):
        proc = run_cli("solve", "-n", "1", "--ec", "2")
        assert proc.returncode == 2
        assert "single disk" in proc.stderr

    def test_unknown_ec(self):
        proc = run_cli("solve", "-n", "2", "--ec", "9")
        assert proc.returncode == 2

    def test_missing_disks(self):
        proc = run_cli("solve", "--ec", "1")
        assert proc.returncode == 2


GAME = ["-n/--disks", "-l/--pegs", "--ec", "--start", "--final"]
WEIGHTS = ["--w12", "--w13", "--w23"]


class TestOptions:
    """Each subcommand declares only the options it reads."""

    EXPECTED = {
        "solve": GAME + ["--json", "--budget-states"],
        "score": GAME + WEIGHTS + ["--json", "--budget-states", "--budget-depth", "--check"],
        "minmoves": GAME + WEIGHTS
        + ["--json", "--budget-states", "--budget-depth", "--no-check"],
        "strategy": GAME + WEIGHTS + ["--json"],
        "replay": GAME + WEIGHTS + ["--json", "--seq", "--state"],
        "graph": GAME
        + ["--budget-states", "--format", "--level", "--highlight-minimal", "-o/--output"],
        "region": GAME + ["--w23", "--grid", "-o/--output"],
        "verify-paper": ["--json"],
    }

    def test_option_strings_per_subcommand(self):
        (subs,) = [
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        declared = {
            name: [
                "/".join(a.option_strings)
                for a in sub._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)
            ]
            for name, sub in subs.choices.items()
        }
        assert declared == self.EXPECTED
        assert sum(map(len, declared.values())) == 70

    VALID = {
        "graph": ["-n", "2"],
        "region": ["--w23", "0", "--grid", "0:1:1"],
        "solve": ["-n", "2"],
        "strategy": ["-n", "3", "--w12", "1", "--w13", "1", "--w23", "5"],
        "replay": ["-n", "2", "--seq", "13"],
    }

    @pytest.mark.parametrize("cmd", ["score", "minmoves"])
    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_search_depth_below_one_is_usage_error(self, cmd, depth, capsys):
        # A search of no plies finds no win, which read as agreement.
        args = [cmd, "-n", "2", "--w12", "0", "--w13", "0", "--w23", "0"]
        assert cli.main([*args, "--budget-depth", "1"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--budget-depth", depth])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "--budget-depth: must be at least 1 ply" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "-n", "3"],
            ["score", "-n", "2", "--w12", "1", "--w13", "0", "--w23", "0", "--check"],
            ["minmoves", "-n", "2"],
            ["graph", "-n", "2"],
        ],
        ids=["solve", "score", "minmoves", "graph"],
    )
    def test_negative_state_budget_is_usage_error(self, args, capsys):
        # A negative budget read as one no graph fits, so the check was
        # skipped and the call still exited 0.
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--budget-states", "-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "--budget-states: must be at least 0 states, got -1" in err
        assert out == ""
        # Zero stays a budget: the command runs and reports the graph over it.
        cli.main([*args, "--budget-states", "0"])
        assert "exceeds the budget of 0" in "".join(capsys.readouterr())

    @pytest.mark.parametrize(
        "cmd,removed",
        [
            ("graph", ["--json"]),
            ("graph", ["--budget-depth", "5"]),
            ("region", ["--json"]),
            ("region", ["--budget-states", "10"]),
            ("region", ["--budget-depth", "5"]),
            ("solve", ["--budget-depth", "0"]),
            ("strategy", ["--budget-states", "10"]),
            ("strategy", ["--budget-depth", "5"]),
            ("replay", ["--budget-states", "10"]),
            ("replay", ["--budget-depth", "5"]),
        ],
        ids=lambda x: x if isinstance(x, str) else x[0],
    )
    def test_removed_option_is_usage_error(self, cmd, removed, capsys):
        # Each of these used to parse and then be ignored.
        assert cli.main([cmd, *self.VALID[cmd]]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, *self.VALID[cmd], *removed])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments" in err
        assert out == ""


class TestDeepBoards:
    """Boards deeper than the recursion limit, and lines over the cap of
    2^20 moves: a certificate is stated by its length, a line that must be
    played is refused (exit 2), and no call raises a traceback."""

    CAP = 2**20

    @pytest.mark.parametrize("disks,ec", [(990, "1"), (1200, "2"), (400, "1")])
    def test_solve_states_verdict_count_and_length(self, disks, ec, capsys):
        # To-peg transfers the stack once, return-largest goes there and back.
        length = 2 ** (disks + int(ec) - 1) - 1
        assert cli.main(["solve", "-n", str(disks), "--ec", ec]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[:3] == [
            "verdict: FirstWin",
            f"certificate: {length} moves, not printed "
            f"(longer than the {self.CAP}-move cap)",
            f"min moves: {length}",
        ]
        assert out.splitlines()[3].startswith("oracle: skipped (state space")
        assert err == ""

    def test_certificate_cap_boundary(self, capsys):
        from hanoiduel.construct import minimal_transfer
        from hanoiduel.notation import to_text

        assert cli.main(["solve", "-n", "20", "--ec", "1", "--json"]) == 0
        cert = json.loads(capsys.readouterr().out)["verdict"]["certificate"]
        assert cert == {"text": to_text(minimal_transfer(20, 1, 3)), "length": 2**20 - 1}
        assert cli.main(["solve", "-n", "21", "--ec", "1", "--json"]) == 0
        cert = json.loads(capsys.readouterr().out)["verdict"]["certificate"]
        assert cert == {"text": None, "length": 2**21 - 1}
        args = ["score", "-n", "21", "--w12", "1", "--w13", "1", "--w23", "1"]
        assert cli.main(args) == 0
        assert capsys.readouterr().out.splitlines() == [
            "verdict: FirstWin",
            "predicted delta: 1",
            f"certificate: {2**21 - 1} moves, not printed "
            f"(longer than the {self.CAP}-move cap)",
        ]

    @pytest.mark.parametrize("disks", [21, 1000])
    def test_score_answers_unequal_weights_at_any_size(self, disks, capsys):
        # The pumped route is counted, not played, so no size is refused.
        args = ["score", "-n", str(disks), "--w12", "1", "--w13", "2", "--w23", "3"]
        assert cli.main(args) == 0
        out, err = capsys.readouterr()
        verdict, delta, cert = out.splitlines()
        assert (verdict, delta, err) == ("verdict: FirstWin", "predicted delta: 2", "")
        assert re.fullmatch(
            rf"certificate: \d+ moves, not printed \(longer than the {self.CAP}-move cap\)",
            cert,
        )
        assert cli.main([*args, "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert verdict["outcome"] == "FirstWin" and verdict["predicted_delta"] == "2"
        assert verdict["certificate"]["text"] is None
        if disks == 21:
            assert verdict["certificate"]["length"] == 4194299

    def test_strategy_over_the_cap_is_usage_error(self, capsys):
        args = ["strategy", "-n", "995", "--w12", "1", "--w13", "2", "--w23", "3"]
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            rf"error: a line of \d+ moves exceeds the cap of {self.CAP} moves\n", err
        )

    @pytest.mark.parametrize(
        "seq,reason",
        [
            ("(" * 600 + "12" + ")^1" * 600, "groups nested deeper than 100"),
            ("(12)^2097152", f"a line of 2097152 moves exceeds the cap of {2**20} moves"),
        ],
        ids=["nested", "long"],
    )
    def test_replay_refuses_without_traceback(self, seq, reason, capsys):
        assert cli.main(["replay", "-n", "2", "--seq", seq]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert reason in err and len(err.splitlines()) == 1


class TestOneParser:
    """``main`` builds its parser once per process and reuses it."""

    # One call per subcommand, with a usage error, a refused board and two
    # --help calls among them; the first call comes again after them.
    ARGVS = [
        ["solve", "-n", "3", "--json"],
        ["score", "-n", "2", "--w12", "-1/2", "--w13", "2", "--w23", "3", "--check"],
        ["solve", "--disks"],
        ["minmoves", "-n", "2", "--w12", "1", "--w13", "2", "--w23", "3"],
        ["--help"],
        ["strategy", "-n", "3", "--w12", "1", "--w13", "1", "--w23", "5"],
        ["replay", "-n", "2", "--seq", "13-12-23", "--json"],
        ["graph", "-n", "2", "--format", "json", "--level", "state"],
        ["region", "--help"],
        ["region", "--w23", "-1", "--grid", "-1:1:1"],
        ["strategy", "-n", "2", "--w12", "1", "--w13", "1", "--w23", "5"],
        ["verify-paper"],
        ["solve", "-n", "3", "--json"],
    ]

    def test_each_call_matches_a_fresh_process(self, monkeypatch, capsys):
        # Help and usage text wrap to the terminal width: fix it on both sides.
        monkeypatch.setenv("COLUMNS", "80")
        codes = set()
        for argv in self.ARGVS:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.add(code)
        assert codes == {0, 2}

    def test_build_parser_returns_a_fresh_parser(self, capsys):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() is cli._parser()
        assert cli._parser() not in (first, second)
        first.add_argument("--extra", action="store_true")
        assert first.parse_args(["--extra", "solve", "-n", "2"]).extra is True
        with pytest.raises(SystemExit) as exc:
            cli.main(["--extra", "solve", "-n", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --extra" in capsys.readouterr().err

    def test_global_patched_after_the_build_is_called(self, monkeypatch, capsys):
        assert cli.main(["minmoves", "-n", "2"]) == 0
        cached = cli._parser()
        monkeypatch.setattr(cli, "shortest_forced_win", lambda cfg, budget_states: 7)
        assert cli.main(["minmoves", "-n", "3"]) == 0
        assert cli._parser() is cached
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "oracle: forced win radius 7",
            "agreement: yes",
        ]


# 2^15000 has 4516 digits and 2^10000 has 3011, 3^10000 * 40004 has 4776.
@needs_default_int_limit
class TestCountsTooLongToPrint:
    TOO_LONG = (
        "error: a move count for 15000 disks has more than 4300 digits, the most "
        "this interpreter prints (sys.get_int_max_str_digits())\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [["solve", "-n", "15000", "--ec", "1"], ["minmoves", "-n", "15000", "--no-check"]],
        ids=["solve", "minmoves"],
    )
    def test_count_over_the_limit_is_usage_error(self, argv, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", self.TOO_LONG)
        assert cli.main([*argv, "--json"]) == 2
        assert capsys.readouterr() == ("", self.TOO_LONG)

    def test_solve_refuses_before_building_the_line(self, monkeypatch, capsys):
        def build_line(cfg):
            raise AssertionError("the certificate was built")

        monkeypatch.setattr(cli, "normal_verdict", build_line)
        assert cli.main(["solve", "-n", "15000", "--ec", "1"]) == 2
        assert capsys.readouterr() == ("", self.TOO_LONG)

    def test_score_refuses_before_counting_the_route(self, monkeypatch, capsys):
        def count_route(cfg, w):
            raise AssertionError("the pumped route was counted")

        monkeypatch.setattr(cli, "scoring_verdict", count_route)
        argv = ["score", "-n", "15000", "--w12", "1", "--w13", "0", "--w23", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", self.TOO_LONG)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_region_refuses_before_counting_the_route(
        self, monkeypatch, capsys, tmp_path, to_file
    ):
        def count_route(cfg, w):
            raise AssertionError("the pumped route was counted")

        monkeypatch.setattr(cli, "scoring_verdict", count_route)
        out = tmp_path / "region.csv"
        argv = ["region", "-n", "15000", "--w23", "1", "--grid", "0:1:1"]
        assert cli.main([*argv, *(["-o", str(out)] if to_file else [])]) == 2
        assert capsys.readouterr() == ("", self.TOO_LONG)
        assert not out.exists()

    def test_region_of_uniform_cells_counts_no_route(self, capsys):
        argv = ["region", "-n", "15000", "--w23", "1", "--grid", "1:1:1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr() == ("w12,w13,outcome\n1,1,FirstWin\n", "")

    def test_strategy_refuses_before_counting_the_route(self, monkeypatch, capsys):
        def count_route(cfg, w):
            raise AssertionError("the pumped route was counted")

        monkeypatch.setattr(cli.construct, "scoring_strategy", count_route)
        argv = ["strategy", "-n", "15000", "--w12", "1", "--w13", "0", "--w23", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "",
            f"error: a line of at least 10^4300 moves exceeds the cap of {2**20} moves\n",
        )

    def test_state_space_over_the_limit_is_written_as_a_power(self, capsys):
        assert cli.main(["solve", "-n", "10000", "--ec", "1"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[2] == f"min moves: {2**10000 - 1}"
        assert out.splitlines()[3] == (
            "oracle: skipped (state space 3^10000 * 40004 exceeds the budget of 100000000)"
        )
        assert err == ""

    def test_exponent_over_the_limit_is_usage_error(self, capsys):
        assert cli.main(["replay", "-n", "2", "--seq", "(12)^" + "9" * 5000]) == 2
        assert capsys.readouterr() == (
            "",
            "error: bad sequence: exponent has more than 4300 digits, the most "
            "this interpreter reads (at index 5)\n",
        )

    def test_state_graph_over_the_limit_is_usage_error(self, capsys):
        assert cli.main(["graph", "-n", "10000", "--level", "state"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: state space 3^10000 * 40004 exceeds the budget of 100000000\n",
        )
