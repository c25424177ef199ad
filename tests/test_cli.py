"""Tests for the command line entry points."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main_analyze, main_lint, main_prolog
from tests.conftest import APPEND_NREV


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.pl"
    path.write_text(APPEND_NREV)
    return str(path)


class TestAnalyzeCli:
    def test_basic(self, program_file, capsys):
        assert main_analyze([program_file, "nrev(glist, var)"]) == 0
        out = capsys.readouterr().out
        assert "nrev/2" in out

    def test_table_flag(self, program_file, capsys):
        main_analyze([program_file, "nrev(glist, var)", "--table"])
        out = capsys.readouterr().out
        assert "->" in out

    def test_depth_flag(self, program_file, capsys):
        main_analyze([program_file, "nrev(glist, var)", "--depth", "2"])
        assert "depth 2" in capsys.readouterr().out

    def test_multiple_entries(self, program_file, capsys):
        main_analyze([program_file, "nrev(glist, var)", "app(var, var, glist)"])
        assert "app/3" in capsys.readouterr().out


class TestPrologCli:
    def test_run_query(self, program_file, capsys):
        assert main_prolog([program_file, "nrev([1,2,3], R)"]) == 0
        assert "R = [3, 2, 1]" in capsys.readouterr().out

    def test_failure_exit_code(self, program_file, capsys):
        assert main_prolog([program_file, "nrev(abc, R)"]) == 1
        assert "false" in capsys.readouterr().out

    def test_all_solutions(self, program_file, capsys):
        main_prolog([program_file, "app(X, Y, [1, 2])", "--all"])
        out = capsys.readouterr().out
        assert out.count("X =") == 3

    def test_solver_engine(self, program_file, capsys):
        main_prolog([program_file, "nrev([1,2], R)", "--engine", "solver"])
        assert "R = [2, 1]" in capsys.readouterr().out

    def test_listing(self, program_file, capsys):
        main_prolog([program_file, "--listing"])
        out = capsys.readouterr().out
        assert "nrev/2:" in out

    def test_zero_arity_goal(self, tmp_path, capsys):
        path = tmp_path / "hello.pl"
        path.write_text("main :- write(hello), nl.")
        main_prolog([str(path), "main"])
        out = capsys.readouterr().out
        assert "true" in out
        assert "hello" in out

    def test_library_flag(self, tmp_path, capsys):
        path = tmp_path / "uses_lib.pl"
        path.write_text("go(R) :- append([1], [2], R).")
        main_prolog([str(path), "go(R)", "--library"])
        assert "R = [1, 2]" in capsys.readouterr().out


class TestAnalyzeClientFlags:
    def test_parallel_flag(self, tmp_path, capsys):
        path = tmp_path / "par.pl"
        path.write_text("main :- p(X), q(X). p(1). q(_).")
        main_analyze([str(path), "main", "--parallel"])
        out = capsys.readouterr().out
        assert "and-parallelism" in out
        assert "ground(X)" in out

    def test_deadcode_flag(self, tmp_path, capsys):
        path = tmp_path / "dead.pl"
        path.write_text("main :- p. p. orphan.")
        main_analyze([str(path), "main", "--deadcode"])
        assert "unreachable: orphan/0" in capsys.readouterr().out

    def test_specialize_flag(self, program_file, capsys):
        main_analyze([program_file, "nrev(glist, var)", "--specialize"])
        assert "specialization" in capsys.readouterr().out

    def test_subsumption_flag(self, program_file, capsys):
        main_analyze([program_file, "nrev(glist, var)", "--subsumption"])
        assert "nrev/2" in capsys.readouterr().out


class TestJsonAndUndefinedFlags:
    def test_json_flag(self, program_file, capsys):
        import json

        main_analyze([program_file, "nrev(glist, var)", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["predicates"]["nrev/2"]["modes"] == ["+g", "-"]

    def test_on_undefined_flag(self, tmp_path, capsys):
        path = tmp_path / "partial.pl"
        path.write_text("main :- missing(X), p(X). p(_).")
        main_analyze([str(path), "main", "--on-undefined", "top"])
        assert "missing/1" in capsys.readouterr().out


class TestLintCli:
    def test_clean_program_exits_zero(self, program_file, capsys):
        assert main_lint([program_file, "nrev(glist, var)"]) == 0
        assert "% lint: clean" in capsys.readouterr().out

    def test_warnings_only_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "warn.pl"
        path.write_text("main :- p(Extra), p(_).\np(a).\norphan(b).\n")
        assert main_lint([str(path), "main"]) == 0
        out = capsys.readouterr().out
        assert "W002" in out and "'Extra'" in out
        assert "W003" in out and "orphan/1" in out
        assert "error" not in out

    def test_errors_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.pl"
        path.write_text("bad(X) :- Y is X + Z, p(Y, Z).\np(_, _).\n")
        assert main_lint([str(path), "bad(var)"]) == 1
        out = capsys.readouterr().out
        assert "E006" in out
        assert "error" in out

    def test_golden_text_format(self, tmp_path, capsys):
        path = tmp_path / "single.pl"
        path.write_text("main :- p(Extra), p(_).\np(a).\n")
        main_lint([str(path), "main"])
        out = capsys.readouterr().out
        assert (
            f"{path}:1:1: warning: W002: singleton variable 'Extra' "
            "(prefix with _ if intentional) [main/0]" in out
        )
        assert "% lint: 1 warning" in out

    def test_json_flag(self, tmp_path, capsys):
        import json

        path = tmp_path / "warn.pl"
        path.write_text("main :- p(Extra), p(_).\np(a).\n")
        assert main_lint([str(path), "main", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["has_errors"] is False
        assert data["counts"]["warning"] == 1
        (diagnostic,) = data["diagnostics"]
        assert diagnostic["code"] == "W002"
        assert diagnostic["line"] == 1
        assert diagnostic["predicate"] == "main/0"

    def test_syntax_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.pl"
        path.write_text("p(a.\n")
        assert main_lint([str(path), "p(g)"]) == 1
        assert "E001" in capsys.readouterr().out

    def test_no_source_flag(self, tmp_path, capsys):
        path = tmp_path / "warn.pl"
        path.write_text("main :- p(Extra), p(_).\np(a).\n")
        main_lint([str(path), "main", "--no-source"])
        assert "% lint: clean" in capsys.readouterr().out

    def test_no_verify_flag(self, program_file, capsys):
        assert main_lint([program_file, "nrev(glist, var)", "--no-verify"]) == 0
        assert "% lint: clean" in capsys.readouterr().out

    def test_analyze_lint_flag(self, tmp_path, capsys):
        path = tmp_path / "warn.pl"
        path.write_text("main :- p(Extra), p(_).\np(a).\n")
        main_analyze([str(path), "main", "--lint"])
        out = capsys.readouterr().out
        assert "main/0" in out  # the analysis report
        assert "W002" in out  # the appended lint report
        assert "% lint: 1 warning" in out


class TestCliHardening:
    """Library/I-O failures exit 2 with one line on stderr, never a
    traceback."""

    def test_analyze_missing_file(self, capsys):
        assert main_analyze(["/nonexistent/prog.pl", "main"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-analyze: error:")
        assert err.count("\n") == 1

    def test_lint_missing_file(self, capsys):
        assert main_lint(["/nonexistent/prog.pl", "main"]) == 2
        assert capsys.readouterr().err.startswith("repro-lint: error:")

    def test_prolog_missing_file(self, capsys):
        assert main_prolog(["/nonexistent/prog.pl", "main"]) == 2
        assert capsys.readouterr().err.startswith("repro-prolog: error:")

    def test_analyze_bad_entry_pattern(self, program_file, capsys):
        assert main_analyze([program_file, "nrev(bogus_mode, var)"]) == 2
        assert "repro-analyze: error:" in capsys.readouterr().err

    def test_prolog_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "broken.pl"
        path.write_text("p(.\n")
        assert main_prolog([str(path), "p(X)"]) == 2
        assert "repro-prolog: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,prog", [
        ("main_analyze", "repro-analyze"), ("main_lint", "repro-lint"),
    ])
    def test_too_deep_a_term_is_one_line(self, tmp_path, command, prog):
        # In a fresh process: the solver raises the recursion limit for
        # the whole process, so in this one the outcome would depend on
        # which tests ran before.
        path = tmp_path / "deep.pl"
        path.write_text("p(" + "f(" * 3000 + "a" + ")" * 3000 + ").\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        completed = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from repro.cli import {command}; "
             f"sys.exit({command}(sys.argv[1:]))",
             str(path), "p(var)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith(
            f"{prog}: error: too deep to analyze:"
        )
        assert completed.stderr.count("\n") == 1

    @pytest.mark.parametrize("text,entry", [
        ("p(X, Y) :- X = [Y|X], Y = f(X).", "p(var, var)"),
        # T's cell is the argument slot itself, so binding T stores the
        # structure there: a cycle with no reference cell in it.
        ("p(X) :- X = f(T), T = X.", "p(var)"),
    ])
    def test_cyclic_term_analyzes_exact(self, tmp_path, capsys, text, entry):
        path = tmp_path / "cyclic.pl"
        path.write_text(text + "\n")
        assert main_analyze([str(path), entry, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "exact"
        (types,) = [p["success_types"] for p in report["predicates"].values()]
        assert "var" not in types


class TestCliBudgets:
    def test_analyze_degrades_by_default(self, program_file, capsys):
        code = main_analyze([program_file, "nrev(glist, var)", "--max-steps", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "% status: degraded" in out

    def test_analyze_on_budget_raise(self, program_file, capsys):
        code = main_analyze(
            [program_file, "nrev(glist, var)", "--max-steps", "5",
             "--on-budget", "raise"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "repro-analyze: error:" in err
        assert "step budget" in err

    def test_analyze_exact_unaffected_by_loose_budget(
        self, program_file, capsys
    ):
        assert main_analyze(
            [program_file, "nrev(glist, var)", "--max-steps", "1000000"]
        ) == 0
        out = capsys.readouterr().out
        assert "status: degraded" not in out
        assert "nrev/2" in out

    def test_analyze_json_reports_status(self, program_file, capsys):
        import json

        main_analyze(
            [program_file, "nrev(glist, var)", "--max-steps", "5", "--json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "degraded"
        assert data["entry_reports"][0]["status"] == "degraded"
        assert data["entry_reports"][0]["reason"]

    def test_analyze_max_iterations_degrades(self, program_file, capsys):
        assert main_analyze(
            [program_file, "nrev(glist, var)", "--max-iterations", "1"]
        ) == 0
        assert "% status: degraded" in capsys.readouterr().out

    def test_lint_budget_emits_i001_and_mutes(self, program_file, capsys):
        assert main_lint(
            [program_file, "nrev(glist, var)", "--max-steps", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "I001" in out
        assert "muted" in out

    def test_every_lint_report_carries_i001_on_a_degraded_run(
        self, tmp_path, capsys
    ):
        # One lint-report assembly: repro-lint, repro-analyze --lint and
        # the served lint op all say the analysis was widened.
        from repro.bench import get_benchmark
        from repro.serve import AnalysisService, ServiceConfig

        bench = get_benchmark("queens_8")
        path = tmp_path / "queens_8.pl"
        path.write_text(bench.source)
        entry = str(bench.entry)
        assert main_lint([str(path), entry, "--max-steps", "50"]) == 0
        assert "I001" in capsys.readouterr().out
        assert main_analyze(
            [str(path), entry, "--max-steps", "50", "--lint"]
        ) == 0
        out = capsys.readouterr().out
        assert "% status: degraded" in out
        assert "I001" in out
        served = AnalysisService(ServiceConfig()).handle({
            "op": "lint", "text": bench.source, "entries": [entry],
            "budget": {"max_steps": 50},
        })
        assert served["status"] == "degraded"
        codes = [d["code"] for d in served["lint"]["diagnostics"]]
        assert "I001" in codes

    def test_prolog_step_budget_trips(self, program_file, capsys):
        code = main_prolog(
            [program_file, "nrev([1,2,3,4,5,6,7,8], R)", "--max-steps", "10"]
        )
        assert code == 2
        assert "repro-prolog: error:" in capsys.readouterr().err

    def test_prolog_generous_budget_succeeds(self, program_file, capsys):
        assert main_prolog(
            [program_file, "nrev([1,2], R)", "--max-steps", "100000",
             "--deadline", "60"]
        ) == 0
        assert "R = [2, 1]" in capsys.readouterr().out

    def test_prolog_solver_budget(self, program_file, capsys):
        code = main_prolog(
            [program_file, "nrev([1,2], R)", "--engine", "solver",
             "--deadline", "60"]
        )
        assert code == 0
        assert "R = [2, 1]" in capsys.readouterr().out


class TestServeCli:
    """repro-serve: batch mode, the stdin loop, deterministic JSON."""

    def test_batch_two_passes_hits(self, program_file, capsys):
        from repro.cli import main_serve

        assert main_serve(
            [program_file, "--batch", "--entry", "nrev(glist, var)"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["passes"][0]["miss"] == 1
        assert summary["passes"][1]["hit"] == 1

    def test_batch_missing_file_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main_serve

        code = main_serve(
            [str(tmp_path / "nope.pl"), "--batch", "--entry", "main"]
        )
        capsys.readouterr()
        assert code == 1

    def test_stdin_loop(self, program_file, capsys, monkeypatch):
        import io

        from repro.cli import main_serve

        request = json.dumps({
            "op": "analyze", "file": program_file,
            "entries": ["nrev(glist, var)"],
        })
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(request + "\n" + '{"op": "shutdown"}\n')
        )
        assert main_serve([]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        first = json.loads(lines[0])
        assert first["ok"] and first["result"]["status"] == "exact"

    def test_analyze_json_is_deterministic(self, program_file, capsys):
        """--json output is byte-identical across runs, modulo timing."""
        outputs = []
        for _ in range(2):
            assert main_analyze(
                [program_file, "nrev(glist, var)", "--json"]
            ) == 0
            data = json.loads(capsys.readouterr().out)
            for key in ("seconds", "iterations", "instructions_executed"):
                data.pop(key)
            outputs.append(json.dumps(data, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_lint_json_is_deterministic(self, program_file, capsys):
        outputs = []
        for _ in range(2):
            main_lint([program_file, "nrev(glist, var)", "--json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # keys are sorted at every level
        report = json.loads(outputs[0])
        assert list(report) == sorted(report)


@pytest.mark.parametrize("text", ["a('\\xg').\n", "x(²).\n"])
def test_characters_int_rejects_are_syntax_errors(tmp_path, capsys, text):
    path = tmp_path / "bad.pl"
    path.write_text(text, encoding="utf-8")
    assert main_analyze([str(path), "x(var)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-analyze: error:") and err.count("\n") == 1
