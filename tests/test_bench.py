"""Tests for the benchmark programs and the Table 1 / Table 2 harnesses."""

import json

import pytest

from repro.analysis import Analyzer
from repro.bench import (
    BENCHMARKS,
    TABLE1_BY_NAME,
    format_table1,
    format_table2,
    get_benchmark,
    measure_benchmark,
    profile_program,
    project_table2,
)
from repro.prolog import Program
from repro.wam import compile_program


class TestBenchmarkPrograms:
    def test_eleven_benchmarks(self):
        assert len(BENCHMARKS) == 11

    def test_names_match_paper(self):
        assert [b.name for b in BENCHMARKS] == [
            "log10",
            "ops8",
            "times10",
            "divide10",
            "tak",
            "nreverse",
            "qsort",
            "query",
            "zebra",
            "serialise",
            "queens_8",
        ]

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_parses_and_compiles(self, bench):
        compiled = compile_program(Program.from_text(bench.source))
        assert compiled.total_size() > 0

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_profile_matches_paper_args_preds(self, bench):
        program = Program.from_text(bench.source)
        compiled = compile_program(program)
        profile = profile_program(bench.name, program, compiled)
        paper = TABLE1_BY_NAME[bench.name]
        assert profile.args == paper.args, "Args column must match the paper"
        assert profile.preds == paper.preds, "Preds column must match the paper"

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_code_size_same_magnitude_as_paper(self, bench):
        compiled = compile_program(Program.from_text(bench.source))
        paper = TABLE1_BY_NAME[bench.name]
        ratio = compiled.total_size() / paper.size
        assert 0.4 < ratio < 3.5

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_analysis_succeeds(self, bench):
        result = Analyzer(bench.source).analyze([bench.entry])
        assert result.predicate(("main", 0)).can_succeed

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_exec_count_same_magnitude_as_paper(self, bench):
        result = Analyzer(bench.source).analyze([bench.entry])
        paper = TABLE1_BY_NAME[bench.name]
        ratio = result.instructions_executed / paper.exec_count
        assert 0.1 < ratio < 10

    def test_get_benchmark(self):
        assert get_benchmark("tak").name == "tak"
        with pytest.raises(KeyError):
            get_benchmark("nope")


class TestHarness:
    def test_measure_one_row_meta_baseline(self):
        row = measure_benchmark(get_benchmark("tak"), repeats=1, baseline="meta")
        assert row.name == "tak"
        assert row.ours_seconds > 0
        assert row.baseline_seconds > 0
        assert row.size > 0
        assert row.exec_count > 0

    def test_format_table1(self):
        row = measure_benchmark(get_benchmark("tak"), repeats=1, baseline="meta")
        text = format_table1([row])
        assert "tak" in text
        assert "Speed-Up" in text
        assert "average" in text
        assert "paper" in text

    def test_format_table1_without_paper(self):
        row = measure_benchmark(get_benchmark("tak"), repeats=1, baseline="meta")
        assert "paper" not in format_table1([row], show_paper=False)

    def test_table2_projection(self):
        row = measure_benchmark(get_benchmark("tak"), repeats=1, baseline="meta")
        projected = project_table2([row])
        assert len(projected) == 1
        ratios = projected[0].ratios
        # The SS2 column (index 9.0) must be 9x the 3/60 column (index 1).
        assert ratios[-1] == pytest.approx(ratios[0] * 9.0)
        text = format_table2(projected)
        assert "tak" in text and "SS2" in text

    def test_unknown_baseline(self):
        with pytest.raises(ValueError):
            measure_benchmark(get_benchmark("tak"), repeats=1, baseline="x")


class TestStressHarness:
    def test_tight_budget_contract_holds(self, capsys):
        import io

        from repro.bench.stress import run_stress

        out = io.StringIO()
        status = run_stress(max_steps=300, expect_degraded=True, out=out)
        text = out.getvalue()
        assert status == 0
        assert "0 contract violation(s)" in text
        assert "degraded" in text

    def test_generous_budget_all_exact(self):
        import io

        from repro.bench.stress import run_stress

        out = io.StringIO()
        assert run_stress(max_steps=None, out=out) == 0
        assert ", 0 degraded," in out.getvalue()

    def test_expect_degraded_fails_when_nothing_trips(self):
        import io

        from repro.bench.stress import run_stress

        out = io.StringIO()
        assert run_stress(max_steps=None, expect_degraded=True, out=out) == 1
        assert "no benchmark degraded" in out.getvalue()

    def test_main_argv(self):
        import contextlib
        import io

        from repro.bench.stress import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["--max-steps", "300", "--expect-degraded"])
        assert status == 0


class TestServeBenchEmit:
    """The machine-readable cold/warm/incremental emitter."""

    def test_emit_one_benchmark(self, tmp_path, capsys):
        from repro.bench.emit import main

        out = tmp_path / "BENCH_serve.json"
        # Every artifact the emitter writes must be redirected to
        # tmp_path: the defaults write BENCH_obs.json / BENCH_opt.json
        # into the cwd, clobbering the checked-in full-suite artifacts
        # with a one-benchmark run.
        obs_out = tmp_path / "BENCH_obs.json"
        opt_out = tmp_path / "BENCH_opt.json"
        assert main([
            "--out", str(out), "--obs-out", str(obs_out),
            "--opt-out", str(opt_out),
            "--repeats", "1", "--only", "nreverse",
        ]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        [row] = document["benchmarks"]
        assert row["name"] == "nreverse"
        assert row["cache"]["warm"] == "hit"
        assert row["cache"]["incremental"] == "incremental"
        assert row["warm_ms"] <= row["cold_ms"]
        # sorted-keys JSON: re-serializing changes nothing
        assert out.read_text() == json.dumps(
            document, indent=2, sort_keys=True
        ) + "\n"
        obs_document = json.loads(obs_out.read_text())
        [obs_row] = obs_document["benchmarks"]
        assert obs_row["name"] == "nreverse"
        assert obs_row["instructions"] > 0
        overhead = obs_document["overhead"]
        assert overhead["passes"] >= 15
        assert overhead["metrics_off_bound_percent"] == 3.0
        assert overhead["trace_off_bound_percent"] == 1.0
        for key in ("metrics_off_ms", "metrics_on_ms",
                    "metrics_off_again_ms", "metrics_off_delta_percent",
                    "metrics_on_overhead_percent", "trace_off_ms",
                    "trace_off_delta_percent"):
            assert key in overhead
        opt_document = json.loads(opt_out.read_text())
        [opt_row] = opt_document["benchmarks"]
        assert opt_row["name"] == "nreverse"
        assert opt_row["baseline_instructions"] > 0
        # The optimizer must never emit code that retires more
        # instructions than the baseline.
        assert (opt_row["optimized_instructions"]
                <= opt_row["baseline_instructions"])
        assert opt_out.read_text() == json.dumps(
            opt_document, indent=2, sort_keys=True
        ) + "\n"

    def test_edit_changes_entry_predicate_only(self):
        from repro.bench.emit import _edit
        from repro.serve.fingerprint import predicate_fingerprints
        from repro.prolog.program import Program as _Program

        bench = get_benchmark("nreverse")
        edited = _edit(bench.source, bench.entry)
        base = predicate_fingerprints(_Program.from_text(bench.source))
        after = predicate_fingerprints(_Program.from_text(edited))
        changed = {ind for ind in base if base[ind] != after.get(ind)}
        assert len(changed) == 1

