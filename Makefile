# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test bench bench-serve chaos fuzz opt table1 table2 examples coverage lint serve clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench: bench-serve
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-serve:
	$(PYTHON) -m repro.bench.emit --out BENCH_serve.json

chaos:
	$(PYTHON) -m repro.bench.chaos --out BENCH_chaos.json

fuzz:
	$(PYTHON) -m repro.fuzz --seed 42 --count 200 --out BENCH_fuzz.json

opt:
	$(PYTHON) -m repro.bench.opt --out BENCH_opt.json --repeats 5

table1:
	$(PYTHON) -m repro.bench.table1

table2:
	$(PYTHON) -m repro.bench.table2

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/paper_example.py
	$(PYTHON) examples/parallelize.py
	$(PYTHON) examples/optimize_with_analysis.py
	$(PYTHON) examples/compare_analyzers.py
	$(PYTHON) examples/analyze_benchmarks.py tak nreverse

lint:
	$(PYTHON) -m repro.lint examples/nrev.pl "nrev(glist, var)"
	$(PYTHON) -m repro.lint examples/lint_demo.pl "main" "wrapper(g)"

serve:
	$(PYTHON) -m repro.serve --batch examples/nrev.pl --entry "nrev(glist, var)"

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks
