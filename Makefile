# Convenience targets for the reproduction repository.

.PHONY: install test lint analyze analyze-fast bench bench-gates bench-gates-check examples figures clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

# Style lint (ruff). A missing ruff is an error, not a silent skip —
# set REPRO_LINT_OPTIONAL=1 to opt out (e.g. minimal local setups).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif [ -n "$$REPRO_LINT_OPTIONAL" ]; then \
		echo "ruff not installed; skipping lint (REPRO_LINT_OPTIONAL set)"; \
	else \
		echo "error: ruff is not installed. Run 'pip install -e .[dev]'" \
		     "or set REPRO_LINT_OPTIONAL=1 to skip." >&2; \
		exit 1; \
	fi

# Domain lint + static analysis (repro-lint): node rules plus the flow/
# interprocedural set. Incremental via .repro-lint-cache/ — a warm run
# over an unchanged tree re-parses 0 files. No artifact is written into
# the source tree; CI generates the SARIF report explicitly.
analyze:
	PYTHONPATH=src python -m repro.analysis src

# Warm developer loop: refuses a cold cache so it never silently pays
# the full-parse cost ('make analyze' first seeds the cache).
analyze-fast:
	@test -f .repro-lint-cache/files.json || { \
		echo "analyze-fast: cold cache — run 'make analyze' once first" >&2; \
		exit 1; \
	}
	PYTHONPATH=src python -m repro.analysis src

bench:
	pytest benchmarks/ --benchmark-only

# Speed-ratio gates (kernel vs object engine, prepared batch vs cold
# fleet, lazy sweep vs forward-scan / naive scan, warm plan cache vs
# exact search); re-baselines the committed BENCH_gates.json.
bench-gates:
	PYTHONPATH=src python -m repro.bench.gates --out BENCH_gates.json

# Regression gate against the committed reference ratios: fails if any
# cell's arms disagree, a count contract breaks, a ratio falls below its
# floor, or a ratio regressed >15% below its reference.
bench-gates-check:
	PYTHONPATH=src python -m repro.bench.gates --check \
		--baseline BENCH_gates.json --out BENCH_gates_check.json

figures: bench
	@cat benchmarks/results/*.txt

# Runs every example; stops at the first one that fails.
examples:
	@for f in examples/*.py; do echo "=== $$f"; PYTHONPATH=src python $$f || exit 1; done

clean:
	rm -rf benchmarks/results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
