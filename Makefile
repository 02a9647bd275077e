# Developer entry points.  Everything assumes only numpy + pytest are
# installed; `make lint` additionally runs ruff when it is available
# (CI installs it; the rule degrades gracefully without it).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint docs verify-programs bench-pairs all

all: lint test docs

test:
	$(PYTHON) -m pytest -x -q

# Static analysis: the source-tree lint suite (purity + units +
# determinism, honoring tools/static_analysis_baseline.json; always),
# the ISA program-verifier smoke over the service decode geometry
# (always), and ruff's pyflakes-error rules (when installed).
lint:
	$(PYTHON) -m repro lint
	$(PYTHON) -m repro lint-program OPT-13B --batch-tokens 1
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools benchmarks examples; \
	else \
		echo "ruff not installed; skipped ruff check"; \
	fi

docs:
	$(PYTHON) tools/check_docs.py

# Deeper program verification than the lint smoke: every geometry the
# test sweep exercises, plus two serve-sim geometries (its batch-8
# decode step and a 256-token prefill, the prefill also as int8).
verify-programs:
	$(PYTHON) -m repro lint-program OPT-13B --batch-tokens 1
	$(PYTHON) -m repro lint-program OPT-13B --batch-tokens 64 --ctx-prev 0
	$(PYTHON) -m repro lint-program tiny --batched 4 --errors-only
	$(PYTHON) -m repro lint-program OPT-1.3B --batched 1
	$(PYTHON) -m repro lint-program OPT-1.3B --batched 8 --errors-only
	$(PYTHON) -m repro lint-program OPT-1.3B --batch-tokens 256 --ctx-prev 0
	$(PYTHON) -m repro lint-program OPT-1.3B --batch-tokens 256 --ctx-prev 0 --dtype int8

# Ten alternating benchmark pairs of HEAD and the working tree over all
# five workloads (WORKLOAD=serve-steady runs that one only), held
# against each other by benchmarks/e2e/compare.py;
# CLAIM="serve-steady:wall_s ..." passes each claim on.
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --parent HEAD --pairs 10 \
		$(if $(WORKLOAD),--workload $(WORKLOAD)) \
		$(foreach claim,$(CLAIM),--claim $(claim))
