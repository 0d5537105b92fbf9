# Developer entry points (the tier-1 command from ROADMAP.md lives here too).
#
#   make verify       - tier-1 test suite
#   make lint         - ruff check (config in pyproject.toml; skipped when absent)
#   make sweep-smoke  - 12-run sweep campaign through the engine (--jobs 2: a
#                       two-worker process pool takes the runs in chunks)
#                       into a fresh store, then
#                       `repro store verify` on it (exit 1 on a torn or
#                       duplicate line), then the same campaign again, which
#                       must resume all 12 runs from the store (executed 0,
#                       cached 12)
#   make bench        - full paper figure/table benchmark suite
#   make bench-collect
#                     - import and collect every bench file without running
#                       it (~2 s): a bench that names a deleted function
#                       fails here, not only under `make bench`
#   make ledger       - layered performance ledger (benchmarks/ledger/README.md):
#                       five workloads, end-to-end + per-layer metrics, written
#                       to LEDGER.json; non-zero exit on any incorrect workload
#   make ledger-pairs BASE=<rev> WORKLOAD=<name> [N=10]
#                     - alternating paired ledger runs of one workload, BASE
#                       against the working tree: quartiles per side,
#                       wins/pairs and one verdict per metric against its
#                       BENCHMARK.json bound (scripts/ledger_pairs.py)
#   make identity BASE=<rev>
#                     - is the working tree observably identical to BASE?
#                       counter rows, peaks, round counts, span totals and products
#                       of every algorithm over grid240, the paper-scale volume
#                       points, every algorithm at p = 16384 / 65536 and a
#                       list of awkward ones, in plane and volume mode
#                       (~1 min per side); exit 1 on any difference; the
#                       large volume points also print each side's wall
#                       time, the best of 10 warm calls after the observed
#                       runs (scripts/identity_pairs.py)
#   make plan-time    - best-of-10 cold fit_ranks and COSMA plan() times at
#                       8192^3 / p = 4096, 16384^3 / 18432 and 32768^3 / 65536
#                       (S = 101,000), and the cold COSMA plan pass over
#                       grid240 (scripts/plan_time.py; asserts no timing)

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify lint sweep-smoke bench bench-collect ledger ledger-pairs identity plan-time

verify:
	$(PY) -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples scripts; \
	else \
		echo "ruff not installed - skipping lint (pip install ruff)"; \
	fi

SMOKE_SWEEP = $(PY) -m repro sweep --families square --regimes limited --processors 4 9 16 25 \
	--algorithms COSMA CARMA ScaLAPACK --mode volume --jobs 2 --out .sweep-cache/smoke

sweep-smoke:
	rm -rf .sweep-cache/smoke .sweep-cache/smoke-resume.json
	$(SMOKE_SWEEP)
	$(PY) -m repro store verify --store .sweep-cache/smoke
	$(SMOKE_SWEEP) --json --no-progress > .sweep-cache/smoke-resume.json
	$(PY) -c 'import json, sys; d = json.load(open(sys.argv[1])); \
		print("resume: executed=%(executed)d cached=%(cached)d" % d); \
		sys.exit((d["executed"], d["cached"]) != (0, 12))' .sweep-cache/smoke-resume.json

bench:
	$(PY) -m pytest benchmarks/bench_*.py -s

# -p no:benchmark: collection needs no pytest-benchmark, which CI does not install.
bench-collect:
	$(PY) -m pytest benchmarks/bench_*.py --collect-only -q -p no:benchmark

ledger:
	$(PY) benchmarks/ledger/run.py --out LEDGER.json

N ?= 10
ledger-pairs:
	$(PY) scripts/ledger_pairs.py --base $(BASE) --workload $(WORKLOAD) -n $(N)

identity:
	$(PY) scripts/identity_pairs.py --base $(BASE)

plan-time:
	$(PY) scripts/plan_time.py
