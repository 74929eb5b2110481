# Convenience targets for the repro package.

PY ?= python

.PHONY: test bench bench-pytest bench-smoke examples props lint-programs all coverage

test:
	$(PY) -m pytest tests/ -q

props:
	$(PY) -m pytest tests/test_properties.py tests/test_csi_exact.py \
		tests/test_lazy.py::TestGeneratedPrograms \
		tests/test_lazy.py::TestResolution::test_generated_programs -q

# Backend benchmark (all three executors on one shard, plus kernels and
# native at 4 shards, over the workload library + the 16K-PE scaling
# check); writes BENCH_9.json and fails if the fused kernels are under
# 2.5x faster than the interpretive oracle, if the native C kernels
# are slower than the NumPy kernels (when a toolchain is available),
# if kernels / native at 4 shards miss their speedup gates (>= 4-CPU
# hosts; skip_reason recorded otherwise), if simulated cycles regressed
# against the latest prior BENCH_*.json, if warm lazy execution is
# over 1.10x eager, or if the frontier verifier or the absint
# fixpoint misses its wall-time gate. The serial native rows run the
# whole automaton in one C call (msc_run); the native rows at 4 shards
# step in Python and call one C function per node, with arguments
# bound once per shard.
bench:
	$(PY) tools/bench.py --bench-id BENCH_9 --shards 4

bench-pytest:
	$(PY) -m pytest benchmarks/ --benchmark-only -q -s

# The three fastest benchmark files (marked smoke), under a hard time
# budget — the CI sanity check that the benches still run.
bench-smoke:
	timeout 300 $(PY) -m pytest benchmarks/ -m smoke -q

# Every shipped MIMDC program (workloads + example sources) must be
# free of warning-severity findings; CI runs this in the lint job.
lint-programs:
	$(PY) tools/lint_programs.py --Werror

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PY) $$f > /dev/null || exit 1; done; echo "all examples ran"

all: test bench examples
