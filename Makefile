# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check vet bench perf perf-record examples clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# The one list of checks, shared with CI (.github/workflows/ci.yml runs
# `make check`, plus only its seeded-fault/soak reruns and perf-report
# steps):
#   - the vet gates below;
#   - the full build and the tier-1 test suite;
#   - one smoke iteration of every bench group, writing the per-group
#     BENCH_*.json CI's structural perf gate reads, then one group again
#     through `--only` to pin the filter itself;
#   - the bench schema golden (group and test names, never values);
#   - an `explain` pass over the scripted breach (the flight recorder
#     must always be able to narrate a denial);
#   - the federated trace / health goldens (byte for byte; `w5 health`
#     must judge the scripted faulty peer degraded, exit 2);
#   - the scripted soak summary golden (the seeded scheduler must be
#     deterministic across processes);
#   - the `w5 stats` golden (the telemetry dump and last trace tree of
#     the seeded workload, byte for byte);
#   - the end-to-end benchmark's self-test (every perfbench workload
#     twice with one seed, in separate processes: the deterministic
#     per-operation counts and status mixes must agree);
#   - grep gates on lib/: no bare failwith/assert false (syscall-
#     and gateway-reachable paths return typed Os_error results), no
#     raising lookups in lib/os and lib/analysis (use the _opt forms),
#     and no process-global table or ref: a top-level
#     `let x = Hashtbl.create ...` / `let x = ref ...`, on one line or
#     with the right-hand side on the next (per-platform state goes in
#     a Kernel.Local slot, which is freed with its kernel); the only
#     two allowed, by exact match, are the tag and principal id
#     counters in lib/difc, which keep ids unique across platforms;
#   - no Kernel.reap, Kernel.sync_cache_metrics or Memo caller in lib,
#     bin, examples or test (an ended process leaves the kernel by
#     itself and the label algebra keeps no cache; the no-op stubs
#     stay only for the end-to-end benchmark);
#   - no Tag.make caller outside lib/os/fs.ml (the filesystem image
#     reader is the only place a tag is rebuilt from its parts).
check: vet
	dune build @all && dune runtest
	dune exec bench/main.exe -- --smoke --json-dir _bench_fresh
	dune exec bench/main.exe -- --only provenance --smoke
	dune exec bin/w5.exe -- perf schema | diff -u test/golden/bench_schema.txt -
	dune exec bin/w5.exe -- explain > /dev/null
	dune exec bin/w5.exe -- trace --federated | diff -u test/golden/trace_federated.txt -
	dune exec bin/w5.exe -- health | diff -u test/golden/health.txt -
	dune exec bin/w5.exe -- health > /dev/null; test $$? -eq 2
	dune exec bin/w5.exe -- soak | diff -u test/golden/soak.txt -
	dune exec bin/w5.exe -- stats | diff -u test/golden/stats.txt -
	python3 perfbench/run.py --self-test
	! grep -rnE "failwith|assert false" lib --include="*.ml" --include="*.mli"
	! grep -rnE "Hashtbl\.find[^_]|List\.find[ )(]|List\.hd|List\.tl" lib/os lib/analysis --include="*.ml"
	! grep -rnE "^let [a-z_][A-Za-z0-9_']*( *:[^=]*)? *= *(Hashtbl\.create|ref)\b" lib --include="*.ml" | grep -vxE "lib/difc/(tag|principal)\.ml:[0-9]+:let counter = ref 0"
	! grep -rnE -A1 "^let [a-z_][A-Za-z0-9_']*( *:[^=]*)? *=$$" lib --include="*.ml" | grep -E "^[^ ]+-[0-9]+- +(Hashtbl\.create|ref)\b"
	! grep -rnE "Kernel\.(reap|sync_cache_metrics)|Memo\." lib bin examples test
	! grep -rn "Tag\.make" lib bin examples test | grep -v "^lib/os/fs.ml:"

# Static label-flow analysis of the example platform, with the runtime
# soundness pass; the JSON form must match the committed golden report
# byte for byte (regenerate it with the redirect below after a
# *reviewed* change to the showcase or the analyzer).
#   dune exec bin/w5.exe -- vet --format json > test/golden/vet.json
# The preemption-aware arm rides along: the clean showcase model must
# stay byte-identical (and exit 0), and the seeded TOCTOU fixture must
# be detected as a stale flow check, exit code exactly 3.
vet:
	dune build bin/w5.exe
	dune exec bin/w5.exe -- vet --runtime 300
	dune exec bin/w5.exe -- vet --format json | diff -u test/golden/vet.json -
	dune exec bin/w5.exe -- vet --concurrency | diff -u test/golden/vet_concurrency.txt -
	dune exec bin/w5.exe -- vet --toctou > /dev/null; test $$? -eq 3

bench:
	dune exec bench/main.exe

# Tracking performance over time (README §"Tracking performance over
# time"): a full measured bench run, emitted as BENCH_<group>.json and
# diffed against the committed baselines at the repo root under
# per-group relative thresholds. Exit 1 on regression. CI runs only
# the structural (--schema-only) gate — smoke timings are noise — so
# this value gate is the local, pre-commit check.
perf:
	dune exec bench/main.exe -- --json-dir _bench_fresh
	dune exec bin/w5.exe -- perf diff --fresh _bench_fresh

# Re-record the committed baselines after a *reviewed* perf change
# (and regenerate the schema golden CI byte-diffs):
perf-record:
	dune exec bench/main.exe -- --json-dir _bench_fresh
	dune exec bin/w5.exe -- perf record --fresh _bench_fresh
	dune exec bin/w5.exe -- perf schema > test/golden/bench_schema.txt

examples:
	@for e in quickstart social_network photo_mashup federation_sync \
	          recommendation code_search provider_ops collaboration \
	          difc_tutorial embedding; do \
	  echo "== examples/$$e =="; \
	  dune exec examples/$$e.exe || exit 1; \
	done

clean:
	dune clean
