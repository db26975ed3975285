#!/bin/sh
# CI entry point: build everything, run the test suites with backtraces on,
# then the chaos (fault-injection) suite.  The dev profile makes warnings
# fatal, so a clean run here is also a clean -w @a-ish build.
set -eux

cd "$(dirname "$0")/.."

# One implementation of each job in lib/: an equivalence oracle (a
# `*_reference` value) belongs under test/, next to the tests that use it.
if grep -rnE '^[[:space:]]*(let|and|val)(\[@[^]]*\])?[[:space:]]+(rec[[:space:]]+)?[A-Za-z0-9_'"'"']*_reference\b' lib; then
  echo "lib/ defines a *_reference value; move the oracle to test/" >&2
  exit 1
fi

# lib/ keeps only what something calls: each `val` in lib/*/*.mli must occur
# as a word in an OCaml source outside its own .ml/.mli (tests count, since
# oracles and seams are exported for them; a value only its own module uses
# stays out of the .mli).  The cost-model fault injector is test code.
dead_exports=$(
  { grep -HE '^[[:space:]]*val[[:space:]]' lib/*/*.mli \
      | sed -E 's/^([^:]*)\.mli:[[:space:]]*val[[:space:]]+([A-Za-z_][A-Za-z0-9_]*).*/\1 \2/'
    echo --
    grep -rowE '[A-Za-z_][A-Za-z0-9_]*' --include='*.ml' --include='*.mli' \
      lib bin bench perfbench examples tools test
  } | awk '
    !sep { if ($0 == "--") { sep = 1; next }
           n++; own[n] = $1; name[n] = $2; want[$2] = 1; next }
    { i = index($0, ":"); t = substr($0, i + 1)
      if (!(t in want)) next
      b = substr($0, 1, i - 1); sub(/\.mli?$/, "", b)
      if (index(seen[t], "|" b "|") == 0) seen[t] = seen[t] "|" b "|" }
    END {
      for (k = 1; k <= n; k++) {
        s = seen[name[k]]; p = index(s, "|" own[k] "|")
        if (p) s = substr(s, 1, p - 1) substr(s, p + length(own[k]) + 2)
        if (s == "") print own[k] ".mli: val " name[k]
      }
    }'
)
if [ -n "$dead_exports" ]; then
  echo "$dead_exports" >&2
  echo "lib/ exports values nothing outside their module uses" >&2
  exit 1
fi
if ls lib/*/chaos.ml lib/*/chaos.mli 2>/dev/null | grep -q . \
  || grep -rnE '^[[:space:]]*module[[:space:]]+Chaos\b' lib; then
  echo "lib/ defines a Chaos module; fault injection lives under test/" >&2
  exit 1
fi

# One codec for sealed files: float bit patterns are spelled and parsed only
# in lib/obs/sealed.ml, which the checkpoint and the calibration share.
if grep -rnE '%Lx|Int64\.float_of_bits' lib | grep -vE '^lib/obs/sealed\.mli?:'; then
  echo "lib/ encodes float bits outside Ljqo_obs.Sealed; use the codec" >&2
  exit 1
fi

# Domains are spawned in two places: the worker pool (lib/stats/parallel.ml)
# that every batch goes through, and the server's request workers.  A spawn
# per call costs a few hundred microseconds and a parked worker taxes every
# minor collection, so other code hands its batch to Parallel.
if grep -rn 'Domain\.spawn' lib \
  | grep -vE '^lib/(stats/parallel|service/server)\.ml:'; then
  echo "lib/ spawns a domain outside Parallel and Server; use Parallel" >&2
  exit 1
fi

dune build @all
OCAMLRUNPARAM=b dune runtest
dune build @chaos

# Micro-bench smoke: one tiny-quota pass must complete and emit the JSON
# (written next to, not over, the committed full-quota results).
smoke_json=results/BENCH_micro.smoke.json
rm -f "$smoke_json"
dune exec bench/main.exe -- micro --micro-quota 0.05 --micro-out "$smoke_json"
test -s "$smoke_json"
rm -f "$smoke_json"

# Perf gate: a fresh micro run must stay within tolerance of the committed
# baseline.  Two runs, each kernel judged on its faster time: OS jitter on
# a loaded single-core machine only ever inflates a timing, so the min of
# two runs filters spikes while a real regression still shows in both.
# The gate's own default band is +-25%; CI widens it to 2x because even
# the best-of-two smoke run right after the test suites stays noisy — the
# gate is here to catch gross regressions (accidental quadratic loops,
# instrumentation left enabled on the hot path), not single-digit drift.
fresh_a=results/BENCH_micro.fresh-a.json
fresh_b=results/BENCH_micro.fresh-b.json
rm -f "$fresh_a" "$fresh_b"
dune build bench tools
sleep 3
dune exec bench/main.exe -- micro --micro-quota 0.5 --micro-out "$fresh_a"
dune exec bench/main.exe -- micro --micro-quota 0.5 --micro-out "$fresh_b"
LJQO_PERF_TOLERANCE="${LJQO_PERF_TOLERANCE:-1.0}" dune exec tools/perf_gate.exe -- \
  --baseline results/BENCH_micro.json --fresh "$fresh_a" --fresh "$fresh_b"
rm -f "$fresh_a" "$fresh_b"

# End-to-end benchmark smoke: every workload of BENCHMARK.json runs once for
# one second.  The benchmark checks its own outputs (plan validity, cost
# recomputation, equality with a serialized serve_direct replay, the
# nested-loop oracle) and exits nonzero when any check fails.  Cells left by
# an earlier build are removed first, so this run records its own.
rm -f .bench_out/cells-*-7.txt
for workload in opt-narrow opt-wide serve-zipf feedback-exec; do
  python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 1 \
    --trace 0
done

# Cross-run determinism: a second, traced run of each workload on the same
# seed must reproduce the cells the first run recorded (ticks, probe
# comparisons, q-error, output digest); a differing cell fails the run.
for workload in opt-narrow opt-wide serve-zipf feedback-exec; do
  python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 1 \
    --trace 1
done

# Wide-graph smoke: a 200-relation query — far past the old 126-id bitset
# cap — must optimize end to end through the portfolio racer.
wide_tmp=$(mktemp -d)
dune exec bin/ljqo.exe -- generate --n-joins 200 --seed 11 -o "$wide_tmp/q.qdl"
dune exec bin/ljqo.exe -- optimize "$wide_tmp/q.qdl" --method portfolio \
  --t-factor 1 | tee "$wide_tmp/opt.out"
grep -q 'cost' "$wide_tmp/opt.out"
rm -rf "$wide_tmp"

# Plan-cache smoke: serving a workload twice through the service must turn
# the whole second pass into exact hits at zero optimization ticks.
cache_tmp=$(mktemp -d)
dune exec bin/ljqo.exe -- workload -o "$cache_tmp/wl" --per-n 2
dune exec bin/ljqo.exe -- serve-file "$cache_tmp/wl" --passes 2 --t-factor 1 \
  | tee "$cache_tmp/serve.out"
grep -q 'pass 2: 10 exact-hit, 0 warm-start, 0 cold, 0 deduped; 0 ticks' \
  "$cache_tmp/serve.out"
rm -rf "$cache_tmp"

# Portfolio smoke: serving a query with the racing method must work end to
# end under multiple domains — deterministic output is covered by the test
# suite; here we check the flag plumbing and that metrics stay
# validator-clean.
portfolio_tmp=$(mktemp -d)
dune exec bin/ljqo.exe -- workload -o "$portfolio_tmp/wl" --per-n 1
LJQO_JOBS=4 dune exec bin/ljqo.exe -- serve "$portfolio_tmp/wl" \
  --method portfolio --portfolio-width 4 --workers 1 --t-factor 1 \
  --metrics "$portfolio_tmp/metrics.json" | tee "$portfolio_tmp/serve.out"
dune exec tools/perf_gate.exe -- --check-json "$portfolio_tmp/metrics.json"
grep -q '"portfolio.rounds"' "$portfolio_tmp/metrics.json"
rm -rf "$portfolio_tmp"

# Method-list smoke: --methods reaches each experiment as an argument, so
# table3 runs and labels the given list (this used to die with an index out
# of bounds): it exits 0, and both header rows name II, then IAI.
methods_tmp=$(mktemp -d)
dune exec bench/main.exe -- table3 --methods II,IAI --per-n 1 --replicates 1 \
  > "$methods_tmp/table3.out"
cat "$methods_tmp/table3.out"
test "$(grep -cE '^ +II +IAI$' "$methods_tmp/table3.out")" -eq 2
rm -rf "$methods_tmp"

# Trace smoke: an instrumented optimize run must emit well-formed JSONL
# trace events and a well-formed metrics snapshot.
trace_tmp=$(mktemp -d)
dune exec bin/ljqo.exe -- generate --n-joins 15 --seed 7 -o "$trace_tmp/q.qdl"
dune exec bin/ljqo.exe -- optimize "$trace_tmp/q.qdl" --method IAI \
  --metrics "$trace_tmp/metrics.json" --trace "$trace_tmp/trace.jsonl"
dune exec tools/perf_gate.exe -- --check-jsonl "$trace_tmp/trace.jsonl"
dune exec tools/perf_gate.exe -- --check-json "$trace_tmp/metrics.json"
rm -rf "$trace_tmp"

# Span smoke: a span-enabled serve-file run must produce validator-clean
# metrics and a trace whose Chrome and flamegraph exports are
# validator-clean, and a trajectory run must render an SVG.
span_tmp=$(mktemp -d)
dune exec bin/ljqo.exe -- workload -o "$span_tmp/wl" --per-n 1
dune exec bin/ljqo.exe -- serve-file "$span_tmp/wl" --t-factor 1 \
  --metrics "$span_tmp/metrics.json" --trace "$span_tmp/trace.jsonl"
dune exec tools/perf_gate.exe -- --check-json "$span_tmp/metrics.json"
dune exec tools/perf_gate.exe -- --check-jsonl "$span_tmp/trace.jsonl"
grep -q '"ev":"span"' "$span_tmp/trace.jsonl"
dune exec bin/ljqo.exe -- obs summary "$span_tmp/trace.jsonl"
dune exec bin/ljqo.exe -- obs export-chrome "$span_tmp/trace.jsonl" \
  -o "$span_tmp/trace.chrome.json"
dune exec tools/perf_gate.exe -- --check-json "$span_tmp/trace.chrome.json"
dune exec bin/ljqo.exe -- obs export-flame "$span_tmp/trace.jsonl" \
  -o "$span_tmp/trace.folded"
test -s "$span_tmp/trace.folded"
dune exec bin/ljqo.exe -- generate --n-joins 12 --seed 9 -o "$span_tmp/q.qdl"
dune exec bin/ljqo.exe -- obs trajectory "$span_tmp/q.qdl" --t-factor 2 \
  -o "$span_tmp/traj.svg"
grep -q '<svg' "$span_tmp/traj.svg"
rm -rf "$span_tmp"

# Server smoke: SIGTERM mid-run must trigger the graceful drain — every
# accepted request answered, metrics flushed, exit 0.  The binary runs
# directly (not under dune exec) so the signal reaches the server process
# itself rather than the build wrapper.
server_tmp=$(mktemp -d)
dune exec bin/ljqo.exe -- workload -o "$server_tmp/wl" --per-n 2
_build/default/bin/ljqo.exe serve "$server_tmp/wl" --passes 500 \
  --workers 1 --queue-capacity 2 --t-factor 1 --cache-capacity 1 \
  --metrics "$server_tmp/metrics.json" >"$server_tmp/serve.out" 2>&1 &
server_pid=$!
sleep 2
kill -TERM "$server_pid"
wait "$server_pid"
grep -q 'signal received: draining' "$server_tmp/serve.out"
dune exec tools/perf_gate.exe -- --check-json "$server_tmp/metrics.json"
grep -q '"service.shed"' "$server_tmp/metrics.json"
grep -q '"service.drained"' "$server_tmp/metrics.json"

# Open-loop load smoke: a short sweep must report per-rate goodput and
# render the goodput-vs-offered-load chart.
_build/default/bin/ljqo.exe loadgen "$server_tmp/wl" --sweep 20,200 \
  --requests 20 --workers 2 --queue-capacity 4 --t-factor 1 \
  --svg "$server_tmp/goodput.svg" | tee "$server_tmp/loadgen.out"
grep -q 'rate 20/s:' "$server_tmp/loadgen.out"
grep -q 'rate 200/s:' "$server_tmp/loadgen.out"
grep -q '<svg' "$server_tmp/goodput.svg"
rm -rf "$server_tmp"

# Execution-feedback smoke: execute a tiny grid, report per-depth q-error
# with validator-clean SVG/metrics/trace artifacts, fit a calibration and
# load it back into a calibrated report.
fb_tmp=$(mktemp -d)
dune exec bin/ljqo.exe -- feedback report --ns 4 --per-n 1 --t-factor 1 \
  --seed 3 --svg "$fb_tmp/qerror.svg" --metrics "$fb_tmp/metrics.json" \
  --trace "$fb_tmp/trace.jsonl" | tee "$fb_tmp/report.out"
grep -q 'overall: mean q-error' "$fb_tmp/report.out"
grep -q 'depth 1' "$fb_tmp/report.out"
grep -q '<svg' "$fb_tmp/qerror.svg"
dune exec tools/perf_gate.exe -- --check-json "$fb_tmp/metrics.json"
dune exec tools/perf_gate.exe -- --check-jsonl "$fb_tmp/trace.jsonl"
grep -q '"feedback.plans_executed"' "$fb_tmp/metrics.json"
grep -q '"feedback.qerror.d1"' "$fb_tmp/metrics.json"
grep -q '"exec.probe_comparisons"' "$fb_tmp/metrics.json"
dune exec bin/ljqo.exe -- feedback calibrate --ns 4 --per-n 1 --t-factor 1 \
  --seed 3 -o "$fb_tmp/cal.txt" | tee "$fb_tmp/cal.out"
grep -q 'wrote' "$fb_tmp/cal.out"
dune exec bin/ljqo.exe -- feedback report --ns 4 --per-n 1 --t-factor 1 \
  --seed 3 --calibration "$fb_tmp/cal.txt" | tee "$fb_tmp/cal-report.out"
grep -q 'calibration:' "$fb_tmp/cal-report.out"
rm -rf "$fb_tmp"

# Trajectory-dump smoke: the bench harness must leave a non-empty JSONL
# trajectory table behind --trajectories (fig4 records incumbent
# improvements; its lines are label/points records, so validate the first
# line as plain JSON rather than trace JSONL).
traj_tmp=$(mktemp -d)
dune exec bench/main.exe -- fig4 --per-n 1 --replicates 1 \
  --trajectories "$traj_tmp/td" >/dev/null
test -s "$traj_tmp/td/trajectories.jsonl"
head -1 "$traj_tmp/td/trajectories.jsonl" > "$traj_tmp/one.json"
dune exec tools/perf_gate.exe -- --check-json "$traj_tmp/one.json"
rm -rf "$traj_tmp"
