#!/usr/bin/env bash
# CI gate: build, test, format, lint. Run from anywhere inside the repo.
#
# Usage: scripts/ci.sh [--fast]
#   --fast   skip the release build (debug test build only)
#
# Everything runs offline: all external crates resolve to the in-repo
# shims under crates/shims/ (see DESIGN.md §6).

set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n==> %s\n' "$*"; }

if [[ "$FAST" -eq 0 ]]; then
  step "cargo build --release"
  cargo build --workspace --release --offline
fi

step "cargo test -q"
cargo test --workspace -q --offline

step "cargo test --release -p hypertune-surrogate (debug_assert! is compiled out here)"
# The suite above runs the debug profile, where a debug_assert! stands in
# for a check the shipped build does not make. The surrogate's query-width
# validation was exactly that until it became a typed error; its tests
# (tests/predict_rows.rs) and the kernel-vs-reference proptest run again
# the way the product is built.
cargo test --release -q -p hypertune-surrogate --offline

step "cargo test --release -p hypertune-cluster (the workspace's one unsafe block lives here)"
# The TCP substrate waits in poll(2) through crates/cluster/src/poll.rs.
# Its tests, and the loopback driver/worker tests built on it, run again
# the way the product is built.
cargo test --release -q -p hypertune-cluster --offline

step "cargo test --release -p hypertune-service (fill rounds run chains on helper threads)"
# A fill round runs costly studies' suggestion chains on helper threads
# and replays them in the one-thread order. Its pinned dispatch stream,
# the replay proptests and the restart drills run again at release speed,
# where threads interleave as they do in the product.
cargo test --release -q -p hypertune-service --offline

step "dispatch fingerprints (all 22 methods x 2 seeds, plus 5 x 2 under every fault, bit for bit)"
# results/dispatch_probe.txt is what the probe printed before the forest
# kernel was rewritten, plus the fault-path lines recorded before the
# trial ledger moved into StudyRuntime. A change that alters which
# configurations any method proposes, any value it books, or how a
# failed attempt is retried or quarantined changes a line here; a change
# that means to regenerates the file and says why.
cargo run --release -q -p hypertune-bench --offline --bin dispatch_probe \
  | diff results/dispatch_probe.txt -

step "figure fingerprints (every experiment at --budget-div 8: stdout and each JSON series, byte for byte)"
# results/figures_quick.txt holds the sha256 of what `experiments
# --budget-div 8` prints and of every JSON series it writes. A change to
# a method, a benchmark's objective or noise, the simulator or the driver
# that moves any table or figure changes a line here; a change that means
# to regenerates the file with the same command and says why. The driver
# writes results/ under its working directory, so it runs in a temporary
# one, never in the repo.
cargo build --release -q -p hypertune-bench --offline --bin experiments
experiments="$PWD/target/release/experiments"
figures=$(mktemp -d)
(
  cd "$figures"
  export LC_ALL=C
  "$experiments" --budget-div 8 > stdout.txt
  sha256sum stdout.txt results/*.json
) | diff results/figures_quick.txt -
rm -rf "$figures"
# The scale is a value the driver passes in: the bench library reads no
# environment (robustness, a bin, still reads HYPERTUNE_FULL and
# HYPERTUNE_BUDGET_DIV for the smokes below).
if grep -n 'std::env' crates/bench/src/*.rs; then
  exit 1
fi

step "perf smoke (harness unit tests + 1/20-scale pass: result schema, exactly-once reconciliation)"
# The benchmark behind BENCHMARK.json is a package outside the
# workspace, so no other step builds it. The numbers this prints are
# not measurements.
perf/ci-smoke.sh

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# The distributed substrate's public surface must stay documented: the
# wire protocol and the TCP driver/worker API each get a rustdoc page.
test -f target/doc/hypertune_cluster/proto/enum.Frame.html
test -f target/doc/hypertune_cluster/net/struct.TcpCluster.html
test -f target/doc/hypertune_cluster/net/fn.serve_worker.html
test -f target/doc/hypertune_cluster/executor/trait.Executor.html

step "robustness smoke (fault-rate sweep)"
HYPERTUNE_BUDGET_DIV=96 cargo run --release -q -p hypertune-bench \
  --offline --bin robustness

step "chaos smoke (worker churn + speculation, exactly-once accounting)"
# Runs only the elastic churn sweep: worker crashes with lease-based
# orphan recovery, speculative re-execution, and the degradation-ladder
# breaker all enabled. The bin writes the chaos run's telemetry to a
# JSONL trace; trace-report replays it and must reconcile every
# dispatched trial as completed, quarantined, or in flight — with zero
# lost or duplicated trials.
HYPERTUNE_CHAOS_ONLY=1 HYPERTUNE_CHAOS_TRACE=target/chaos-trace.jsonl \
  cargo run --release -q -p hypertune-bench --offline --bin robustness
cargo run --release -q -p hypertune-bench --offline --bin trace-report -- \
  target/chaos-trace.jsonl > target/chaos-trace.out
grep -q "exactly-once reconciliation" target/chaos-trace.out
grep -q "; 0 duplicated" target/chaos-trace.out
grep -q "leases expired" target/chaos-trace.out

step "trace-report smoke (telemetry end-to-end)"
cargo run --release -q -p hypertune-bench --offline --bin trace-report -- \
  --demo target/trace-smoke.jsonl > target/trace-smoke.out
grep -q "bracket-weight trajectory" target/trace-smoke.out

step "dispatch op-count guard (liar re-scoring stays O(pool x k))"
# Two layers: the BatchMaximizer unit test pins rescore_ops == pool x k
# exactly (and that the reference path is strictly worse), and the
# sampler test pins the batch.rescore_ops telemetry counter to linear
# scaling in k. A regression to full per-pick re-scoring fails both.
cargo test -q -p hypertune-surrogate --offline rescore_ops_is_linear_in_k
cargo test -q -p hypertune-core --offline batch_rescore_ops_counter_is_linear_in_k

step "TCP loopback smoke (real workers, kill -9 mid-run, exactly-once, 1 and 4 slots)"
# A real distributed study over localhost: two hypertune-worker
# processes on OS-assigned ports, one SIGKILLed mid-evaluation. The run
# must complete on the survivor, and replaying the JSONL trace must
# reconcile with zero duplicated trials (DESIGN.md §16). The in-tree
# integration tests (crates/hypertune/tests/distributed.rs) cover the
# same path plus sim/ThreadPool bit-equivalence; this step exercises
# the shipped binaries end to end, the way an operator would run them.
# Run once per slot count: one slot is the strict one-round-trip-per-eval
# plane, and four slots pipeline (the driver sizes its in-flight window
# from the advertised slot counts), so the kill -9 drill also covers
# orphaning a *multi-slot* worker's whole pending queue.
cargo build --release -q -p hypertune --offline --bins
WORKER=target/release/hypertune-worker
for SLOTS in 1 4; do
  mkfifo target/worker-a.fifo target/worker-b.fifo 2>/dev/null || true
  "$WORKER" --listen 127.0.0.1:0 --once --slots "$SLOTS" > target/worker-a.fifo &
  WORKER_A_PID=$!
  "$WORKER" --listen 127.0.0.1:0 --once --slots "$SLOTS" > target/worker-b.fifo &
  WORKER_B_PID=$!
  read -r _ _ ADDR_A < target/worker-a.fifo
  read -r _ _ ADDR_B < target/worker-b.fifo
  ( sleep 0.3; kill -9 "$WORKER_A_PID" 2>/dev/null || true ) &
  KILLER_PID=$!
  target/release/hypertune cluster \
    --workers "$ADDR_A,$ADDR_B" --bench counting-ones-small \
    --method hyper-tune --max-evals 30 --seed 7 --lease-secs 2 \
    --eval-sleep-ms 40 \
    --trace "target/loopback-trace-slots$SLOTS.jsonl" \
    > "target/loopback-slots$SLOTS.out"
  wait "$KILLER_PID"
  kill "$WORKER_B_PID" 2>/dev/null || true
  wait "$WORKER_B_PID" 2>/dev/null || true
  rm -f target/worker-a.fifo target/worker-b.fifo
  grep -q "evaluations:  30" "target/loopback-slots$SLOTS.out"
  cargo run --release -q -p hypertune-bench --offline --bin trace-report -- \
    "target/loopback-trace-slots$SLOTS.jsonl" > "target/loopback-report-slots$SLOTS.out"
  grep -q "; 0 duplicated" "target/loopback-report-slots$SLOTS.out"
done

step "partition drill smoke (chaos proxy, mid-run blackhole, redial + exactly-once)"
# The §16.4 drill against the shipped binaries: one worker (serial
# accept loop, no --once) behind the in-process chaos proxy, a
# blackhole window opening mid-run. The driver's lease expires inside
# the window, its redial loop retries past the heal, the worker
# re-admits it under a new session epoch, and the study completes.
# trace-report must show the injected window, at least one reconnect,
# and — the invariant the epoch fence exists for — zero duplicated
# trials.
cat > target/chaos-plan.json <<'EOF'
{"faults": [{"at_ms": 500, "for_ms": 1500, "fault": "Blackhole"}]}
EOF
mkfifo target/worker-c.fifo 2>/dev/null || true
"$WORKER" --listen 127.0.0.1:0 > target/worker-c.fifo &
WORKER_C_PID=$!
read -r _ _ ADDR_C < target/worker-c.fifo
target/release/hypertune cluster \
  --workers "$ADDR_C" --bench counting-ones-small \
  --method hyper-tune --max-evals 30 --seed 7 --lease-secs 0.7 \
  --eval-sleep-ms 40 --redial-attempts 60 --redial-backoff-ms 25 \
  --chaos target/chaos-plan.json --trace target/partition-trace.jsonl \
  > target/partition.out
kill "$WORKER_C_PID" 2>/dev/null || true
wait "$WORKER_C_PID" 2>/dev/null || true
rm -f target/worker-c.fifo
grep -q "evaluations:  30" target/partition.out
cargo run --release -q -p hypertune-bench --offline --bin trace-report -- \
  target/partition-trace.jsonl > target/partition-report.out
grep -q "; 0 duplicated" target/partition-report.out
grep -qE "reconnects: [1-9]" target/partition-report.out
grep -q "blackhole" target/partition-report.out

step "multi-tenant service smoke (8 studies, stop + kill + resume, per-study exactly-once)"
# Eight concurrent studies fair-shared over one in-process pool. One
# tenant is stopped mid-run; then the service exits with trials still
# outstanding (the "kill"). A second service instance recovers every
# study from its per-study WAL and drains the survivors. The combined
# two-lifetime trace must reconcile to zero duplicated trials for every
# tenant (DESIGN.md §17).
rm -rf target/service-state
{
  for i in 1 2 3 4 5 6 7 8; do
    printf '{"cmd":"create","name":"tenant-%d","bench":"counting-ones-small","method":"hyper-tune","seed":%d,"max_evals":12,"max_in_flight":2}\n' "$i" "$i"
  done
  printf '{"cmd":"run","completions":20}\n'
  printf '{"cmd":"stop","study":3}\n'
  printf '{"cmd":"run","completions":20}\n'
} > target/service-studies.jsonl
target/release/hypertune serve --pool 4 --state-dir target/service-state \
  --script target/service-studies.jsonl --trace target/service-trace-1.jsonl \
  > target/service-1.out
grep -q "stopped study 3" target/service-1.out
# Recovery opens each WAL in place and appends after it, so every WAL
# the first lifetime left must be a byte prefix of the same WAL after
# the second (DESIGN.md §17.3).
rm -rf target/service-state-killed
mkdir -p target/service-state-killed
cp target/service-state/*.wal target/service-state-killed/
target/release/hypertune serve --pool 4 --state-dir target/service-state \
  --resume --trace target/service-trace-2.jsonl > target/service-2.out
for killed in target/service-state-killed/*.wal; do
  cmp -n "$(stat -c %s "$killed")" "$killed" "target/service-state/${killed##*/}"
done
grep -q "recovered study 1" target/service-2.out
grep -qE '^study 3 \(tenant-3\): status=Stopped' target/service-2.out
# all 7 surviving tenants finish their full budget after the restart
[[ "$(grep -cE '^study [0-9]+ \(.*\): status=Completed .* completed=12' \
  target/service-2.out)" -eq 7 ]]
cat target/service-trace-1.jsonl target/service-trace-2.jsonl \
  > target/service-trace.jsonl
cargo run --release -q -p hypertune-bench --offline --bin trace-report -- \
  --per-study target/service-trace.jsonl > target/service-report.out
grep -q -- "-- study 8 --" target/service-report.out
# every tenant section must report exactly zero duplicated trials
[[ "$(grep -c "^duplicated trials: 0$" target/service-report.out)" -ge 8 ]]
! grep -E "^duplicated trials: [1-9]" target/service-report.out

step "dead references (deleted benches and figure bins, shared stores, the suggester thread, the stopping rules and the GP stay deleted)"
# ROADMAP.md and CHANGES.md are history, results/ holds the feature
# ledger that records the deletions, and perf/ is the benchmark's own
# tree, so none of them is searched; DESIGN.md keeps the one paragraph
# that records why the suggester thread was removed.
# (The quote pairs keep this file from matching its own patterns.)
dead='BENCH_[a-z]*\.json|net-''bench|service-''bench|cargo ''bench'
dead+='|Shared''History|Sharded''Pending|History''View'
dead+='|Median''Stop|Lce''Stop|median''_stop|lce''_stop'
dead+='|Gaussian''Process|Mat''ern|Chol''esky|Standard''izer'
dead+='|--bin ''(fig[4-9]_|table[1-3]|ablations_)'
# (`if`, not `! grep`: errexit ignores a negated command.)
if grep -rnE "$dead" README.md DESIGN.md EXPERIMENTS.md scripts/ crates/ examples/ ||
  grep -rni 'pre''fetch' README.md scripts/ crates/ examples/; then
  exit 1
fi

step "one trial ledger (trial events are built only in core's tenant.rs)"
# Every driver (the simulator, the threaded/TCP driver, the service)
# suggests and books through StudyRuntime, so the trial lifecycle
# events are constructed in one production module. Test modules may
# build events of their own.
# (The quote pairs keep this file from matching its own patterns.)
trial_events='Event::(Trial''(Dispatched|Completed|Retried|Quarantined)|Lease''Expired)\b'
ledger_sites=$(
  for f in $(grep -rlE "$trial_events" crates/core/src crates/service/src); do
    sed '/^#\[cfg(test)\]/q' "$f" | grep -nE "$trial_events" | sed "s|^|$f:|"
  done | grep -v '^crates/core/src/tenant\.rs:' || true
)
if [[ -n "$ledger_sites" ]]; then
  printf 'trial events built outside the ledger:\n%s\n' "$ledger_sites"
  exit 1
fi
# The per-driver copies of the retry ladder stay deleted.
if grep -rnwE 'Tal''ly|handle''_failure|Study''Counters' crates/; then
  exit 1
fi

step "one TCP shell (one unsafe block; net.rs spawns heartbeat and redialer threads only)"
# The only unsafe code is the poll(2) call in crates/cluster/src/poll.rs,
# with its `// SAFETY:` invariant on the line right above it. Comment
# lines that merely mention the word do not count. The one exception is
# test code: crates/hypertune/tests/write_bin.rs hooks the global
# allocator to count allocations, which takes an `unsafe impl
# GlobalAlloc` and its two `unsafe fn`s, and nothing else.
alloc_test=crates/hypertune/tests/write_bin.rs
alloc_sites=$(grep -nE '\bunsafe\b' "$alloc_test" | grep -vE '^[0-9]+:[[:space:]]*//' || true)
[[ "$(grep -c . <<< "$alloc_sites")" -eq 3 ]]
[[ "$(grep -cE 'unsafe impl GlobalAlloc for |unsafe fn (alloc|dealloc)\(' <<< "$alloc_sites")" -eq 3 ]]
unsafe_sites=$(grep -rnE '\bunsafe\b' --include='*.rs' crates/ |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | grep -v "^$alloc_test:" || true)
if [[ "$(grep -c . <<< "$unsafe_sites")" -ne 1 ||
  "$unsafe_sites" != crates/cluster/src/poll.rs:* ]]; then
  printf 'unsafe outside the poll module, or more than one block:\n%s\n' "$unsafe_sites"
  exit 1
fi
unsafe_line=$(cut -d: -f2 <<< "$unsafe_sites")
sed -n "$((unsafe_line - 1))p" crates/cluster/src/poll.rs | grep -q '^[[:space:]]*// SAFETY:'
# Above its test module, net.rs starts exactly two kinds of thread: the
# worker's heartbeat and the driver's redialer. The driver reads its own
# sockets and each worker session reads and evaluates on one thread.
net_prod=$(sed '/^#\[cfg(test)\]/q' crates/cluster/src/net.rs)
[[ "$(grep -c 'thread::spawn' <<< "$net_prod")" -eq 2 ]]
[[ "$(grep -A3 'thread::spawn' <<< "$net_prod" | grep -cE 'heartbeat_loop|redial_loop')" -eq 2 ]]
# The thread-per-role shell stays deleted.
if grep -rnE 'reader''_loop|Job''Queue|stale_epoch''_frames' crates/ README.md DESIGN.md; then
  exit 1
fi

step "one wire codec (JSON frames, codec negotiation and the codec flag stay deleted)"
# Every frame is binary from the first byte of the handshake (DESIGN.md
# §16.1). proto::Codec survives as a one-variant type only because
# perf/src/replay.rs calls FrameEncoder::new(Codec::Binary); the
# perf/ci-smoke.sh step above is what proves perf/ still compiles
# against it.
# (The quote pairs keep this file from matching its own patterns.)
codec_dead='Codec::''Json|--''codec|_''codec|last_''codec|set_''codec|worker_''codec'
codec_dead+='|net\.''codec\.|WIRE_VERSION_''BINARY|encode_frame''_as'
if grep -rnE "$codec_dead" crates/ scripts/ README.md DESIGN.md; then
  exit 1
fi
[[ "$(sed -n '/^pub enum Codec {/,/^}/p' crates/cluster/src/proto.rs |
  grep -cE '^    [A-Z][A-Za-z]*,$')" -eq 1 ]]

step "one value grammar (the binary value tags live in serde::bin; the driver builds no job tree)"
# The tags 0x00-0x09 of a binary value, their writer and their reader are
# defined once, in the serde shim's bin module (DESIGN.md §16.1): proto.rs
# frames payloads with it and keeps no value writer of its own, and
# TcpCluster::submit writes a job straight into the wire buffer instead
# of building its Value tree first.
tag_defs=$(grep -rnE 'const [A-Z0-9_]+: u8 = 0x0[0-9];' --include='*.rs' crates/ || true)
if [[ "$(grep -c . <<< "$tag_defs")" -ne 10 ]] ||
  grep -v '^crates/shims/serde/src/bin\.rs:' <<< "$tag_defs"; then
  printf 'value tags defined outside serde::bin, or not all ten there:\n%s\n' "$tag_defs"
  exit 1
fi
if grep -n 'put_value' crates/cluster/src/proto.rs; then
  exit 1
fi
if sed '/^#\[cfg(test)\]/q' crates/cluster/src/net.rs | grep -vE '^[[:space:]]*//' |
  grep -n 'to_value'; then
  exit 1
fi

step "one codec (every Serialize/Deserialize impl outside the serde shims is derived)"
# The trace format, the WAL records and the wire payloads all come from
# #[derive] through crates/shims/serde_derive (DESIGN.md §12): a
# hand-written impl would define a format a second time, beside the type
# it encodes. The shims themselves implement the traits for std types.
codec_impls=$(grep -rnE 'impl(<[^>]*>)? +(serde::)?(Serialize|Deserialize) +for' \
  --include='*.rs' crates/ | grep -v '^crates/shims/' || true)
if [[ -n "$codec_impls" ]]; then
  printf 'hand-written serde impls:\n%s\n' "$codec_impls"
  exit 1
fi

step "one durable log (no WAL rewrite, no legacy blob reader, no side formats, one file per study)"
# persist.rs has one line format, one writer that only appends
# (WalWriter::create / WalWriter::open) and one reader
# (RunSnapshot::load). A study's spec, status and generation are Study
# records in its own WAL, so a state directory holds one file per study
# and no sidecar (DESIGN.md §9.3, §17.3).
# (The quote pairs keep this file from matching its own patterns.)
log_dead='create''_from|replace''_wal|staging''_path|Checkpoint''::|Run''Record'
log_dead+='|single-''blob|legacy blob ''parser|blob_snapshot_still''_loads'
log_dead+='|write''_sidecar|sidecar''_path|\.json''\.tmp'
if grep -rnE "$log_dead" crates/ examples/ README.md DESIGN.md; then
  exit 1
fi
# The multi-tenant smoke above left its state directory after a stop, a
# kill and a resume of eight studies: it must hold their eight WALs and
# nothing else.
state_files=$(ls -A target/service-state | sort)
if [[ "$state_files" != "$(printf 'study-%d.wal\n' 1 2 3 4 5 6 7 8 | sort)" ]]; then
  printf 'target/service-state should hold one WAL per study, holds:\n%s\n' "$state_files"
  exit 1
fi
# Recovery reads every study's lifecycle through the serde_json shim's
# parser. The shims sit outside the workspace, so the suite above never
# runs the parser's own tests; run them here, by count.
json_run=$(cargo test -q -p serde_json --offline --lib)
grep -q '^test result: ok\. 7 passed' <<< "$json_run"

step "no per-call threads (surrogate fits, level refits and θ folds run on the calling thread)"
# A scoped spawn and join cost more than the forest fit they split, and
# every spawned thread that allocates adds a malloc arena (DESIGN.md §10).
# Test modules may start threads of their own.
# (The quote pairs keep this file from matching its own patterns.)
spawn_sites=$(
  for f in $(grep -rlE 'thread::(scope|spawn)' crates/surrogate/src crates/core/src); do
    sed '/^#\[cfg(test)\]/q' "$f" | grep -nE 'thread::(scope|spawn)' | sed "s|^|$f:|"
  done || true
)
if [[ -n "$spawn_sites" ]]; then
  printf 'threads started outside test code:\n%s\n' "$spawn_sites"
  exit 1
fi
fanout_dead='fit_with''_threads|available''_threads|run''_indexed|PARALLEL_FIT''_THRESHOLD'
if grep -rnE "$fanout_dead" crates/ DESIGN.md .claude/skills/verify/SKILL.md; then
  exit 1
fi

step "one fault injector (faults, churn and leases come only from the simulator)"
# SimCluster is the one substrate that draws faults, plays out churn and
# keeps orphan leases (DESIGN.md §9.1, §14). The thread pool, the TCP
# substrate and the real-executor driver inject nothing: their failures
# are real, and they take no fault model, membership plan or breaker.
# Test modules may name those types.
# (The quote pairs keep this file from matching its own patterns.)
injector='Fault''Model|Fault''Spec|Membership''Plan|Churn''State|Breaker''Config'
injector_sites=$(
  for f in crates/cluster/src/executor.rs crates/cluster/src/net.rs \
    crates/core/src/runner_threaded.rs; do
    sed '/^#\[cfg(test)\]/q' "$f" | grep -nE "$injector" | sed "s|^|$f:|"
  done || true
)
if [[ -n "$injector_sites" ]]; then
  printf 'fault or churn injection outside the simulator:\n%s\n' "$injector_sites"
  exit 1
fi

step "one allocation per config (Config shares its values; every store holds a handle)"
# A trial's config is allocated once, when the space proposes it; the
# pending set, the job, the history, the completion log and the rung
# heaps hold handles on that one allocation (DESIGN.md §4). A deep copy
# of a config's values in production code brings the per-store copies
# back. Test modules may copy what they like.
grep -qE '^[[:space:]]*values: Arc<\[ParamValue\]>,' crates/space/src/config.rs
copy_sites=$(
  for f in $(grep -rl 'values()\.to_vec()' crates/space/src crates/core/src crates/service/src); do
    sed '/^#\[cfg(test)\]/q' "$f" | grep -n 'values()\.to_vec()' | sed "s|^|$f:|"
  done || true
)
if [[ -n "$copy_sites" ]]; then
  printf 'config values copied outside test code:\n%s\n' "$copy_sites"
  exit 1
fi
# The sharing itself, by name: a filter that matched nothing would pass.
shared_run=$(cargo test -q -p hypertune-core --offline --lib -- --exact \
  tenant::tests::every_store_shares_the_one_config_allocation)
grep -q '^test result: ok\. 1 passed' <<< "$shared_run"
# The serde shim sits outside the workspace, so the suite above never runs
# the test that pins an `Arc<[T]>` to the bytes of a `Vec<T>`.
arc_run=$(cargo test -q -p serde --offline --lib -- --exact \
  tests::an_arc_slice_encodes_like_a_vec_and_round_trips)
grep -q '^test result: ok\. 1 passed' <<< "$arc_run"

step "OK"
