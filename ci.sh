#!/usr/bin/env bash
# Offline CI gate: build, test, lint, and statically analyze the kernels.
# Every step must pass; no network access is required.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Second pass with native codegen: the explicit-SIMD kernels are chosen
# by *runtime* detection either way, but -C target-cpu=native changes
# what the portable `[u32; L]` instantiation of the cores compiles to (it
# only vectorises there) — the fallback, which the `AutoVec` property
# tests and the equivalence tests exercise on every host, must stay
# correct under both codegens. A separate target dir keeps the two flag
# sets from invalidating each other's incremental caches.
echo "==> cargo test -q --workspace (RUSTFLAGS=-C target-cpu=native)"
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native cargo test -q --workspace

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# The step above lints only the root package; this one holds every member
# crate's library and binaries to the workspace lint policy
# (`indexing_slicing`, `undocumented_unsafe_blocks`, ...).
echo "==> cargo clippy --workspace --lib --bins -- -D warnings"
cargo clippy --workspace --lib --bins -- -D warnings

# These members are linted with their test targets too (unit tests, the
# seeded and exhaustive properties, the IR golden test, the CLI tests);
# the other members' test targets follow as they are fixed.
echo "==> cargo clippy -p eks-{core,hashes,kernels,keyspace,engine,cracker,cli,jobs,telemetry,cluster,gpusim,verify} --all-targets -- -D warnings"
cargo clippy -p eks-core -p eks-hashes -p eks-kernels -p eks-keyspace -p eks-engine -p eks-cracker \
  -p eks-cli -p eks-jobs -p eks-telemetry -p eks-cluster -p eks-gpusim -p eks-verify --all-targets -- -D warnings

# Every intra-doc link resolves to a public item, and no two targets
# write the same doc page.
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# `benchmark/` is its own workspace and names ~50 product items; every
# product change must keep it compiling unedited.
echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Every `pub` item in crates/*/src has a caller outside its own file, or
# a reason in the allowlist (and in DESIGN.md §3).
echo "==> scripts/pub_surface.sh --check scripts/pub_surface.allow"
scripts/pub_surface.sh --check scripts/pub_surface.allow

echo "==> eks analyze --deny warnings (MD5, then NTLM)"
./target/release/eks analyze --deny warnings
# The optimized NTLM kernel is lint-clean too. SHA-1 stays out: its
# 26-register pressure warnings on cc 1.x/2.x are expected.
./target/release/eks analyze --algo ntlm --deny warnings

echo "==> eks verify --deny violations (exhaustive scheduler model check + kernel IR soundness)"
./target/release/eks verify --deny violations
# Negative path: every seeded mutant must be flagged with a non-zero
# exit — a verifier that cannot catch a planted bug proves nothing.
for mutant in drop-lease double-count merge-highest ignore-cancel stop-at-any-hit \
              unguarded-store uninit-read divergent-barrier; do
  if ./target/release/eks verify --mutate "$mutant" > /dev/null 2>&1; then
    echo "FAIL: eks verify --mutate $mutant was not flagged" >&2
    exit 1
  fi
done

echo "==> telemetry smoke: crack (charset, then --mask) with --metrics-out/--trace-out, then render the report"
TELEMETRY_DIR="$(mktemp -d)"
./target/release/eks crack --algo md5 --digest d077f244def8a70e5ea758bd8352fcd8 --max 3 \
  --metrics-out "$TELEMETRY_DIR/m.prom" --trace-out "$TELEMETRY_DIR/t.jsonl" --quiet
# `eks report` re-parses both artifacts: it exits non-zero if the
# Prometheus exposition does not parse or the trace JSONL strays from
# the documented schema.
./target/release/eks report --metrics "$TELEMETRY_DIR/m.prom" --trace "$TELEMETRY_DIR/t.jsonl" > /dev/null
# The same plane for a structured space: a mask search takes the
# scheduler and telemetry flags of the charset search (one search path).
./target/release/eks crack --algo ntlm --digest 61fc780628d616af07e0df4f22115af4 --mask '?u?l?l?d' \
  --threads 2 --sched steal --retune --stats \
  --metrics-out "$TELEMETRY_DIR/m.prom" --trace-out "$TELEMETRY_DIR/t.jsonl" --quiet > /dev/null
./target/release/eks report --metrics "$TELEMETRY_DIR/m.prom" --trace "$TELEMETRY_DIR/t.jsonl" > /dev/null
rm -rf "$TELEMETRY_DIR"

echo "==> cluster smoke: eks cluster on a GPU + CPU node (steal, retune), then the report's network efficiency"
CLUSTER_DIR="$(mktemp -d)"
./target/release/eks cluster --algo md5 --digest d077f244def8a70e5ea758bd8352fcd8 \
  --topology 'A(660, cpu:2)' --max 3 --all --sched steal --retune \
  --metrics-out "$CLUSTER_DIR/c.prom" --trace-out "$CLUSTER_DIR/c.jsonl" --quiet > /dev/null
./target/release/eks report --metrics "$CLUSTER_DIR/c.prom" --trace "$CLUSTER_DIR/c.jsonl" \
  > "$CLUSTER_DIR/report.txt"
# The efficiency counts a drained member's wait as idle (members x wall
# time), so it must be reported and can never read a flat 100 %.
EFFICIENCY="$(sed -n 's/.*network efficiency: \([0-9.]*\)%.*/\1/p' "$CLUSTER_DIR/report.txt")"
if [ -z "$EFFICIENCY" ] || ! awk -v e="$EFFICIENCY" 'BEGIN { exit !(e < 100) }'; then
  echo "FAIL: network efficiency missing or not below 100% (got \"$EFFICIENCY\")" >&2
  cat "$CLUSTER_DIR/report.txt" >&2
  exit 1
fi
rm -rf "$CLUSTER_DIR"

echo "==> audit smoke: two accounts sharing a password and a survivor, then a malformed digest"
SHARED="$(./target/release/eks hash --algo ntlm dog)"
STRONG="$(./target/release/eks hash --algo ntlm Xk9qWz77)"
AUDIT_OUT="$(./target/release/eks audit --algo ntlm --digests "$SHARED,$SHARED,$STRONG" \
  --accounts alice,bob,carol --max 3)"
for want in '2/3 accounts cracked' 'CRACKED alice  *-> "dog"' 'CRACKED bob  *-> "dog"' 'ok      carol'; do
  if ! grep -q "$want" <<< "$AUDIT_OUT"; then
    echo "FAIL: eks audit output lacks /$want/" >&2
    echo "$AUDIT_OUT" >&2
    exit 1
  fi
done
# A digest of the wrong length is a usage error, not a panic.
if AUDIT_ERR="$(./target/release/eks audit --digests aabb 2>&1)"; then
  echo "FAIL: eks audit --digests aabb exited zero" >&2
  exit 1
fi
if grep -q "panicked" <<< "$AUDIT_ERR"; then
  echo "FAIL: eks audit --digests aabb panicked: $AUDIT_ERR" >&2
  exit 1
fi

echo "==> eks bench --json (schema-3 host-tuning report: cpu_features + per-backend tuned rates + the detected kernel per algorithm)"
BENCH_DIR="$(mktemp -d)"
./target/release/eks bench --json "$BENCH_DIR/host.json" > /dev/null
for field in '"schema": 3' '"cpu_features"' '"simd_isa"' '"auto_choices"'; do
  if ! grep -q "$field" "$BENCH_DIR/host.json"; then
    echo "FAIL: eks bench --json is missing $field" >&2
    exit 1
  fi
done
rm -rf "$BENCH_DIR"

# The MD5 floor is 8x on this host's explicit AVX-512 kernels (measured
# ~30x); hosts with no SIMD ISA fall back to the portable lanes, which
# still clear the old 3x bar. The adaptive floor asks the closed-loop
# retune to recover at least 1.3x the static arm's parallel efficiency on
# the stale-weights skewed fleet (the true figure for a 4x handicap is
# ~1.58x). The default-vs-best floor keeps `CpuBackend::default()` — what
# `eks crack`, the job fleet and the cluster's CPU leaves run — within 10%
# of the fastest forced-ISA backend: detection picks the widest ISA without
# racing, so this is the tripwire for a host where widest is not fastest
# (remedy: `--isa`), and for a default that silently falls back to the
# portable lanes (scalar code in a baseline build, ~0.15 on this host) on a
# CPU that has better; the bench prints why it skips the gate where no
# explicit ISA is detected. The structured floor holds
# the mask search of `crack_space_parallel` (`?u?l?l?d`, NTLM, one thread)
# to 19.8x its scalar oracle where the CPU has an explicit ISA: 0.8 x the
# lowest of nine readings (24.8-28.5x) with the stepping-word table, where
# the per-run writer read 13-20x and the transposing kernels 9.1-9.7x — so
# a returning per-run fill fails here; skipped, with the reason printed,
# elsewhere — so `--mask`/`--words` can never silently fall back to
# hashing one key at a time. Its single impossible target now takes the
# 30-step reversed MD4 kernel (`?u?l` steps `w[0]`): twenty readings read
# 17.7-33.0x (median 29.1x) against 21.1-25.0x for 48 steps in five
# interleaved runs, too noisy a ratio to tell the two apart, so the floor
# stays at 19.8x; a silent fallback to 48 steps fails the deterministic
# `batch::tests::single_target_ntlm_mask_batches_take_the_30_step_kernel`
# instead, which counts the kernel every batch ran.
echo "==> bench_cracker --json BENCH_cracker.json (fails if batched < scalar, MD5 < 8x, 2-worker scaling < 1.6x, adaptive/static efficiency < 1.3x, default < 0.9x best explicit, mask NTLM batched < 19.8x scalar, or telemetry overhead > 5%)"
cargo bench -q -p eks-bench --bench bench_cracker -- --json "$PWD/BENCH_cracker.json" --min-md5-speedup 8.0 --min-scaling 1.6 --min-adaptive-ratio 1.3 --min-default-vs-best 0.9 --min-structured-speedup 19.8 --max-telemetry-overhead-pct 5
for field in '"schema": 7' '"isa"' '"default_vs_best"' '"structured"' '"mask_ntlm_structured_speedup"' '"adaptive"' '"adaptive_efficiency_ratio"' '"rescatters"'; do
  if ! grep -q "$field" "$PWD/BENCH_cracker.json"; then
    echo "FAIL: BENCH_cracker.json is missing $field" >&2
    exit 1
  fi
done

echo "==> adaptive load-balancing smoke (skewed fleet: static leaves >30% idle, retune closes it to <15%)"
cargo run -q --release -p eks-bench --example adaptive_smoke

echo "==> determinism: with --retune off, static accounting reproduces byte-for-byte"
DET_DIR="$(mktemp -d)"
for arm in a b; do
  ./target/release/eks crack --algo md5 --digest d077f244def8a70e5ea758bd8352fcd8 --max 3 \
    --all --threads 3 --sched static --metrics-out "$DET_DIR/$arm.prom" --quiet > /dev/null
  grep '^eks_keys_tested_total' "$DET_DIR/$arm.prom" | sort > "$DET_DIR/$arm.tested"
done
if ! diff "$DET_DIR/a.tested" "$DET_DIR/b.tested"; then
  echo "FAIL: two retune-off static runs disagree on per-worker accounting" >&2
  exit 1
fi
# And the retuned run covers the same total even though its per-worker
# split is free to differ.
./target/release/eks crack --algo md5 --digest d077f244def8a70e5ea758bd8352fcd8 --max 3 \
  --all --threads 3 --sched steal --retune --metrics-out "$DET_DIR/r.prom" --quiet > /dev/null
for f in a r; do
  grep '^eks_keys_tested_total' "$DET_DIR/$f.prom" \
    | awk '{s+=$NF} END {printf "%.0f\n", s}' > "$DET_DIR/$f.total"
done
if ! diff "$DET_DIR/a.total" "$DET_DIR/r.total"; then
  echo "FAIL: the retuned run's total coverage differs from the static run" >&2
  exit 1
fi
rm -rf "$DET_DIR"

echo "==> job service smoke: SIGKILL mid-search, restart, exactly-once resume"
SPOOL_DIR="$(mktemp -d)"
# Two digit-charset jobs of 10 + 100 + ... + 10^8 keys each; both
# planted words sit deep enough that the kill below lands mid-search.
JOB_SIZE=111111110
./target/release/eks job submit --spool "$SPOOL_DIR" \
  --digest "$(./target/release/eks hash 31415926)" --charset digits --max 8 --name pi > /dev/null
./target/release/eks job submit --spool "$SPOOL_DIR" \
  --digest "$(./target/release/eks hash 27182818)" --charset digits --max 8 --name e > /dev/null
./target/release/eks job run --spool "$SPOOL_DIR" --threads 2 > /dev/null 2>&1 &
RUN_PID=$!
# Wait for the first durable checkpoint and for at least one line in
# job-1's lease log, then kill without warning: the kill usually lands
# on an unfolded log tail, so the restart below replays it.
for _ in $(seq 1 500); do
  if grep -q '"state":"running"' "$SPOOL_DIR/job-1.json" \
     && ! grep -q '"tested":"0"' "$SPOOL_DIR/job-1.json" \
     && [ -f "$SPOOL_DIR/job-1.log" ] && [ "$(wc -l < "$SPOOL_DIR/job-1.log")" -ge 1 ]; then
    break
  fi
  sleep 0.02
done
kill -9 "$RUN_PID" 2> /dev/null || true
wait "$RUN_PID" 2> /dev/null || true
if grep -q '"tested":"0"' "$SPOOL_DIR/job-1.json"; then
  echo "FAIL: job-1 has no durable progress to resume from" >&2
  exit 1
fi
for job in job-1 job-2; do
  if grep -q "\"tested\":\"$JOB_SIZE\"" "$SPOOL_DIR/$job.json"; then
    echo "FAIL: $job already finished before the kill; the gate proved nothing" >&2
    exit 1
  fi
done
# Restart over the same spool: both jobs must resume from their
# checkpoints and finish with exactly-once coverage — tested equals the
# keyspace size exactly (a rescan would overshoot, a skip undershoot).
./target/release/eks job run --spool "$SPOOL_DIR" --threads 2 \
  --metrics-out "$SPOOL_DIR/jobs.prom" --trace-out "$SPOOL_DIR/jobs.jsonl" > /dev/null
for job in job-1 job-2; do
  if ! grep -q '"state":"completed"' "$SPOOL_DIR/$job.json"; then
    echo "FAIL: $job did not complete after the restart" >&2
    exit 1
  fi
  if ! grep -q "\"tested\":\"$JOB_SIZE\"" "$SPOOL_DIR/$job.json"; then
    echo "FAIL: $job coverage is not exactly $JOB_SIZE keys (rescan or skip)" >&2
    exit 1
  fi
done
# 3331343135393236 = hex("31415926"): the planted key was found.
if ! grep -q '"key":"3331343135393236"' "$SPOOL_DIR/job-1.json"; then
  echo "FAIL: job-1 never found its planted key" >&2
  exit 1
fi
# The per-job telemetry dimension renders in the report.
./target/release/eks report --metrics "$SPOOL_DIR/jobs.prom" --trace "$SPOOL_DIR/jobs.jsonl" \
  | grep -q "job-1" || { echo "FAIL: report lacks the per-job table" >&2; exit 1; }
rm -rf "$SPOOL_DIR"

echo "==> observability smoke (skewed fleet: straggler flagged within two windows, mid-run /metrics scrape, flight dump replays)"
OBS_DIR="$(mktemp -d)"
cargo run -q --release -p eks-bench --example observability_smoke "$OBS_DIR/flight.json"
# The dump the smoke run wrote must replay through the real CLI and
# name the straggler it flagged.
./target/release/eks postmortem "$OBS_DIR/flight.json" | grep -q "host/slow" \
  || { echo "FAIL: postmortem does not name the flagged worker" >&2; exit 1; }

echo "==> live scrape smoke: eks serve --listen-metrics, scraped mid-run by eks top --once"
./target/release/eks job submit --spool "$OBS_DIR" \
  --digest "$(./target/release/eks hash 31415926)" --charset digits --max 8 --name scrape > /dev/null
./target/release/eks serve --spool "$OBS_DIR" --addr 127.0.0.1:0 \
  --listen-metrics 127.0.0.1:0 > "$OBS_DIR/serve.log" 2>&1 &
SERVE_PID=$!
METRICS_ADDR=""
for _ in $(seq 1 500); do
  METRICS_ADDR="$(sed -n 's#^metrics listening on http://##p' "$OBS_DIR/serve.log")"
  [ -n "$METRICS_ADDR" ] && break
  sleep 0.02
done
if [ -z "$METRICS_ADDR" ]; then
  echo "FAIL: serve never printed its --listen-metrics address" >&2
  kill "$SERVE_PID" 2> /dev/null || true
  exit 1
fi
# `eks top --once` is the scrape client: it checks /healthz, parses
# /metrics with the self-contained exposition checker, and renders the
# job list from /jobs — all three endpoints in one probe.
./target/release/eks top --addr "$METRICS_ADDR" --once > "$OBS_DIR/top.out"
kill "$SERVE_PID" 2> /dev/null || true
wait "$SERVE_PID" 2> /dev/null || true
for want in "eks top" "scrape"; do
  if ! grep -q "$want" "$OBS_DIR/top.out"; then
    echo "FAIL: eks top frame is missing \"$want\"" >&2
    cat "$OBS_DIR/top.out" >&2
    exit 1
  fi
done

echo "==> flight recorder: forced panic mid-search must dump flight.json that eks postmortem replays"
if ./target/release/eks crack --algo md5 --digest 00000000000000000000000000000000 \
    --max 4 --all --threads 2 --flight "$OBS_DIR/crash.json" --panic-after-chunks 5 \
    --quiet > /dev/null 2>&1; then
  echo "FAIL: the forced-panic crack exited zero" >&2
  exit 1
fi
if [ ! -s "$OBS_DIR/crash.json" ]; then
  echo "FAIL: the panic hook left no flight dump" >&2
  exit 1
fi
./target/release/eks postmortem "$OBS_DIR/crash.json" > "$OBS_DIR/crash.txt"
grep -q "forced panic after" "$OBS_DIR/crash.txt" \
  || { echo "FAIL: postmortem lacks the panic reason" >&2; exit 1; }
# The per-worker table at crash names the workers that were searching.
grep -q "#0" "$OBS_DIR/crash.txt" \
  || { echo "FAIL: postmortem lacks the per-worker table" >&2; cat "$OBS_DIR/crash.txt" >&2; exit 1; }
rm -rf "$OBS_DIR"

echo "CI green."
