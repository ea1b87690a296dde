#!/usr/bin/env bash
# Tier-1 gate plus hygiene: everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one run path: a launch is described once (grep gate + code-line count)"
# What a color touches of a tensor is enumerated in one place
# (TensorRegions::footprint), the requirement list is built once per prepared
# plan, and Context::run is a one-plan Session. The names of what that
# replaced must not come back. (`crates/runtime/src/dependent.rs` has two
# unrelated test names containing `pos_partition`, hence the anchored forms.)
if grep -rln 'LevelRegions::' crates/core/src | grep -v '^crates/core/src/dist_tensor.rs$'; then
  echo "LevelRegions is matched outside dist_tensor.rs: use TensorRegions::footprint / ids"; exit 1
fi
if grep -rnE 'push_input_reqs|mk_tasks|DAG_OUT_REGION|\.pos_partition\(|fn pos_partition|run_with_mode' crates tests; then
  echo "a second description of a launch (or the run_with_mode knob) is back"; exit 1
fi
# A fetch is charged from `somewhere` by a counting walk, with its link from
# the same-node peers: the per-processor source scan and the per-processor
# intersect-and-union it replaced are the coherence sweep's oracle only.
if ! awk '/^[[:space:]]*#\[cfg\(test\)\]/ { gated = 1; next }
          /^[[:space:]]*\/\/\// { next }
          /fn (find_source|existing_per_proc)\(/ && !gated { print FILENAME ":" FNR ": " $0; bad = 1 }
          { gated = 0 }
          END { exit bad }' crates/runtime/src/exec.rs ||
  grep -rln 'find_source\|existing_per_proc' crates | grep -v '^crates/runtime/src/exec.rs$'; then
  echo "find_source / existing_per_proc outside the #[cfg(test)] oracle"; exit 1
fi
fetch_body="$(awk '/fn fetch\(/ { f = 1 } f { print } f && /^    }$/ { exit }' crates/runtime/src/exec.rs)"
[ -n "$fetch_body" ] || { echo "Runtime::fetch not found in crates/runtime/src/exec.rs"; exit 1; }
if grep -n '\.intersect(' <<<"$fetch_body"; then
  echo "Runtime::fetch builds an intersection it only needs to count: use intersect_count"; exit 1
fi
# Dependent partitioning walks runs: `image_rects` and `preimage_rects`, and
# the run walks they call, extend and append runs over `pos`. The per-point
# walk they replaced is `dependent.rs`'s test oracle only.
run_walks="$(awk '/^(pub )?fn (image|preimage)_(rects|runs)\(/ { f = 1; n++ } f { print } f && /^}$/ { f = 0 }
                 END { exit n != 4 }' crates/runtime/src/dependent.rs)" ||
  { echo "image_rects / preimage_rects or their run walks not found in crates/runtime/src/dependent.rs"; exit 1; }
if grep -n 'iter_points' <<<"$run_walks"; then
  echo "image_rects / preimage_rects walk points: extend runs over pos instead"; exit 1
fi
# One copy of each plan fact: `lower` returns only the distributed loops, the
# stored driver layout is the one dispatch key, a span is read as it was cut,
# and the machine model has one issue path. What each replaced stays gone.
if grep -rnE 'LoopNest|LoopLevel|comm_at|compile_nest|driver_levels|clamp_to' crates tests examples; then
  echo "a second copy of a plan fact is back (loop nest, declared driver levels or span re-clamp)"; exit 1
fi
if grep -rn 'fn resolve' crates/core/src/kernels/specialized/; then
  echo "specialized:: dispatches by lookup on the stored layout alone"; exit 1
fi
if grep -nE 'fn index_launch\(|fn barrier\(|model_fence:' crates/runtime/src/exec.rs; then
  echo "the machine model issues through index_launch_after only"; exit 1
fi
# SpAdd3 merges into one flat buffer per span (`specialized::matrix::spadd3`):
# the per-row merge and its row type it replaced are the identity suite's
# oracle (tests/specialized_identity.rs), never library code again.
if ! git ls-files 'crates/*.rs' | xargs awk '
    FNR == 1 { t = 0; p = "" }
    t { next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
    /struct AddRow|fn merge3/ && p !~ /^[[:space:]]*#\[cfg\(test\)\]/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    { p = $0 }
    END { exit bad }'; then
  echo "struct AddRow / fn merge3 outside #[cfg(test)]: SpAdd3 merges into one flat buffer per span"; exit 1
fi
# An output is written back by value into its registration, or re-registered:
# `plan.rs` calls `replace_tensor_data` from one place, the re-registration
# arm, and `materialize_output` builds a pattern-aligned output around the
# driver's shared levels, never a clone of the whole driver.
calls="$(grep -v '^[[:space:]]*//' crates/core/src/plan.rs | grep -c 'replace_tensor_data(' || true)"
if [ "$calls" != 1 ]; then
  echo "plan.rs calls replace_tensor_data $calls times: only the re-registration arm may"; exit 1
fi
materialize_body="$(awk '/^fn materialize_output\(/ { f = 1 } f { print } f && /^}$/ { exit }' crates/core/src/plan.rs)"
[ -n "$materialize_body" ] || { echo "materialize_output not found in crates/core/src/plan.rs"; exit 1; }
if grep -n 'driver\.clone()' <<<"$materialize_body"; then
  echo "materialize_output clones the driver: put the computed values around its levels (with_vals)"; exit 1
fi
# One copy of each tensor: level arrays are shared (`SpTensor::with_vals`),
# a plain write-back moves the computed buffer into the registration, a
# merging one copies only the ranges it re-ran, and a re-registered output
# is moved in, never cloned first.
if ! git ls-files 'crates/core/src/*.rs' | xargs awk '
    FNR == 1 { t = 0; p = "" }
    t { next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
    /levels\(\)\.to_vec\(\)/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0; bad = 1 }
    { p = $0 }
    END { exit bad }'; then
  echo "levels().to_vec() in crates/core/src: share the pattern (SpTensor::with_vals)"; exit 1
fi
# A plan key holds the patterns it reads by reference and matches them by
# handle, fingerprint or content (`engine::PlanKey`): nothing under
# crates/core/src hashes a pattern, so a miss reads no array. Tests may.
if ! git ls-files 'crates/core/src/*.rs' | xargs awk '
    FNR == 1 { t = 0; p = "" }
    t { next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
    /pattern_hash\(/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0; bad = 1 }
    { p = $0 }
    END { exit bad }'; then
  echo "pattern_hash( in crates/core/src: a plan key carries a fingerprint only if the tensor has one (pattern_memo)"; exit 1
fi
if grep -n 'dst\.copy_from_slice(src)' crates/core/src/plan.rs; then
  echo "plan.rs copies a whole output buffer: a plain write-back moves it (Context::write_back)"; exit 1
fi
# A reduction partial covers only its color's output window
# (`plan::out_window`), as a Legion reduction instance covers only the
# subregion its task names: the one whole-output zero fill in plan.rs is the
# shared in-place output.
fills="$(grep -cF 'SharedOut::new(vec![0.0; out_len])' crates/core/src/plan.rs || true)"
if [ "$fills" -gt 1 ]; then
  echo "plan.rs zero-fills a whole output $fills times: a reduction partial covers its color's window (out_window)"; exit 1
fi
if grep -rn 'replace_tensor_data(name, output\.clone())' crates; then
  echo "an output is cloned to re-register it: hand replace_tensor_data the output by move"; exit 1
fi
# One copy of each run fact: a registration carries its version and tracked
# deltas, a flush's counters are one ExecReport (`FlushReport::sched`), a
# statement's timings stay on its ExecResult, the retention proof keeps its
# PlanKey typed, and the Context alone sets the exec mode and split policy.
# The second copies each replaced stay gone.
if grep -rnE 'StreamingState|fn set_pipelined|plan_key: String' crates/*/src ||
  grep -nE '^[[:space:]]*streaming:' crates/core/src/dist_tensor.rs ||
  grep -rnE 'fn set_(exec_mode|split_policy)\(' crates/*/src | grep -v '^crates/core/src/dist_tensor.rs:' ||
  grep -rn 'fn task_skew' crates/*/src | grep -v '^crates/runtime/src/sched/executor.rs:'; then
  echo "a second copy of a run fact is back (versions table, rendered plan key, flush skew or a callerless setter)"; exit 1
fi
struct_body() { awk -v head="pub struct $1 {" 'index($0, head) { f = 1 } f { print } f && /^}$/ { exit }' "$2"; }
flush_body="$(struct_body FlushReport crates/core/src/session.rs)"
stmt_body="$(struct_body StmtReport crates/core/src/program/mod.rs)"
program_body="$(struct_body ProgramReport crates/core/src/program/mod.rs)"
[ -n "$flush_body" ] && [ -n "$stmt_body" ] && [ -n "$program_body" ] ||
  { echo "FlushReport, StmtReport or ProgramReport not found"; exit 1; }
if grep -nE 'pub (tasks|spans|steals|busy_seconds|critical_task_seconds|threads|wall_seconds|split_tasks):' <<<"$flush_body"; then
  echo "FlushReport copies an ExecReport counter: read it from FlushReport::sched"; exit 1
fi
if grep -nE 'pub (time|wall_time|task_skew|stmt):' <<<"$stmt_body" ||
  grep -n 'pub launches:' <<<"$program_body"; then
  echo "a program report copies a statement's result: read it from CompiledProgram::result(k)"; exit 1
fi
# One way to run a leaf: every plan binds a blessed kernel, and a driver
# layout none is blessed for is refused at compile. The generic walker
# (`kernels::{matrix,tensor3}::*_color`) is the identity suites' oracle and
# the benchmark's baseline: plan.rs never names it, no crate counts a
# fallback, and the callerless MatrixMarket/FROSTT codec stays out of
# spdistal-sparse until something reads a dataset file.
if grep -nE '(spmv|spmm|sddmm|spttv|spmttkrp)_color' crates/core/src/plan.rs ||
  grep -rn '"kernel\.fallback"' crates/*/src ||
  grep -rn 'pub mod mm' crates/sparse/src; then
  echo "a second way to run a leaf is back (walker in plan.rs, kernel.fallback or the mm codec)"; exit 1
fi
# Row ownership is decided once per row run: the row walkers hand each
# row-keyed body `owned` from a forward cursor, so an owned row is one slice
# with no clamp search. `intersect_rect(` stays in the walkers (`for_rows`,
# `for_coo_runs`) and the one cut-row path (`cut`) in the specialized layer;
# a body that searches its clamp per row again fails here.
if ! awk 'FNR == 1 { t = 0; p = ""; f = "" }
          t { next }
          /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
          { p = $0 }
          /^[[:space:]]*\/\// { next }
          match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
          /intersect_rect\(/ && f !~ /^(for_rows|for_coo_runs|cut)$/ { print FILENAME ":" FNR ": " $0; bad = 1 }
          END { exit bad }' crates/core/src/kernels/specialized/{mod,matrix,tensor3}.rs; then
  echo "a row-keyed body searches its clamp per row: take the walker's owned flag (specialized::pieces / cut)"; exit 1
fi
# One row fold: SpMM and SpMTTKRP, over every blessed layout (COO
# included), fold their stored entries into an output row through
# `specialized::RowFold`, which borrows the row once (`OutVals::row_mut`)
# and keeps it in registers four entries at a time. The checked per-entry
# writes `add_scaled` and `add_scaled_product` belong to the walker
# (`kernels::{matrix,tensor3}`) alone.
if grep -rn 'add_scaled_product' crates/core/src/kernels/specialized/; then
  echo "a blessed kernel writes its output per entry again: fold the row through RowFold"; exit 1
fi
# The fold is the layer's one output-row borrow and its one AVX entry point:
# exactly one non-test `row_mut(` call and one `#[target_feature` under
# kernels/specialized/, and the per-kernel row loops it replaced (`row_wide`
# twins, `spmm_with` / `spmttkrp_with` dispatch, per-entry `add_scaled`)
# stay gone.
for pat in 'row_mut(' '#[target_feature'; do
  sites="$(awk -v pat="$pat" '
      FNR == 1 { t = 0; p = "" }
      t { next }
      /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
      { p = $0 }
      /^[[:space:]]*\/\// { next }
      index($0, pat) { n++ }
      END { print n + 0 }' crates/core/src/kernels/specialized/*.rs)"
  if [ "$sites" != 1 ]; then
    echo "$pat appears $sites times outside tests under kernels/specialized/: only RowFold may"; exit 1
  fi
done
if grep -rnE 'row_wide|spmm_with|spmttkrp_with|add_scaled\(' crates/core/src/kernels/specialized/; then
  echo "a per-kernel row loop is back (row_wide, *_with or a per-entry add_scaled): fold through RowFold"; exit 1
fi
# One codec arm per instruction set: the `vals_b64` block loops are the
# client crate's one `#[target_feature` function (`proto::wide`, taken under
# the detected `Avx2` proof), and its non-test `unsafe` sites are the three
# that arm needs (the call under the proof, one load, one store), each with
# a SAFETY comment naming the test that runs it under AddressSanitizer (the
# ASan step below runs `-p spdistal-client --lib`).
if ! counts="$(git ls-files 'crates/client/src/*.rs' | xargs awk '
    FNR == 1 { t = 0; p = ""; c = "" }
    t { next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
    { p = $0 }
    /^[[:space:]]*\/\// { c = c $0; next }
    /#\[target_feature/ { f++ }
    /unsafe[[:space:]]*(\{|fn|impl)/ {
      u++
      if (c !~ /SAFETY:/ || c !~ /AddressSanitizer:[ \/]*`[a-z_]+(::[a-z_]+)+`/) {
        print FILENAME ":" FNR ": unsafe without a SAFETY comment naming its ASan test" > "/dev/stderr"; bad = 1
      }
    }
    { c = "" }
    END { print f + 0, u + 0; exit bad }')"; then
  echo "every unsafe site in crates/client/src names the test that runs it under ASan"; exit 1
fi
read -r features unsafes <<<"$counts"
if [ "$features" != 1 ] || [ "$unsafes" -gt 3 ]; then
  echo "crates/client/src has $features #[target_feature functions and $unsafes unsafe sites outside tests: one AVX2 codec arm, at most 3 sites"; exit 1
fi
# One reader, one socket type: both ends of the wire poll the one
# `FrameReader` and hold a `Box<dyn Socket>`. The client's blocking reader
# and its exact-read helper, and the server's TCP/UDS `Conn` enum with its
# hand-delegated `Read`, stay gone, and the serving crates define one
# `fn poll(`, the reader's.
if grep -rnE 'fn (read_frame_into|read_exact_or_eof)\b' crates/client/src ||
  grep -rnE 'Conn::(Tcp|Uds)|impl Read for' crates/server/src; then
  echo "a second frame reader or socket type is back: poll FrameReader over a Box<dyn Socket>"; exit 1
fi
polls="$(grep -rn 'fn poll(' crates/client/src crates/server/src)"
if [ "$(grep -c . <<<"$polls")" -gt 1 ]; then
  echo "$polls"; echo "more than one fn poll( in the client and server crates: frames have one reader (frame::FrameReader)"; exit 1
fi
# One trace event per window: a span, a launch and a flush each record once,
# stamped at the window's start and carrying its `dur_ns`, so the exporter
# pairs nothing and a full ring cannot leave half a window. The begin/end
# halves and the helpers that recorded them stay gone.
if grep -rnE 'SpanBegin|SpanEnd|LaunchStart|LaunchFinish|FlushBegin|FlushEnd|flush_begin|flush_end|launch_start_at|launch_finish_at' crates tests examples; then
  echo "a trace window is recorded in halves again (begin/end events or their helpers)"; exit 1
fi
# One dependence analysis per drain: `Pipeline::new` decides which launches
# serialize and puts every edge straight into one flat graph. The launch-level
# graph and the per-launch graph it copied edges from stay gone.
if grep -rnE 'LaunchGraph|from_summaries' crates tests examples ||
  grep -rn 'TaskGraph::from_reqs' crates/runtime/src/pipeline/; then
  echo "a second dependence analysis is back (LaunchGraph, from_summaries or a per-launch graph in the pipeline)"; exit 1
fi
# One describe per record: a program's cached pass rebinds what its last
# pass described (`plan::Described`, kept in the session's `PassRecord`), so
# the per-color requirement lists, the span cuts and a batch's dependence
# graph are each built at one call site under crates/core/src, the record's
# miss arm. A second describe path beside the record fails here.
for call in 'launch_reqs(' 'color_spans(' 'Pipeline::new('; do
  sites="$(git ls-files 'crates/core/src/*.rs' | xargs awk -v call="$call" '
      FNR == 1 { t = 0; p = "" }
      t { next }
      /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
      { p = $0 }
      /^[[:space:]]*\/\// { next }
      index($0, call) && !index($0, "fn " call) { n++ }
      END { print n + 0 }')"
  if [ "$sites" != 1 ]; then
    echo "$call has $sites non-test call sites under crates/core/src: only the record's miss arm describes"; exit 1
  fi
done
# A tensor keeps its regions for its life: a write-back, a value-only batch
# and a re-registration of the same layout renew coherence under the ids a
# tensor has (`Runtime::renew`), so a tensor's regions are created only
# where a registration of a new layout is built (`swap_registration`), and
# a recorded describe holds over the very regions it names. Per-pass region
# creation and the list rename it needed stay gone.
sites="$(git ls-files 'crates/*.rs' | xargs awk '
    FNR == 1 { t = 0; p = ""; f = "" }
    t { next }
    /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
    { p = $0 }
    /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
    index($0, "create_regions(") && !index($0, "fn create_regions(") { print f }')"
if [ "$sites" != swap_registration ]; then
  echo "create_regions( is called from [${sites//$'\n'/, }]: only swap_registration creates a tensor's regions"; exit 1
fi
if grep -n 'renamed' crates/core/src/plan.rs; then
  echo "plan.rs renames a recorded describe's lists again: a describe holds only over the regions it names"; exit 1
fi
# The launch memo keys on `RegionId`s as they are (`exec.rs`, "Launch
# replay"): a record names no region by position, so neither the
# positional naming nor a rename of the recorded requirements comes back.
if grep -rnE 'named_regions|position\(\|&?r\| \*?r == req\.region\)|req\.region = RegionId\(' crates/runtime/src; then
  echo "the launch memo names regions by position again: key it on the RegionIds themselves"; exit 1
fi
# Every region a launch names is real: a statement's output region is its
# pass record's (`session::PassRecord`), created on the first describe and
# cleared around each run's launches (`Runtime::clear_region`), and a
# registration is created empty, then renewed (`attach_beside`). Per-pass
# region creation in plan.rs, the stand-in id it replaced and the
# attach-by-attach registration stay gone.
if grep -v '^[[:space:]]*//' crates/core/src/plan.rs | grep -E 'create_region\(|retire_region\(' ||
  grep -rn 'stand_in' crates/core/src ||
  grep -n 'attach_placements' crates/core/src/dist_tensor.rs ||
  ! awk 'FNR == 1 { t = 0; p = "" }
         t { next }
         /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
         { p = $0 }
         /^[[:space:]]*\/\// { next }
         /\.attach\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
         END { exit bad }' crates/core/src/dist_tensor.rs; then
  echo "a launch names a stand-in region again, plan.rs creates or retires one, or a registration attaches piece by piece"; exit 1
fi
# Code lines (no test modules, blanks or comment lines; shims excluded), so
# the next simplicity PR starts from a number in the log. A test module is a
# `mod` line right after `#[cfg(test)]`; a lone gated item (a test-only const
# or fn) does not end the count, and the attribute lines are not counted.
code_lines() {
  xargs awk 'FNR==1{t=0;p=""} t{next} /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/ && p ~ /^[[:space:]]*#\[cfg\(test\)\]/ {t=1; next} {p=$0} /^[[:space:]]*$/{next} /^[[:space:]]*\/\//{next} /^[[:space:]]*#\[cfg\(test\)\]/{next} {n++} END{print n}'
}
echo "code lines: $(git ls-files 'crates/*/src/*.rs' 'src/*.rs' | grep -v '^crates/shims/' | code_lines) in the tree," \
  "$(echo crates/core/src/plan.rs | code_lines) in crates/core/src/plan.rs"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo doc --no-deps -q (rustdoc examples on the Program front-end must build)"
cargo doc --no-deps -q

echo "==> cargo test --workspace -q (superset of the tier-1 'cargo test -q')"
cargo test --workspace -q

echo "==> pipeline tests: inter-launch dependence props + bitwise identity"
cargo test -q -p spdistal-runtime --test pipeline_props
cargo test -q --test pipeline_identity

echo "==> program_api smoke: quickstart via Program + ScheduleSpec::Auto"
# On the clustered input the auto-scheduler must pick (and log) the
# non-zero distribution; on the default banded input, outer-dim.
quickstart_out="$(cargo run --release -q --example quickstart -- --skew 0.9 --parallel)"
echo "$quickstart_out"
grep -q "auto-scheduler picked: non-zero" <<<"$quickstart_out"
quickstart_default_out="$(cargo run --release -q --example quickstart)"
grep -q "auto-scheduler picked: outer-dim" <<<"$quickstart_default_out"

echo "==> trace smoke: quickstart --skew 0.95 --trace, validated by trace_check"
# The skewed parallel run must record ≥1 steal and ≥1 auto-decision event
# (plus spans, launches, flushes, cache traffic, and model-timeline events), and —
# since the quickstart drives SpMV over a CSR tensor, a blessed pair
# (docs/kernels.md) — a kernel-dispatch event naming the blessed kernel.
cargo run --release -q --example quickstart -- --skew 0.95 --trace /tmp/spd_trace.json |
  grep "^run_report_json="
cargo run --release -q -p spdistal-bench --bin trace_check -- /tmp/spd_trace.json --summary \
  --require steal --require auto-decision \
  --require span --require launch --require flush --require cache --require model \
  --require kernel-dispatch --require kernel-specialized --forbid kernel-fallback --require-no-drops

echo "==> leaf smoke: fused_addition --pipeline --trace, every leaf blessed"
# Both statements are SpAdd3 over CSR, the last leaf to get a blessed
# kernel: every prepared plan must dispatch it, and none the walker.
cargo run --release -q --example fused_addition -- --pipeline --trace /tmp/spd_add_trace.json |
  grep "^run_report_json="
cargo run --release -q -p spdistal-bench --bin trace_check -- /tmp/spd_add_trace.json \
  --require kernel-specialized --forbid kernel-fallback --require-no-drops
rm -f /tmp/spd_add_trace.json

echo "==> example smoke: load_balance via Program (row vs non-zero)"
cargo run --release -q --example load_balance | grep "^run_report_json="

echo "==> streaming smoke: delta batches drive incremental recompute"
# The streaming example feeds ~1%-of-nnz delta batches through
# update_batch + run_incremental and bit-compares against a fresh full
# program; the trace must show at least one incremental run that skipped
# spans (the fast path actually engaged, not 15 silent fallbacks) and — the
# example ends on a structural batch — one that fell back: the merge, skip
# and fallback arms of the one run path. Ingestion has two arms of its own
# and the same stream reaches both: value-only batches written in place,
# the structural one merged and re-registered.
cargo run --release -q --example streaming -- --trace /tmp/spd_stream_trace.json |
  grep "^run_report_json="
cargo run --release -q -p spdistal-bench --bin trace_check -- /tmp/spd_stream_trace.json \
  --require incremental --require incremental-skip --require incremental-fallback \
  --require ingest-in-place --require ingest-structural \
  --forbid kernel-fallback --require-no-drops
rm -f /tmp/spd_stream_trace.json

echo "==> serving smoke: spd-server on a UDS, two tenants share the plan cache"
# Two tenants submit the same skewed SpMV: tenant t1 must stream at least
# one auto-decision, tenant t2 must ride t1's compiled plan
# (plan_cache.miss=0), the merged report must attribute the reuse
# cross-tenant, and shutdown must drain cleanly (no leaked server) with a
# trace that trace_check accepts.
spd_sock="/tmp/spd_ci_$$.sock"
spd_trace="/tmp/spd_server_trace_$$.json"
rm -f "$spd_sock" "$spd_trace"
cargo run --release -q -p spdistal-server --bin spd-server -- \
  --uds "$spd_sock" --trace "$spd_trace" > /tmp/spd_server_out_$$.log 2>&1 &
spd_pid=$!
for _ in $(seq 1 100); do [ -S "$spd_sock" ] && break; sleep 0.1; done
[ -S "$spd_sock" ] || { echo "spd-server never bound $spd_sock"; exit 1; }
t1_out="$(cargo run --release -q -p spdistal-client --bin spd-client -- \
  --uds "$spd_sock" --tenant t1 demo --skew 0.9)"
echo "$t1_out"
grep -q "event auto_decision:" <<<"$t1_out"
t2_out="$(cargo run --release -q -p spdistal-client --bin spd-client -- \
  --uds "$spd_sock" --tenant t2 demo --skew 0.9)"
echo "$t2_out"
grep -q "plan_cache.miss=0" <<<"$t2_out"
spd_report="$(cargo run --release -q -p spdistal-client --bin spd-client -- \
  --uds "$spd_sock" report)"
grep -q "plan_cache.hit.cross_tenant" <<<"$spd_report"
# Every submit either built a program or ran its connection's resident one,
# and says so.
grep -q "server.program.built" <<<"$spd_report"
cargo run --release -q -p spdistal-client --bin spd-client -- \
  --uds "$spd_sock" shutdown
for _ in $(seq 1 100); do kill -0 "$spd_pid" 2>/dev/null || break; sleep 0.1; done
if kill -0 "$spd_pid" 2>/dev/null; then
  echo "spd-server leaked (pid $spd_pid) after shutdown"; kill "$spd_pid"; exit 1
fi
wait "$spd_pid"
[ ! -e "$spd_sock" ] || { echo "spd-server left its socket behind"; exit 1; }
cargo run --release -q -p spdistal-bench --bin trace_check -- "$spd_trace" \
  --require cache --require auto-decision --forbid kernel-fallback --require-no-drops
rm -f "$spd_trace" /tmp/spd_server_out_$$.log

echo "==> pool contract, optimised: stress, zero-helper completion, panic containment"
# `cargo test --workspace` above ran these in debug (where the quiescence
# debug assertion is live); lifetime-erasure bugs hide without optimisation,
# so the same files run again in --release (~1 s once built). The pool's
# unit tests run under AddressSanitizer in the next step.
cargo test -q --release -p spdistal-runtime --test pool_contract --test pool_latency

echo "==> unsafe under AddressSanitizer: the pool, the identity suites, the wire codec and the server"
# Miri is not installed; ASan is. The pool erases a drain's lifetime and
# relies on its quiescence wait, and the leaf kernels write through raw
# views that only the task graph keeps exclusive: ASan (with
# stack-use-after-return detection, since a drain's job lives on its
# submitter's stack) fails any access that outlives its drain or leaves its
# buffer. The sanitizer rebuilds everything, so it gets its own target dir
# (a few minutes cold, seconds once built).
if cargo +nightly --version >/dev/null 2>&1; then
  asan=(env RUSTFLAGS=-Zsanitizer=address ASAN_OPTIONS=detect_stack_use_after_return=1
    cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu --target-dir target/asan)
  "${asan[@]}" --test specialized_identity --test writeback_identity --test parallel_identity \
    --test pipeline_identity
  "${asan[@]}" -p spdistal-runtime --lib sched::pool
  # The wire codec's AVX2 arm: its loads and stores against the oracle on
  # every length and every corrupted byte (~20 s).
  "${asan[@]}" -p spdistal-client --lib
  # The server's suites; `signal.rs` runs the daemon binary, built with
  # the sanitizer too, and sends it SIGTERM. One test at a time: under the
  # sanitizer's slowdown, two test threads leave `service.rs`'s
  # `the_request_explains_itself` waiting for a core outside every stage it
  # times (it read 0.80-0.82 of a warm request against its 0.9 in 4 of 6
  # runs); serial, the suite takes ~30 s.
  "${asan[@]}" -p spdistal-server --test service --test signal -- --test-threads=1
else
  echo "SKIPPED: the AddressSanitizer step did not run (no cargo +nightly toolchain)"
fi

echo "==> coherence oracle sweep, optimised"
# The counted fetch, the one-run splices of union/subtract and the
# same-node link against the per-processor oracle on both node shapes:
# index arithmetic again, so in --release as well. The same for the bitmap
# arm of `image_coords`: a shift by 64 panics in debug but wraps silently
# when optimised, so only this run can catch a bad mask.
cargo test -q --release -p spdistal-runtime somewhere_fetch
# Launch replay against a runtime that costs every launch: the record's
# key and the replayed clocks, by `to_bits`, optimised.
cargo test -q --release -p spdistal-runtime --lib replay_
cargo test -q --release -p spdistal-runtime --lib dependent
cargo test -q --release -p spdistal-runtime --test geometry_props

echo "==> ingestion against the rebuild oracle, optimised"
# Same reason, other code: `locate`, the merge and the packer are index
# arithmetic on level arrays, where a bug that only optimisation exposes
# would hide from the debug run above (overflow checks off, bounds checks
# hoisted).
cargo test -q --release --test ingest_identity

echo "==> leaf identity suites, optimised"
# Same reason, the leaf layer: raw-pointer `OutVals` writes, `row_mut`'s
# exclusive slices and the prefetch hints are where a bug that only
# optimisation exposes would hide (~1 s once built). The write-back's
# range copy into the registration is index arithmetic too.
cargo test -q --release --test specialized_identity --test kernel_dispatch --test parallel_identity \
  --test end_to_end --test writeback_identity

echo "==> serving suites, optimised"
# The wire codec, the framing and the service tests again in --release:
# the TCP submit latency (< 20 ms; it was 88 ms under Nagle), the 256 KiB
# JSON string parse (< 20 ms; it was 1.1 s) and the `Event::parse` of a
# 1 MiB `vals_b64` result frame (131 072 values, < 20 ms; ~1.5 ms with the
# quad codec and the word-wide string scan, ~3.7 ms before them) are bounds
# on optimised code, and the value block's bit arithmetic is where a
# release-only bug would be.
cargo test -q --release -p spdistal-server -p spdistal-client -p spdistal-obs

echo "==> golden tables: the paper's modelled figures, byte for byte"
# The figure binaries print simulated time on the machine model: a pure
# function of the code and SPDISTAL_SCALE, so the gate is exact. A diff here
# means a modelled number of the paper's evaluation moved. fig13 sizes its own
# problems (SPDISTAL_SCALE scales only its time constants), so it takes ~12 s
# on a 2-vCPU Xeon host; it drives Context::run, a one-plan Session, on every
# node count. See docs/benchmarking.md.
for fig in fig10_cpu_strong_scaling fig11_gpu_heatmap fig12_gpu_vs_cpu table2_datasets ablations \
  fig13_weak_scaling; do
  SPDISTAL_SCALE=0.05 cargo run --release -q -p spdistal-bench --bin "$fig" |
    diff -u "crates/bench/golden/$fig.txt" - || {
    echo "$fig moved; if intended, re-record: SPDISTAL_SCALE=0.05 cargo run --release -q -p spdistal-bench --bin $fig > crates/bench/golden/$fig.txt"
    exit 1
  }
done
# Figure 11 at a quarter scale: SpMM's arabic-2005 and uk-2005 cells at 8
# GPUs sit at the edge of memory there, so a registration that retires its
# old regions before attaching the new ones (a lower modelled peak) flips
# them from B* to S* while the 0.05 tables above can stay green.
SPDISTAL_SCALE=0.25 cargo run --release -q -p spdistal-bench --bin fig11_gpu_heatmap |
  diff -u crates/bench/golden/fig11_gpu_heatmap_s025.txt - || {
  echo "fig11_gpu_heatmap at 0.25 moved; if intended, re-record: SPDISTAL_SCALE=0.25 cargo run --release -q -p spdistal-bench --bin fig11_gpu_heatmap > crates/bench/golden/fig11_gpu_heatmap_s025.txt"
  exit 1
}

echo "==> benchmark/check.sh: the repo benchmark builds against this tree and every op matches the reference"
# The benchmark package (BENCHMARK.json) compiles against pinned public
# names of the workspace crates and checks every op of its five workloads
# against spdistal_sparse::reference, so a renamed name or a wrong kernel
# fails here rather than in a benchmark run: fmt, clippy, its unit tests,
# and a 6 s smoke of each workload in both passes.
benchmark/check.sh

echo "ci.sh: all green"
