#!/bin/sh
# The whole of CI: .github/workflows/ci.yml checks out and runs this
# script, and so does a machine without Actions. The workspace has no
# external crate dependencies, so everything runs with the network off.
set -eux

export CARGO_NET_OFFLINE=true

cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# One fence: what only the frozen benchmark client names (the
# pre-`Enactment` entry points and the HistoryXmlCache shim) is defined
# in crates/core/src/compat.rs, beside the tests that hold each to what
# it forwards to, and the crate root re-exports it from one
# `pub use compat::{…}` item. The fenced names are the ones compat.rs
# defines, plus `run_cached`, a shim already deleted; no other *.rs
# outside the frozen benchmark may name one.
fenced=$(sed -nE 's/^pub (fn|struct) ([A-Za-z_]+).*/-e \2/p' crates/core/src/compat.rs)
test -n "$fenced"
reexport=$(awk '/^pub use compat::/{on=1} on{printf ",%d", FNR} on && /;/{on=0}' \
  crates/core/src/lib.rs)
test -n "$reexport"
if grep -rnw --include='*.rs' --exclude-dir=target --exclude-dir=benchmark \
    --exclude-dir=.bench_build -e run_cached $fenced . |
  awk -F: -v reexport="$reexport," '
    $1 == "./crates/core/src/compat.rs" { next }
    $1 == "./crates/core/src/lib.rs" && index(reexport, "," $2 ",") { next }
    { print; found = 1 }
    END { exit !found }'; then
  echo "a compat.rs name is used outside its fence: call what it forwards to" >&2
  exit 1
fi

# One record of a run: `RecordSink` builds the invocation records from
# the event stream, so the enactor may not keep a second copy.
if grep -rnw --include='*.rs' -e InvocationRecord crates/core/src/enactor/; then
  echo "the enactor names InvocationRecord: records come from RecordSink" >&2
  exit 1
fi

# One backend seam: the enactor is compiled once, against
# `&mut dyn Backend`, and every product wait is `Backend::wait(deadline)`.
# The provided `wait_next` in backend.rs is kept only for the frozen
# benchmark's probe, so nothing else may call it or its old deadline twin.
if grep -rn --include='*.rs' -e 'B: Backend' crates/core/src/enactor/; then
  echo "the enactor is generic over its backend again: step against &mut dyn Backend" >&2
  exit 1
fi
if grep -rnE --include='*.rs' -e 'wait_next(_until)?\(' crates/*/src src |
  grep -v -e '^crates/core/src/backend.rs:[0-9]*:    fn wait_next(&mut self) ->'; then
  echo "a product path calls wait_next: call Backend::wait(deadline)" >&2
  exit 1
fi

# One lifecycle join: each fold sink keeps its invocation and attempt
# entries in its own `obs::Lifecycle` (crates/core/src/obs/lifecycle.rs),
# so the sinks may not grow a map keyed by a tag of their own again.
if grep -nF 'HashMap<u64' crates/core/src/obs/metrics.rs \
    crates/core/src/obs/span.rs crates/core/src/obs/timeline.rs; then
  echo "a fold sink keeps its own per-tag map: store it in its Lifecycle" >&2
  exit 1
fi

# Resolve once, update by position: the metrics and timeline sinks
# build a series name only when the series is first sampled, outside
# their `record`, and a span holds typed values that only its readers
# turn into text, so the `impl EventSink for …` bodies of the three
# fold sinks may not format or stringify per event again.
if awk '/^impl EventSink for /{body=1}
    body && /format!|\.to_string\(\)/{print FILENAME ":" FNR ":" $0; found=1}
    body && /^}/{body=0}
    END{exit !found}' \
    crates/core/src/obs/metrics.rs crates/core/src/obs/timeline.rs \
    crates/core/src/obs/span.rs; then
  echo "a fold sink formats a name per event: resolve its series once" >&2
  exit 1
fi

# Structural keys: a provenance key hashes the history's digest, minted
# once per node (crates/core/src/token.rs), so the data manager and the
# enactor may not render a history to XML again. The per-instance XML
# cache that used to stand in front of that rendering survives only as
# the HistoryXmlCache shim, fenced in crates/core/src/compat.rs above.
if grep -rnw --include='*.rs' -e history_to_xml crates/core/src/store/ \
    crates/core/src/enactor/; then
  echo "a key path renders XML: hash History::digest" >&2
  exit 1
fi
# No tree on the store's path: the data store decodes index.json and
# store.jsonl straight off obs::json's cursor, so the product code of
# crates/core/src/store/ (each file above its `#[cfg(test)]` line) may
# not name JsonValue. The parse-then-decode load the cursor replaced
# survives only as the fuzz oracle in store/disk.rs's tests.
if awk 'FNR == 1 {tests = 0}
    /^#\[cfg\(test\)\]/ {tests = 1}
    !tests && /(^|[^A-Za-z0-9_])JsonValue([^A-Za-z0-9_]|$)/ {print FILENAME ":" FNR ":" $0; found = 1}
    END {exit !found}' crates/core/src/store/*.rs; then
  echo "the store builds a JSON tree: read through obs::json's Cursor" >&2
  exit 1
fi
# No hash order in a committed byte: every product HashMap / HashSet
# names the fixed-seed `IdHasher` as its hasher. clippy.toml bans the
# seeded constructors, but a map built by `collect()` or `Default` with
# the std hasher passes that ban, so no product line (each file above
# its `#[cfg(test)]` line) may name `HashMap<` or `HashSet<` without
# `IdHasher`.
if awk 'FNR == 1 {tests = 0}
    /^#\[cfg\(test\)\]/ {tests = 1}
    !tests && /Hash(Map|Set)</ && !/IdHasher/ {print FILENAME ":" FNR ":" $0; found = 1}
    END {exit !found}' $(find crates/*/src src -name '*.rs' | sort); then
  echo "a product map has the std hasher: name IdHasher as its third parameter" >&2
  exit 1
fi
# Compile once, render on read: a processor's job plan is a template
# built with the CompiledWorkflow, so a firing may not go back to
# building a wrapper binding, catalog or group member. A firing checks
# its tuple against the template and its grid job carries both (a
# `GridPlan`, crates/core/src/backend.rs), which renders the plan only
# when read, so the enactor may not render one either: it neither fills
# a template nor writes a JobPlan itself.
if grep -rnw --include='*.rs' -e Catalog -e Binding -e GroupMember \
    -e compose_group crates/core/src/enactor/; then
  echo "the enactor builds a wrapper binding: check the processor's JobTemplate" >&2
  exit 1
fi
if grep -rnE --include='*.rs' -e '\.fill\(' -e 'JobPlan[[:space:]]*\{' \
    crates/core/src/enactor/; then
  echo "the enactor renders a job plan: hand the backend a GridPlan" >&2
  exit 1
fi

# One gate: `Workflow::validate` runs the lint's own structural rules
# (M001, M007, M008, M010 in crates/core/src/lint/rules/), so the graph
# module may not spell one of their messages again.
if grep -nE 'duplicate processor name|has no binding|is not connected|unknown processor|bad port of' \
    crates/core/src/graph.rs; then
  echo "graph.rs re-implements a lint rule: validate() runs the lint's gate" >&2
  exit 1
fi

# Parse once: the daemon reaches its injected SCUFL parser only through
# its source cache (crates/core/src/daemon/cache.rs), so a pair of texts
# it has parsed before is not parsed again.
if grep -n 'parser)(' crates/core/src/daemon/mod.rs; then
  echo "the daemon calls its parser directly: go through SourceCache::parse" >&2
  exit 1
fi

# One exposition writer: every OpenMetrics line, a run's, the daemon's
# or the profiler's, is written by crates/core/src/obs/openmetrics.rs,
# so no other product file may spell the format's framing, and the
# profiler's spliced-in fragment writer may not come back.
if grep -rnE -e '# (TYPE|HELP|EOF)' crates/*/src src |
  grep -v -e '^crates/core/src/obs/openmetrics.rs:'; then
  echo "OpenMetrics text is written outside obs/openmetrics.rs: use its writer" >&2
  exit 1
fi
if grep -rnw --include='*.rs' --exclude-dir=target --exclude-dir=.bench_build \
    -e openmetrics_fragment .; then
  echo "openmetrics_fragment is back: render() writes the prof families" >&2
  exit 1
fi

# One spelling per run output: the fourteen per-format flags that
# `--emit kind=path` replaced may not come back in the documents a user
# (or the next builder) copies commands from. (`moteur-bench scale
# --events N` is a live flag: a count of simulator events, not an output.)
if grep -nE -e '--(events|chrome-trace|metrics|openmetrics|spans|timeline|timeline-csv|profile|profile-collapsed|provenance|workflow-report|report|critical-path|diagram)([^a-z-]|$)' \
    README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md ci.sh |
  grep -v -e '--events N'; then
  echo "a removed output flag is documented: spell it --emit kind=path" >&2
  exit 1
fi

# One front door: the eight evidence binaries are subcommands of
# `moteur-bench`, which is a binary of the root package; a command that
# names one of the old spellings no longer runs.
if grep -nE -e '--bin (table1|table2|fig10|speedups|diagrams|theory|ablation|granularity)([^a-z]|$)' \
    -e '-p moteur-bench --bi[n]' \
    README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md ci.sh; then
  echo "a removed bench binary is documented: spell it --bin moteur-bench -- <subcommand>" >&2
  exit 1
fi

# API docs must build clean: broken intra-doc links and malformed
# doc blocks are errors, not noise.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Tier-1: the root package must build in release and pass its tests.
cargo build --release --offline
cargo test -q --offline

# Every example runs to completion, not just compiles: each asserts
# what it demonstrates (wrapper_descriptor, for one, that compose_group
# and a compiled template build equal plans). All six take well under a
# second each in release.
for example in examples/*.rs; do
  cargo run --release --offline --quiet --example "$(basename "$example" .rs)"
done

# README's CLI reference is the binaries' own `--help`, which is derived
# from the flag tables (src/cli.rs) and the export table (src/emit.rs):
# rewrite the three fenced blocks between their markers and compare with
# the committed file, the same rule as the BENCH_*.json below.
for bin in moteur moteur-gridsim moteur-bench; do
  cargo run --offline --quiet --bin "$bin" -- --help >target/help.txt
  awk -v from="<!-- $bin --help -->" -v to="<!-- /$bin --help -->" '
    $0 == from {
      print; print "```text"
      while ((getline line < "target/help.txt") > 0) print line
      close("target/help.txt"); print "```"; skip = 1; next
    }
    $0 == to { skip = 0 }
    !skip' README.md >target/README.md
  cp target/README.md README.md
done
git diff --exit-code -- README.md

# The full workspace (core, gridsim, scufl, wrapper, xmlish, analysis,
# registration, bench).
cargo test --workspace --offline

# The profiler's 5 % cost contract once more in the shipped build,
# where the enactor's own cost no longer hides the profiler's (the
# workspace run above holds it in debug).
cargo test --release --offline -p moteur-bench --test overhead

# The benchmark is a package of its own that drives the product through
# its public surface (benchmark/src/sut.rs): building and testing it
# here makes a signature break fail CI instead of the benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
# Correctness smokes, not measurements: every op's output is checked
# (hits, misses, grid jobs, makespan; one ok response per protocol
# line; JSONL lines, `job_submitted`, spans and timeline series of the
# four standard sinks; every sampled sink value of the token plane,
# `2x + 1` at its index, and two jobs per item through bounded ports)
# and a wrong one exits non-zero. About a second of ops each.
bash benchmark/run.sh --workload memo_warm --seed 1 --seconds 1 --trace 0
bash benchmark/run.sh --workload bronze_observed --seed 1 --seconds 1 --trace 0
bash benchmark/run.sh --workload daemon_wave --seed 1 --seconds 1 --trace 0
bash benchmark/run.sh --workload stream_chain --seed 1 --seconds 1 --trace 0
# The same through the traced binary, so every CI log carries the
# daemon's per-stage and per-call numbers (`stage.apply_drain`,
# `stage.apply_submit`, `daemon.step`, `daemon.submit`) to read a
# scheduling regression from.
bash benchmark/run.sh --workload daemon_wave --seed 1 --seconds 1 --trace 1

# Static analysis over the bundled example workflows: errors AND
# warnings fail the build (notes — e.g. grouping advice — are fine).
# `plan` runs the same lint pass plus the cardinality/transfer planner,
# so every example must also produce a clean partition report.
for wf in examples/workflows/*.xml; do
  cargo run --offline --quiet --bin moteur -- lint "$wf" --deny-warnings
  cargo run --offline --quiet --bin moteur -- plan "$wf" --deny-warnings
done

# Perf observatory. Each `moteur-bench` campaign below rewrites its
# committed BENCH_*.json in place and exits by its own table of pass
# criteria (crates/bench/src/gate.rs). No document carries a wall-clock
# field — benchmark/ owns those — so the closing `git diff --exit-code`
# is the regression gate: the committed file is the baseline, at zero
# tolerance in both directions.
#
# First the sweep of the six Table-1 configurations on the ideal grid;
# fails on model-vs-observed drift beyond 5%. Writes BENCH_point.json
# and BENCH_summary.json.
cargo run --offline --quiet --bin moteur-bench -- \
  campaign --sweep ndata=1..6 --out-dir .

# Fault injection: the campaign on an unreliable egee-2006 (middleware
# retries off, >=4% failure probability) under naive / backoff /
# timeout+replication. Fails unless timeout+replication beats naive on
# mean makespan and nothing is quarantined; writes BENCH_faults.json.
cargo run --offline --quiet --bin moteur-bench -- \
  faults --out-dir .

# Grid telemetry: the campaign with the timeline pipeline attached, in
# the ideal (byte-accounting) and queue-saturated regimes. Fails unless
# the timeline's per-link byte totals reconcile with the enactor and
# the loaded regime is attributed to the CE queues; writes
# BENCH_timeline.json.
cargo run --offline --quiet --bin moteur-bench -- \
  timeline --out-dir .

# Static planner vs observed staging: every per-edge byte interval from
# `moteur plan` must contain the bytes the enactor actually bound onto
# that (consumer, port), and the greedy site partition must beat
# centralized routing on the data-heavy bronze variant. Writes
# BENCH_plan.json.
cargo run --offline --quiet --bin moteur-bench -- \
  plan --out-dir .

# Scale campaign: a million gridsim events plus ten thousand enactor
# jobs with the self-profiler attached (release build: a million events
# in seconds, and the allocation counts are the shipped code's). Fails
# unless the event and job targets are reached inside the
# allocations-per-event budget; writes BENCH_scale.json (counts,
# allocations per event, peak live bytes — no throughput).
cargo run --release --offline --quiet --bin moteur-bench -- \
  scale --out-dir .

# Streaming campaign: a million-item stream through a bounded-port
# chain (release build, as above — the point is the memory high-water
# mark). Fails unless every item completes and the pipeline's peak live
# bytes beyond the materialised inputs stay inside the absolute budget
# while undercutting the eager per-item projection by >=4x; writes
# BENCH_stream.json.
cargo run --release --offline --quiet --bin moteur-bench -- \
  stream --out-dir .

# Multi-tenant daemon: a 100-submission wave across four tenants of
# one enactment daemon sharing a memo table. Fails unless every
# submission succeeds, the wave reuses >=90% of the seed tenant's
# derivations and the p99 time-to-first-job (virtual seconds) stays
# bounded; writes BENCH_daemon.json.
cargo run --offline --quiet --bin moteur-bench -- \
  daemon --out-dir .

# The protocol self-test round-trips every moteur/daemon/v1 message
# type through render + parse.
cargo run --offline --quiet --bin moteur -- daemon --check-protocol

# Data manager: cold/warm pair on the deterministic chain. Fails if the
# cold run drifts from eq. 1-4 or any warm invocation misses the cache;
# writes BENCH_warm.json.
cargo run --offline --quiet --bin moteur-bench -- \
  warm --ndata 6 --out-dir .

# The nine documents are committed exactly as the commands above write
# them, and every field is a function of (code, seed, command line), so
# the campaigns must have rewritten them byte for byte: a change that
# moves a number has to commit the new file (and say why), which makes
# `git log -p -- 'BENCH_*.json'` the trajectory. The allocation counts
# and live-byte marks of scale and stream belong to (code, seed, command
# line, toolchain): a toolchain bump that moves them is answered by
# committing the regenerated files, not by loosening this comparison.
git diff --exit-code -- BENCH_point.json BENCH_summary.json BENCH_warm.json \
  BENCH_faults.json BENCH_timeline.json BENCH_plan.json BENCH_scale.json \
  BENCH_stream.json BENCH_daemon.json

# The paper's evidence: regenerate every results/*.txt with the command
# EXPERIMENTS.md documents for it and compare with the committed files.
# `paper` enacts the Bronze/EGEE campaign once (each cell exactly once)
# and writes Table 1, Table 2, the speed-ups and Fig. 10 from it; the
# other four print to stdout (progress goes to stderr). About a second
# in release.
cargo run --release --offline --quiet --bin moteur-bench -- \
  paper --repeats 5 --out-dir results
for doc in diagrams theory ablation granularity; do
  cargo run --release --offline --quiet --bin moteur-bench -- "$doc" \
    >"results/$doc.txt"
done
git diff --exit-code -- results/

# Graceful degradation end-to-end: a run whose timeout budget is
# unsatisfiable must quarantine (not abort), emit a workflow report
# naming the lost items, and exit non-zero.
cargo run --offline --quiet --bin moteur -- example
if cargo run --offline --quiet --bin moteur -- \
    run bronze-standard.xml inputs-12.xml --config sp+dp \
    --timeout 40 --max-retries 0 --continue-on-error \
    --emit workflow-report=degraded-report.json; then
  echo "continue-on-error run should exit non-zero" >&2
  exit 1
fi
grep -q '"ok":false' degraded-report.json
grep -q '"descendants"' degraded-report.json
rm -f bronze-standard.xml inputs-12.xml degraded-report.json
