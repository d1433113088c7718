#!/bin/sh
# Runs the two headline benchmarks (E2 accuracy suite, E6 chip-scale
# analysis) three times each and writes BENCH_1.json: the fresh runs plus
# the pinned pre-optimization baseline, so the speedup is always visible
# in one file. Then runs the incremental re-analysis benchmark and writes
# BENCH_2.json with the incremental-vs-full speedup, the worker-scaling
# sweep into BENCH_3.json, the ingest (parse/snapshot) throughput record
# into BENCH_4.json, the batch-sim throughput record into BENCH_6.json, the
# chip-scale mmap ingest + shared-view RSS record into BENCH_7.json, and
# the crystald service saturation curves (cmd/loadgen concurrency ramp
# with response validation) into BENCH_8.json, and the hierarchical-
# macromodel record (interleaved hier A/B on E6-XL plus the chip:64,40
# scale point) into BENCH_9.json. BENCH_5.json (the reorder A/B and the
# speculative drain's fence counters) is history: the RCM layout and the
# speculative drain were deleted, so nothing writes it any more. Every
# file is stamped
# with the machine (nproc, CPU
# model, GOMAXPROCS) so numbers are never compared across incomparable
# hardware. The scaling sweeps refuse to run on a single-CPU box unless
# BENCH_ALLOW_SINGLE_CPU=1, and are then stamped degenerate — see the
# guard below.
#
# Usage: scripts/bench.sh (from the repo root, or via `make bench`).
#   BENCH_ONLY=scaling     skip BENCH_1/BENCH_2 (the `make bench-scaling`
#                          target: the BENCH_3/BENCH_4 sweeps only).
#   BENCH_ONLY=hier        run only BENCH_9 (the `make bench-hier`
#                          target: hierarchical-macromodel record).
set -e
cd "$(dirname "$0")/.."

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# Machine stamp, shared by every emitted JSON. The sweeps run under
# GOMAXPROCS=nproc explicitly; the headline benchmarks inherit the same
# effective value.
procs=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
sweep_procs=${GOMAXPROCS:-$procs}
cpu_model=$(sed -n 's/^model name[ 	]*: *//p' /proc/cpuinfo 2>/dev/null | head -1)
[ -n "$cpu_model" ] || cpu_model=unknown
MACHINE=$(printf '{"nproc": %s, "gomaxprocs": %s, "cpu_model": "%s"}' \
    "$procs" "$sweep_procs" "$cpu_model")

if [ "${BENCH_ONLY:-all}" = all ]; then

OUT=BENCH_1.json
go test -run '^$' -bench 'BenchmarkE2ModelAccuracy$|BenchmarkE6ChipScale$' \
    -benchtime 1x -count 3 . | tee "$RAW"

# Baseline ns/op: median of three runs measured at the seed commit (pre
# stage-database / allocation work) on this repository's 1-CPU reference
# runner. Update only when re-measuring the seed on comparable hardware.
awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    runs[name] = runs[name] $3 ","
}
END {
    base["BenchmarkE2ModelAccuracy"] = 97119436
    base["BenchmarkE6ChipScale"]     = 3390569021
    printf "{\n  \"machine\": %s,\n  \"benchmarks\": {\n", machine
    first = 1
    for (name in runs) {
        sub(/,$/, "", runs[name])
        n = split(runs[name], r, ",")
        # median of the runs (sorted)
        for (i = 1; i < n; i++)
            for (j = i + 1; j <= n; j++)
                if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
        med = r[int((n + 1) / 2)]
        if (!first) printf ",\n"
        first = 0
        printf "    \"%s\": {\n", name
        printf "      \"baseline_ns_op\": %.0f,\n", base[name]
        printf "      \"runs_ns_op\": [%s],\n", runs[name]
        printf "      \"median_ns_op\": %s,\n", med
        printf "      \"speedup_vs_baseline\": %.2f\n", base[name] / med
        printf "    }"
    }
    printf "\n  }\n}\n"
}' machine="$MACHINE" "$RAW" > "$OUT"

echo "wrote $OUT"
cat "$OUT"

# BENCH_2.json: incremental re-analysis vs from-scratch at chip scale.
# BenchmarkE6Incremental edits ~1% of the E6 chip (datapath + multiplier +
# adder + PLA) per iteration and reports the measured full-run baseline,
# the dirty fraction, and the incremental speedup.
OUT2=BENCH_2.json
go test -run '^$' -bench 'BenchmarkE6Incremental$' \
    -benchtime 3x -count 3 . | tee "$RAW"

awk '
/^BenchmarkE6Incremental/ {
    ns = ns $3 ","
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "%dirty")          dirty = dirty $i ","
        if ($(i + 1) == "speedup-vs-full") spd = spd $i ","
    }
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    sub(/,$/, "", ns); sub(/,$/, "", dirty); sub(/,$/, "", spd)
    printf "{\n  \"machine\": %s,\n  \"benchmarks\": {\n", machine
    printf "    \"BenchmarkE6Incremental\": {\n"
    printf "      \"runs_ns_op\": [%s],\n", ns
    printf "      \"median_ns_op\": %s,\n", median(ns)
    printf "      \"dirty_pct\": %s,\n", median(dirty)
    printf "      \"speedup_incremental_vs_full\": %s\n", median(spd)
    printf "    }\n  }\n}\n"
}' machine="$MACHINE" "$RAW" > "$OUT2"

echo "wrote $OUT2"
cat "$OUT2"

# BENCH_6.json: vectorized functional regression. BenchmarkBatchSim
# streams the same 1024-vector truth-table sweep over the composed E6
# chip through the 64-lane bit-plane batch engine and (a 64-vector
# subsample, identical rows) through the scalar engine; the headline
# number is the per-vector speedup of the vectorized settle. Not a
# scaling sweep — both arms are single-threaded, so the record is valid
# on any runner.
OUT6=BENCH_6.json
go test -run '^$' -bench 'BenchmarkBatchSim' \
    -benchtime 1x -count 3 . | tee "$RAW"

awk '
/^BenchmarkBatchSim\/batch/ {
    bns = bns $3 ","
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "vec/s")       bvec = bvec $i ","
        if ($(i + 1) == "MB/s")        bmbs = bmbs $i ","
        if ($(i + 1) == "sweeps")      bsw = bsw $i ","
        if ($(i + 1) == "transistors") btr = $i
    }
}
/^BenchmarkBatchSim\/scalar/ {
    sns = sns $3 ","
    for (i = 5; i < NF; i += 2)
        if ($(i + 1) == "vec/s") svec = svec $i ","
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    bc = bns; sub(/,$/, "", bc)
    sc = sns; sub(/,$/, "", sc)
    printf "{\n  \"benchmark\": \"BenchmarkBatchSim\",\n"
    printf "  \"machine\": %s,\n", machine
    printf "  \"vectors\": 1024,\n"
    printf "  \"transistors\": %s,\n", btr
    printf "  \"batch\": {\n"
    printf "    \"runs_ns_op\": [%s],\n", bc
    printf "    \"median_ns_op\": %s,\n", median(bns)
    printf "    \"vectors_per_s\": %s,\n", median(bvec)
    printf "    \"mb_per_s\": %s,\n", median(bmbs)
    printf "    \"sweeps\": %s\n", median(bsw)
    printf "  },\n"
    printf "  \"scalar\": {\n"
    printf "    \"runs_ns_op\": [%s],\n", sc
    printf "    \"median_ns_op\": %s,\n", median(sns)
    printf "    \"vectors_per_s\": %s\n", median(svec)
    printf "  },\n"
    printf "  \"speedup_batch_vs_scalar\": %.1f\n", median(bvec) / median(svec)
    printf "}\n"
}' machine="$MACHINE" "$RAW" > "$OUT6"

echo "wrote $OUT6"
cat "$OUT6"

# BENCH_7.json: zero-copy mmap ingest at chip scale. BenchmarkIngestXL
# cold-loads the E6-XL snapshot (chip:32,10 — 100k+ nodes, ~182k
# transistors) through three loaders — the mmap + slice-cast v2 path,
# the v1 heap decoder, and the v2 heap decoder — with the collector
# quiesced identically in every arm; the headline is the mmap-vs-v1
# speedup. BenchmarkSessionRSS then records the memory half: per-session
# cost for 1/2/4/8 concurrent crystald sessions of the same chip, shared
# arena vs per-session heap copies. Both are single-threaded
# measurements, valid on any runner.
OUT7=BENCH_7.json
go test -run '^$' -bench 'BenchmarkIngestXL' \
    -benchtime 20x -count 5 . | tee "$RAW"
go test -run '^$' -bench 'BenchmarkSessionRSS' \
    -benchtime 1x -count 1 ./internal/server/ | tee -a "$RAW"

awk '
/^BenchmarkIngestXL\// {
    name = $1
    sub(/^BenchmarkIngestXL\//, "", name)
    sub(/-[0-9]+$/, "", name)
    runs[name] = runs[name] $3 ","
    if (!(name in seen)) { order[++nl] = name; seen[name] = 1 }
    for (i = 5; i < NF; i += 2)
        if ($(i + 1) == "ns/node") npn[name] = npn[name] $i ","
}
/^BenchmarkSessionRSS\// {
    name = $1
    sub(/^BenchmarkSessionRSS\//, "", name)
    sub(/-[0-9]+$/, "", name)
    split(name, parts, "/")
    arm = parts[1]; fleet = parts[2]
    if (!(name in rseen)) { rorder[++nr] = name; rseen[name] = 1 }
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "heapMB/session") heap[name] = $i
        if ($(i + 1) == "mappedMB")       mapped[name] = $i
        if ($(i + 1) == "totalMB")        total[name] = $i
    }
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    printf "{\n  \"benchmark\": \"mmap_ingest\",\n"
    printf "  \"machine\": %s,\n", machine
    printf "  \"chip\": {\"spec\": \"chip:32,10\", \"nodes\": 109670, \"transistors\": 181730},\n"
    printf "  \"load\": {\n"
    for (i = 1; i <= nl; i++) {
        name = order[i]
        csv = runs[name]
        sub(/,$/, "", csv)
        printf "    \"%s\": {\n", name
        printf "      \"runs_ns_op\": [%s],\n", csv
        printf "      \"median_ns_op\": %s,\n", median(runs[name])
        printf "      \"ns_per_node\": %s\n", median(npn[name])
        printf "    }%s\n", i < nl ? "," : ""
    }
    printf "  },\n"
    printf "  \"speedup_mmap_vs_v2decode\": %.2f,\n", median(runs["v2decode"]) / median(runs["mmap"])
    printf "  \"rss_sessions\": {\n"
    for (i = 1; i <= nr; i++) {
        name = rorder[i]
        printf "    \"%s\": {\"heap_mb_per_session\": %s, \"mapped_mb\": %s, \"total_mb\": %s}%s\n", \
            name, heap[name], mapped[name], total[name], i < nr ? "," : ""
    }
    printf "  },\n"
    printf "  \"rss_copy_vs_shared_total_at_8\": %.1f\n", total["copy/8"] / total["shared/8"]
    printf "}\n"
}' machine="$MACHINE" "$RAW" > "$OUT7"

echo "wrote $OUT7"
cat "$OUT7"

# BENCH_8.json: service saturation curves. cmd/loadgen drives a real
# crystald process (spawned for the run, snapshot warm starts enabled)
# through an offered-concurrency ramp of mixed scripted-session traffic —
# sync and async analyzes, edit barriers, simulate batches, critical
# queries — with response validation on (async results hard-asserted
# byte-identical to sync). The record is throughput, analyze p50/p99 and
# the 429 rejection rate per step, plus the detected saturation knee.
# Tunables: LOADGEN_RAMP (steps), LOADGEN_STEP (per-step duration),
# LOADGEN_SESSIONS (slot count), LOADGEN_JOB_WORKERS / LOADGEN_JOB_QUEUE
# (daemon async plane).
OUT8=BENCH_8.json
go build -o "${TMPDIR:-/tmp}/bench-crystald" ./cmd/crystald
go build -o "${TMPDIR:-/tmp}/bench-loadgen" ./cmd/loadgen
"${TMPDIR:-/tmp}/bench-loadgen" \
    -daemon "${TMPDIR:-/tmp}/bench-crystald" \
    -port "${LOADGEN_PORT:-8943}" \
    -ramp "${LOADGEN_RAMP:-2,4,8,16,32}" \
    -step-duration "${LOADGEN_STEP:-4s}" \
    -sessions "${LOADGEN_SESSIONS:-32}" \
    -max-sessions "${LOADGEN_MAX_SESSIONS:-24}" \
    -job-workers "${LOADGEN_JOB_WORKERS:-2}" \
    -job-queue "${LOADGEN_JOB_QUEUE:-32}" \
    -validate \
    -out "$RAW.loadgen"
jq --argjson machine "$MACHINE" \
    '{benchmark: "loadgen_saturation", machine: $machine} + .' \
    "$RAW.loadgen" > "$OUT8"
rm -f "$RAW.loadgen"

echo "wrote $OUT8"
cat "$OUT8"

fi # BENCH_ONLY = all

if [ "${BENCH_ONLY:-all}" != hier ]; then

# Scaling sweeps (BENCH_3, BENCH_4) are meaningless on one CPU:
# every workers>1 row then measures pure coordination overhead, and a
# reader comparing rows would conclude parallelism is a regression. Run
# the sweeps under GOMAXPROCS=nproc explicitly, and when that is still 1,
# refuse unless BENCH_ALLOW_SINGLE_CPU=1 — in which case every emitted
# JSON is stamped "degenerate_single_cpu": true so the numbers cannot be
# mistaken for a scaling record.
degenerate=false
if [ "$sweep_procs" = 1 ]; then
    degenerate=true
    if [ "${BENCH_ALLOW_SINGLE_CPU:-0}" != 1 ]; then
        echo "bench.sh: REFUSING the worker-scaling sweeps: GOMAXPROCS=$sweep_procs." >&2
        echo "bench.sh: workers>1 rows on one CPU measure overhead, not scaling." >&2
        echo "bench.sh: set BENCH_ALLOW_SINGLE_CPU=1 to record anyway (annotated as degenerate)." >&2
        exit 1
    fi
    echo "bench.sh: WARNING: GOMAXPROCS=1 — scaling sweeps are degenerate;" >&2
    echo "bench.sh: WARNING: annotating BENCH_3/BENCH_4 with degenerate_single_cpu=true." >&2
fi

# BENCH_3.json: single-run scaling with the worker count.
# BenchmarkE6ChipScaleWorkers analyzes the same chip at 1, 2, 4 and
# GOMAXPROCS workers (deduplicated); the workers size the concurrent
# stage-database prewarm ahead of the serial drain, and results are
# bit-identical at every count. On a single-core runner the >1 rows
# measure pure coordination overhead — see docs/PERFORMANCE.md,
# "One serial drain, the identity layout".
OUT3=BENCH_3.json
GOMAXPROCS=$sweep_procs go test -run '^$' -bench 'BenchmarkE6ChipScaleWorkers' \
    -benchtime 1x -count 3 . | tee "$RAW"

awk '
/^BenchmarkE6ChipScaleWorkers\// {
    name = $1
    sub(/^BenchmarkE6ChipScaleWorkers\//, "", name)
    sub(/-[0-9]+$/, "", name)
    sub(/^workers=/, "", name)
    runs[name] = runs[name] $3 ","
    if (!(name in seen)) { order[++nw] = name; seen[name] = 1 }
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    base = median(runs[order[1]])
    printf "{\n  \"benchmark\": \"BenchmarkE6ChipScaleWorkers\",\n"
    printf "  \"machine\": %s,\n", machine
    printf "  \"degenerate_single_cpu\": %s,\n", degenerate
    printf "  \"workers\": {\n"
    for (i = 1; i <= nw; i++) {
        w = order[i]
        csv = runs[w]
        sub(/,$/, "", csv)
        med = median(runs[w])
        printf "    \"%s\": {\n", w
        printf "      \"runs_ns_op\": [%s],\n", csv
        printf "      \"median_ns_op\": %s,\n", med
        printf "      \"scaling_vs_1_worker\": %.2f\n", base / med
        printf "    }%s\n", i < nw ? "," : ""
    }
    printf "  }\n}\n"
}' machine="$MACHINE" degenerate="$degenerate" "$RAW" > "$OUT3"

echo "wrote $OUT3"
cat "$OUT3"

# BENCH_4.json: ingest throughput. BenchmarkIngestParse measures the cold
# half of the pipeline (parse + structural check, the work LoadSimFile
# does on a cache miss) serially and at increasing parallel-parser worker
# counts; BenchmarkIngestSnapshotLoad measures the warm half (decoding
# the binary .simx snapshot that replaces the parse). The headline
# ratios: parallel parse speedup at the widest worker count, and
# snapshot-load speedup over the serial parse.
OUT4=BENCH_4.json
GOMAXPROCS=$sweep_procs go test -run '^$' \
    -bench 'BenchmarkIngestParse|BenchmarkIngestSnapshotLoad' \
    -benchtime 10x -count 3 . | tee "$RAW"

awk '
/^BenchmarkIngestParse\// {
    name = $1
    sub(/^BenchmarkIngestParse\/workers=/, "", name)
    sub(/-[0-9]+$/, "", name)
    runs[name] = runs[name] $3 ","
    if (!(name in seen)) { order[++nw] = name; seen[name] = 1 }
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "MB/s")          mbs[name] = mbs[name] $i ","
        if ($(i + 1) == "ns/transistor") nst[name] = nst[name] $i ","
    }
}
/^BenchmarkIngestSnapshotLoad/ {
    sruns = sruns $3 ","
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "MB/s")          smbs = smbs $i ","
        if ($(i + 1) == "ns/transistor") snst = snst $i ","
    }
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    serial = median(runs["1"])
    widest = order[nw]
    printf "{\n  \"benchmark\": \"ingest\",\n"
    printf "  \"machine\": %s,\n", machine
    printf "  \"degenerate_single_cpu\": %s,\n", degenerate
    printf "  \"parse_workers\": {\n"
    for (i = 1; i <= nw; i++) {
        w = order[i]
        csv = runs[w]
        sub(/,$/, "", csv)
        printf "    \"%s\": {\n", w
        printf "      \"runs_ns_op\": [%s],\n", csv
        printf "      \"median_ns_op\": %s,\n", median(runs[w])
        printf "      \"mb_per_s\": %s,\n", median(mbs[w])
        printf "      \"ns_per_transistor\": %s,\n", median(nst[w])
        printf "      \"speedup_vs_serial\": %.2f\n", serial / median(runs[w])
        printf "    }%s\n", i < nw ? "," : ""
    }
    printf "  },\n"
    printf "  \"snapshot_load\": {\n"
    scsv = sruns
    sub(/,$/, "", scsv)
    printf "    \"runs_ns_op\": [%s],\n", scsv
    printf "    \"median_ns_op\": %s,\n", median(sruns)
    printf "    \"mb_per_s\": %s,\n", median(smbs)
    printf "    \"ns_per_transistor\": %s\n", median(snst)
    printf "  },\n"
    printf "  \"parallel_parse_speedup_at_%s_workers\": %.2f,\n", widest, serial / median(runs[widest])
    printf "  \"snapshot_speedup_vs_serial_parse\": %.2f\n", serial / median(sruns)
    printf "}\n"
}' machine="$MACHINE" degenerate="$degenerate" "$RAW" > "$OUT4"

echo "wrote $OUT4"
cat "$OUT4"

fi # BENCH_ONLY != hier

# BENCH_9.json: the hierarchical-macromodel record (`make bench-hier` runs
# only this section via BENCH_ONLY=hier). Two sections from the same tree:
#   hier_ab — BenchmarkE6HierAB, the interleaved single-worker A/B of
#             hierarchical stamping vs flat analysis on the E6-XL
#             replicated-tile chip (chip:32,10): per-side median wall,
#             wall speedup, and the deterministic stage-evaluation
#             reduction (stamped tile interiors evaluate zero stages —
#             the hardware-independent form of the macromodel win);
#   xl      — BenchmarkHierXL, the chip:64,40 (~2.4M transistor) scale
#             point analyzed hier-on at full parallelism: wall time and
#             live heap after the run, the RSS-sublinearity evidence.
# The stamped-speedup floor (stage_reduction >= 5 on E6-XL) is
# informational: a shortfall warns in the log but does not fail the run.
if [ "${BENCH_ONLY:-all}" != scaling ]; then

OUT9=BENCH_9.json
GOMAXPROCS=$sweep_procs go test -run '^$' -bench 'BenchmarkE6HierAB$' \
    -benchtime 3x -count 1 -timeout 60m . | tee "$RAW"
GOMAXPROCS=$sweep_procs go test -run '^$' -bench 'BenchmarkHierXL$' \
    -benchtime 1x -count 1 -timeout 60m . | tee -a "$RAW"

awk '
/^BenchmarkE6HierAB/ {
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "ns-hier-on")      abon = abon $i ","
        if ($(i + 1) == "ns-hier-off")     aboff = aboff $i ","
        if ($(i + 1) == "speedup")         absp = absp $i ","
        if ($(i + 1) == "stage-reduction") abst = abst $i ","
        if ($(i + 1) == "instances")       abinst = $i
        if ($(i + 1) == "stamped")         abstamp = $i
        if ($(i + 1) == "transistors")     abtrans = $i
    }
}
/^BenchmarkHierXL/ {
    xlns = $3
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "transistors") xltrans = $i
        if ($(i + 1) == "instances")   xlinst = $i
        if ($(i + 1) == "stamped")     xlstamp = $i
        if ($(i + 1) == "heapMB")      xlheap = $i
    }
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    sr = median(abst) + 0
    printf "{\n  \"benchmark\": \"hier_macromodel\",\n"
    printf "  \"machine\": %s,\n", machine
    printf "  \"hier_ab\": {\n"
    printf "    \"interleaved\": true,\n"
    printf "    \"workload\": \"chip:32,10\",\n"
    printf "    \"transistors\": %s,\n", abtrans
    printf "    \"instances\": %s,\n", abinst
    printf "    \"stamped\": %s,\n", abstamp
    printf "    \"median_ns_hier_on\": %s,\n", median(abon)
    printf "    \"median_ns_hier_off\": %s,\n", median(aboff)
    printf "    \"wall_speedup\": %.2f,\n", median(absp) + 0
    printf "    \"stage_reduction\": %.2f,\n", sr
    printf "    \"stamped_speedup_floor\": 5.0,\n"
    printf "    \"floor_met\": %s\n", (sr >= 5.0 ? "true" : "false")
    printf "  },\n"
    printf "  \"xl\": {\n"
    printf "    \"workload\": \"chip:64,40\",\n"
    printf "    \"transistors\": %s,\n", xltrans
    printf "    \"instances\": %s,\n", xlinst
    printf "    \"stamped\": %s,\n", xlstamp
    printf "    \"wall_ns\": %s,\n", xlns
    printf "    \"live_heap_mb\": %s\n", xlheap
    printf "  }\n}\n"
    if (sr < 5.0)
        printf "bench.sh: WARNING: stage_reduction %.2f is below the informational 5.0 floor\n", sr > "/dev/stderr"
}' machine="$MACHINE" "$RAW" > "$OUT9"

echo "wrote $OUT9"
cat "$OUT9"

fi # BENCH_ONLY != scaling
