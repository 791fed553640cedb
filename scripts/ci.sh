#!/bin/sh
# CI gate: build everything, vet, run the test suite under the race
# detector (the experiment engine is concurrent), and compile-check every
# benchmark by running each exactly once.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Formatting gate: every Go file must be gofmt-clean.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

# Deeper lint: staticcheck is pinned by version and fetched through the
# module proxy, so every CI run lints with the same checker instead of
# silently skipping on machines without a matching binary on PATH.
# Air-gapped environments (no module proxy) can opt out explicitly with
# CI_SKIP_STATICCHECK=1 — an opt-out leaves a line in the log, a missing
# binary no longer does.
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2025.1}"
if [ -n "${CI_SKIP_STATICCHECK:-}" ]; then
	echo "CI_SKIP_STATICCHECK set; skipping staticcheck"
elif command -v staticcheck >/dev/null 2>&1 &&
	staticcheck -version 2>/dev/null | grep -q "$STATICCHECK_VERSION"; then
	staticcheck ./...
else
	go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
fi

go test -race ./...

# Replay shares each parsed record among one goroutine per shard, and a
# conflicting push must meet the aggregate it conflicts with however the
# pushes interleave. One race run sees one interleaving, so the replay and
# conflict tests run ten times. So do the tests of the push body read (a
# pooled buffer under a read deadline, on the handler goroutine) and of
# the relay's rule for a frame the upstream folded in part, named one by
# one so that the pattern misses TestRelayTreeFanIn.
go test -race -count=10 -run 'Replay|Conflict' ./internal/collector ./internal/store
go test -race -count=10 -run '^(TestChunkedPushFoldsLikeSized|TestShortBodyRejected|TestKeepAliveAfterDeadline|TestReadBodyBounded|TestSlowClientTimesOut|TestOversizedBodyRejected|TestRelayDropsRefusedItemsOfFoldedFrame|TestIngestKeepsNoPayload)$' ./internal/collector ./internal/store

go test -run='^$' -bench=. -benchtime=1x ./...

# The benchmark harness is a nested module, so ./... above never enters
# it. Its tests show every benchmark correctness check firing, among them
# the exact merged-aggregate check of the query workload.
(cd perfbench && go test .)

# Golden-table regression gate: under the default two-event metric schema
# the paper tables must render byte-identically to the committed
# reference output.
go run ./cmd/experiments -all -scale ref 2>/dev/null | diff ref_results.txt -

# The CCT fast path must stay allocation-free in steady state, at the
# classic two-counter schema width (the N=4/8 variants track wider metric
# sets). This run also refreshes BENCH_cct.json (TestMain splits CCT
# records out of the experiment log).
out="$(go test -run='^$' -bench='BenchmarkCCT' -benchmem -benchtime=1000x .)"
echo "$out"
echo "$out" | grep 'BenchmarkCCTEnterExit/N=2' | grep -q ' 0 allocs/op'

# Hashed k-path counting must also be allocation-free in steady state: the
# NumPathsK-derived pre-size hint has to absorb the combinatorially larger
# k-path id space without rehashing in the hot loop (k=3 is the widest row).
echo "$out" | grep 'BenchmarkCCTHashedKPaths/k=3' | grep -q ' 0 allocs/op'

# The simulator must stay allocation-free in every instruction class, both
# in the block loop that Run drives (BenchmarkBlockDispatch: one Run over a
# step budget) and through the single-step wrapper (BenchmarkStepDispatch).
out="$(go test -run='^$' -bench='BenchmarkStepDispatch|BenchmarkBlockDispatch' -benchmem -benchtime=100000x .)"
echo "$out"
for bench in BenchmarkStepDispatch BenchmarkBlockDispatch; do
	test "$(echo "$out" | grep -c "^$bench/")" -eq 5
	if echo "$out" | grep "^$bench/" | grep -v ' 0 allocs/op'; then
		echo "$bench allocates"
		exit 1
	fi
done

# Wire codec throughput and end-to-end collector ingest. TestMain splits
# Wire records into BENCH_wire.json; the ingest benchmark exercises the
# whole collection tier (encode, HTTP POST, decode, sharded merge).
# Encoding one envelope as a one-item frame into a reused writer must
# stay allocation-free, for a profile and for a CCT export.
out="$(go test -run='^$' -bench='BenchmarkWire' -benchmem -benchtime=100x .)"
echo "$out"
echo "$out" | grep -q 'BenchmarkWireIngest'
echo "$out" | grep 'BenchmarkWireEncodeProfile' | grep -q ' 0 allocs/op'
echo "$out" | grep 'BenchmarkWireEncodeCCT' | grep -q ' 0 allocs/op'
test -s BENCH_wire.json

# Batched ingest: regenerate BENCH_ingest.json and gate the wire-v3
# decode-to-shard loop on staying allocation-free in steady state. A push
# is read into a pooled buffer, so a whole batched POST, client and
# server, may allocate at most twice its frame (frame-B) in B/op.
out="$(go test -run='^$' -bench='BenchmarkIngest' -benchmem -benchtime=200x .)"
echo "$out"
echo "$out" | grep 'BenchmarkIngestFrameFold' | grep -q ' 0 allocs/op'
echo "$out" | awk '$1 ~ /^BenchmarkIngestBatchPOST(-[0-9]+)?$/ {
		for (i = 2; i <= NF; i++) { if ($i == "B/op") b = $(i-1); if ($i == "frame-B") f = $(i-1) } }
	END { printf "BenchmarkIngestBatchPOST: %d B/op for a %d-byte frame\n", b, f;
		exit (f > 0 && b <= 2 * f) ? 0 : 1 }'
test -s BENCH_ingest.json

# The v3 item decoders on their own must stay allocation-free as well:
# parsing a 64-item frame of real flow+hw, ctx+flow and k=2 envelopes and
# decoding every item into reused scratch.
out="$(go test -run='^$' -bench='BenchmarkWireFrameDecode' -benchmem -benchtime=200x ./internal/wire)"
echo "$out"
echo "$out" | grep 'BenchmarkWireFrameDecode' | grep -q ' 0 allocs/op'

# Table queries answer from per-program views until a fold changes the
# program, and a view keeps its rows' formatted cells: a warm whole-table
# read of each of /table/3, /4, /5 and /metrics only pads and joins
# cached strings, so it must allocate at most a tenth of what the same
# read allocates when every row has to be derived and formatted again.
out="$(go test -run='^$' -bench='BenchmarkTableQuery' -benchmem -benchtime=20x .)"
echo "$out"
allocs() { echo "$out" | awk -v b="$1" '$1 ~ b { for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }'; }
for table in table3 table4 table5 table_metrics; do
	warm="$(allocs "^BenchmarkTableQuery/warm/$table(-[0-9]+)?\$")"
	cold="$(allocs "^BenchmarkTableQuery/afterFold/$table(-[0-9]+)?\$")"
	awk -v t="$table" -v w="$warm" -v c="$cold" 'BEGIN { printf "%s allocs/op: warm %d, after a fold %d\n", t, w, c;
		exit (w > 0 && c > 0 && 10 * w <= c) ? 0 : 1 }'
done

# Fan-in load smoke: a scaled-down producer fleet through a two-level
# relay tree must reproduce the local ground-truth tables byte for byte
# (the full 10k-producer run is the test's default outside CI).
PPD_FANIN_PRODUCERS=2000 go test -run='^TestRelayTreeFanIn$' -count=1 ./internal/collector

# Crash-injection smoke: a child-process durable collector is SIGKILLed
# three times mid-ingest (with snapshots and compactions forced between
# kills) and the recovered tables must be byte-identical to an
# uninterrupted in-memory run. Scaled down from the 1000-envelope
# acceptance run; the full size is the test's default outside CI.
PPD_CRASH_COPIES=75 go test -run='^TestCrashRecoveryByteIdentity$' -count=1 ./internal/collector

# Group-commit throughput gate: with the same modeled fsync latency,
# batched commits must move envelopes at >= 10x the per-record-fsync
# rate (the whole point of the batcher). Refreshes BENCH_store.json.
out="$(go test -run='^$' -bench='BenchmarkStoreAppendFsync' -benchtime=1s .)"
echo "$out"
test -s BENCH_store.json
grp="$(echo "$out" | awk '/groupCommit/ {print $3}')"
per="$(echo "$out" | awk '/perRecordFsync/ {print $3}')"
awk -v g="$grp" -v p="$per" 'BEGIN { ratio = p / g;
	printf "group-commit speedup: %.1fx\n", ratio;
	exit (ratio >= 10) ? 0 : 1 }'

# Offline tools: pp saves runs as wire-v3 frames, and ppreport folds
# frames through the collector's aggregate fold, writes the merge as a
# frame, and reports every program of a saved frame.
tmp="$(mktemp -d)"
go run ./cmd/pp -workload strhash,objdb -mode combined -out "$tmp/a.frame"
go run ./cmd/ppreport -in "$tmp/a.frame,$tmp/a.frame" -out "$tmp/m.frame"
go run ./cmd/ppreport -in "$tmp/m.frame"
rm -r "$tmp"

# Static instrumentation verification: ppvet must find nothing across every
# workload x instrumentation mode, under both the classic two-event schema
# and a four-event MetricSet (exercising the N-counter save/restore and
# accumulator layouts).
go run ./cmd/ppvet -workload all -mode all -events dcache-miss,insts
go run ./cmd/ppvet -workload all -mode all -events dcache-miss,icache-miss,mispredict,insts

# k-iteration sweep: at path degrees 2 and 3 the k-bijection prover
# (segment enumeration, backedge seed consistency, chain-composition
# bijection) and the counter save/restore proofs must still find nothing.
go run ./cmd/ppvet -workload all -mode all -events dcache-miss,insts -k 2
go run ./cmd/ppvet -workload all -mode all -events dcache-miss,insts -k 3

# Static translation validation: every pgo ladder candidate's rewrite of
# every workload must be proved semantics-preserving by internal/tv, with
# zero findings, at path degrees 1 and 2 (k=2 profiles change which
# superblocks form, so both witness shapes are exercised). This is the
# static gate; RoundTrip's byte-equivalence re-run below stays as the
# differential backstop.
go run ./cmd/ppvet -tv
go run ./cmd/ppvet -tv -k 2

# Decoder hardening: the fuzz targets must survive a short smoke run
# (corrupt and truncated input may error, never panic). FuzzIngest also
# requires that an item the collector rejects leaves every merged
# aggregate byte-identical. Saved runs are frames too, so these two also
# cover the decode and fold behind ppreport -in.
#
# Every smoke passes -fuzzminimizetime=1x. Go minimizes each input that
# finds new coverage, for up to 60 s per input by default, and the execs
# counter does not advance meanwhile, so a 5 s smoke could spend most of
# its time minimizing (FuzzDecode stalled at about 3 s). A crasher still
# fails the run, unminimized.
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s -fuzzminimizetime=1x ./internal/wire
go test -run='^$' -fuzz='^FuzzIngest$' -fuzztime=5s -fuzzminimizetime=1x ./internal/collector
go test -run='^$' -fuzz='^FuzzSegmentReplay$' -fuzztime=5s -fuzzminimizetime=1x ./internal/store

# Differential instrumentation fuzz: random testgen programs, instrumented
# in every mode at path degrees k in {1,2,3}, must verify clean (any
# finding is an instrumenter or checker bug).
go test -run='^$' -fuzz='^FuzzVet$' -fuzztime=5s -fuzzminimizetime=1x ./internal/ppvet

# Differential optimizer fuzz: random programs through every pgo variant
# must stay behaviorally identical to their baselines.
go test -run='^$' -fuzz='^FuzzOptimize$' -fuzztime=5s -fuzzminimizetime=1x ./internal/pgo

# Differential validator fuzz: mutated optimized programs and witnesses
# must either be rejected by tv or still run with baseline-identical
# output (a clean-accepted behavioral change is a validator soundness
# hole; a panic is a robustness bug).
go test -run='^$' -fuzz='^FuzzTV$' -fuzztime=5s -fuzzminimizetime=1x ./internal/tv

# Profile-guided optimization gate: the closed loop (profile -> optimize ->
# verify -> re-measure) must show strict cycle reductions with
# non-increasing I-cache misses and mispredicts on the gated workloads,
# and refresh BENCH_pgo.json. RoundTrip hard-fails on any behavioral
# divergence, so a passing gate also certifies output equivalence.
go run ./cmd/experiments -pgo -scale test -pgo-gate interp,compress,turbulence
test -s BENCH_pgo.json
