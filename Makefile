# Single source of truth for build/check commands: CI runs exactly these
# targets, so a green `make lint test race chaos` locally means a green CI.
# Only CI's lint job vets (`make lint` = fmt + vet + staticcheck).

GO ?= go

.PHONY: all build test race vet fmt lint staticcheck vuln chaos ctl soak fs-soak fuzz model-check results-check recovery-sweep bench-check bench-gate loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs the toolchain's vet twice: the second pass adds the soak build
# tag, so the tag-gated transport soak harness is type-checked and vetted
# too. The conventions a custom analyzer once argued (codec completeness,
# seed purity, lock discipline) are executed tests now: DESIGN.md §10.
vet:
	$(GO) vet ./...
	$(GO) vet -tags soak ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

lint: fmt vet staticcheck

# staticcheck and govulncheck are optional locally (the container may
# not have them); CI installs both, so findings still block merges.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "staticcheck not installed; skipped (CI runs it)"; fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "govulncheck not installed; skipped (CI runs it)"; fi

# chaos is the CI smoke: five seeds of in-process crash + fault
# injection + wire recovery against the real TCP runtime, each with the
# default fault window and with a 1200ms one. The window sets where the
# drain after it falls against the crash; the logged-sends-delivered
# invariant counts the re-sends that drain carries to the restarted victim.
# A run's stdout (schedule, restarts, invariant verdicts) is a function of
# its seed and window, so each must equal its golden under
# cmd/ocsmld/testdata/chaos/ byte for byte; stderr's fault counts follow
# timing and are not compared. After a change that is meant to move the
# report, regenerate the goldens with CHAOS_REGEN=1.
CHAOS_GOLDEN = cmd/ocsmld/testdata/chaos

chaos:
	$(GO) build -o /tmp/ocsmld ./cmd/ocsmld
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	for seed in 1 2 3 4 5; do for window in default 1200ms; do \
		golden=$(CHAOS_GOLDEN)/seed$$seed-$$window.txt; \
		case $$window in default) flags="";; *) flags="-chaos-for $$window";; esac; \
		/tmp/ocsmld -chaos -seed $$seed $$flags > "$$out" || { cat "$$out"; exit 1; }; \
		cat "$$out"; \
		if [ -n "$(CHAOS_REGEN)" ]; then cp "$$out" $$golden; \
		else diff -u $$golden "$$out" || { echo "chaos: seed $$seed ($$window) differs from $$golden"; exit 1; }; fi; \
	done; done

# ctl is the control-plane smoke: three real ocsmld daemons with
# -admin-addr, driven by the real ocsmlctl binary (trigger a round,
# poll it durable, scrape /metrics), then SIGTERM'd to exit 0 — and a
# -spawn-all cluster SIGTERM'd mid-run, which must take the same stop.
ctl:
	$(GO) test -run 'TestDaemonControlPlane|TestSpawnAllSigterm' -v ./cmd/ocsmld/

# soak mirrors .github/workflows/soak.yml; tune with SOAK_SEED_BASE,
# SOAK_SEEDS, SOAK_FAULT_MS, SOAK_ARTIFACT_DIR.
soak:
	$(GO) test -race -tags soak -timeout 20m -run TestSoak -v ./internal/transport/

# fs-soak repeats the store's fault sweep, concurrency and crash-point
# tests under the race detector: an interleaving bug there can need tens
# of runs to show (PR 20's GC-floor bug: about 1 in 40 of
# TestStoreConcurrentUse, and in nothing else). The nightly soak runs it.
fs-soak:
	$(GO) test -race -count=30 -run 'TestEveryFaultSurfaces|TestStoreConcurrentUse|TestLostHintMatrix|TestCrashPointMatrix|TestCommitAndOpenDirectoryOps|TestScanRacesWriter|TestGCToFsyncsOnlyOnUnlink' ./internal/fsstore/

fuzz:
	$(GO) test -fuzz FuzzWireRoundTrip -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeV2 -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzRecordRoundTrip -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzReadJSON -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzCheckEvents -fuzztime 30s ./internal/trace/

# model-check is the bounded model-checking gate (DESIGN.md §16). First
# the differential test, at its full bounds, ties the model to the code:
# internal/core must agree with it step for step, and must stop agreeing
# when the model runs a mutation. Then the theorems are checked on it: the
# faithful protocol model must explore clean over every interleaving at
# N=2..MODEL_N, every mutation fixture (drop-log, reorder-finalize,
# skip-consume, forget-join) must yield a counterexample trace, and each
# trace must replay under tracecheck exhibiting the claimed orphan /
# replay-gap / unheld-join / Z-cycle violation (tracecheck exiting 1 is
# the expected outcome per trace). Last, tracecheck must also pass what is
# correct, so a checker that flags everything fails the gate: a simulated
# trace of every coordinated protocol (OCSML also with a crash and
# rollback) must exit 0 with one "consistent" line per S_k the simulator
# verified and no Z-cycle (the crashed run must also report the recovery
# it executed, to a line >= 1: with 16 MiB images on the shared server S_1
# is stable on every process only at 3.3 s, so a crash before that
# correctly rolls back to S_0), and an uncoordinated trace must show a
# Z-cycle.
# PR CI runs the small default bounds (~5 s); the nightly soak passes
# MODEL_INITS=2 for the full sweep (~1 min).
MODEL_N ?= 3
MODEL_MSGS ?= 4
MODEL_INITS ?= 1
MODEL_CRASHES ?= 1
MODEL_OUT ?= model-traces

model-check:
	$(GO) test -run 'TestDifferential' -count=1 ./internal/protomodel
	$(GO) build -o bin/ocsmlcheck ./cmd/ocsmlcheck
	$(GO) build -o bin/tracecheck ./cmd/tracecheck
	rm -rf $(MODEL_OUT) && mkdir -p $(MODEL_OUT)
	bin/ocsmlcheck -n $(MODEL_N) -msgs $(MODEL_MSGS) -inits $(MODEL_INITS) \
		-crashes $(MODEL_CRASHES) -out $(MODEL_OUT)
	@for f in $(MODEL_OUT)/cex-*.jsonl; do \
		if bin/tracecheck -n 2 -replay -zcycle $$f >/dev/null; then \
			echo "$$f: tracecheck reproduced NO violation"; exit 1; \
		else echo "$$f: violation reproduced under tracecheck"; fi; \
	done
	$(GO) build -o bin/ckptsim ./cmd/ckptsim
	@for run in ocsml "ocsml -fail-at 4s" chandy-lamport koo-toueg staggered bcs-cic; do \
		f=$(MODEL_OUT)/ok-$$(echo $$run | tr -c 'a-z0-9\n' '-').jsonl; \
		sim=$$(bin/ckptsim -proto $$run -n 6 -steps 400 -interval 1s -trace-out $$f); \
		want=$$(printf '%s\n' "$$sim" | sed -n 's/^global checkpoints *//p'); \
		case "$$run" in *-fail-at*) \
			line=$$(printf '%s\n' "$$sim" | sed -n 's/^recovery *line=\([0-9]*\) .*/\1/p'); \
			if [ "$${line:-0}" -lt 1 ]; then printf '%s\n' "$$sim" | grep '^recovery'; \
				echo "$$f: ckptsim reported no executed recovery to a line >= 1"; exit 1; fi; \
			echo "$$f: recovery executed to S_$$line";; \
		esac; \
		out=$$(bin/tracecheck -n 6 -zcycle $$f) || { echo "$$out"; echo "$$f: tracecheck flagged a correct trace"; exit 1; }; \
		got=$$(printf '%s\n' "$$out" | grep -c '^S_[0-9 ]* consistent '); \
		if [ "$$got" != "$$want" ]; then echo "$$f: $$got consistent S_k, the simulator verified $$want"; exit 1; fi; \
		echo "$$f: $$got S_k consistent, no Z-cycle"; \
	done
	@f=$(MODEL_OUT)/uncoordinated.jsonl; \
	bin/ckptsim -proto uncoordinated -n 6 -steps 400 -interval 1s -trace-out $$f >/dev/null; \
	if bin/tracecheck -n 6 -zcycle $$f | grep -q '^zcycle: Z-CYCLE'; then echo "$$f: Z-cycle reported"; \
	else echo "$$f: tracecheck reported no Z-cycle in an uncoordinated trace"; exit 1; fi

# results-check is the DES regression gate: the checked-in results/*.csv
# are a pure function of the simulator (fixed seeds, virtual time), so a
# refactor of the engine or the shared process host must regenerate
# every E1-E11 / A1-A4 table byte for byte (~11 s).
RESULTS_IDS = E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,A1,A2,A3,A4

results-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -id $(RESULTS_IDS) -csv "$$tmp" >/dev/null && \
	diff -r "$$tmp" results && echo "results/*.csv reproduce byte-identical"

# recovery-sweep is the DES recovery gate: one crash per seeded run, seeds
# 1-RECOVERY_SEEDS at N = 3 and 6, each recovering through the RB_*
# handshake (engine.TestRecoverySweep). Every run must complete; both runs
# of a seed must leave one trace fingerprint; every S_k must be consistent
# (CheckAllGlobals); and every logged send of the line must be processed
# exactly once in the new epoch, or not at all when its receiver's line
# holds it (about 12 s). Tier-1 `go test` runs seeds 1-20 of the same test.
RECOVERY_SEEDS ?= 500

recovery-sweep:
	RECOVERY_SWEEP_SEEDS=$(RECOVERY_SEEDS) $(GO) test -count=1 -run '^TestRecoverySweep$$' ./internal/engine/

# bench-check builds, vets and short-tests the nested benchmark module
# (bench/_src, its own go.mod): tier-1 `go ./...` never compiles it, so
# without this a change to internal/transport, wire or fsstore that
# breaks the benchmark would only surface in the benchmark run.
bench-check:
	cd bench/_src && $(GO) vet ./... && $(GO) test -short ./...

# bench-gate runs all four of the benchmark's workloads and checks what does
# not depend on how fast the host is: ckpt-storm for the benchmark's 20 s
# window, the others for 5 s each. The storage-bound one:
# the outputs are correct, no operation failed, and a durable round costs
# exactly four fsyncs at N = 4 — one per process's commit and nothing else.
# Two ceilings on the same run guard "a checkpoint costs its own bytes, not
# the history's, and nothing beside the log", each failing once the cost
# creeps with the round number again: stable_bytes_per_round <= 400 (290
# to 330 here: the four records' frames and nothing else; a file of about
# 71 B rewritten beside the log by every commit would add about 284 a round
# and fail it; about 675 when a logged message carried two timestamps and
# absolute IDs, about 1,850 when records were framed as JSON) and
# peak_rss_mb <= 32 (the run's total allocation, the collector being off:
# about 26 over the 20 s window here; 32 while every node built kept about
# 250 KiB of empty queue, 57 over 5 s when every flush copied the
# process's whole checkpoint store). A round's records
# hold the messages logged while it was open, and how long it stays open
# follows the host's speed: four CPU burners beside a 5 s window raised
# the logged messages per round from 3.4-4.1 to 5.2-5.8 and the bytes from
# about 290 to 308-327, and one 5 s window run straight after `make race`
# read 430. The 20 s window averages such a stretch out. Then crash-recover,
# the only workload that executes kill -> RB_* handshake -> truncate ->
# replay end to end (about three cycles): correct, no operation failed, and
# peak_rss_mb <= 20 (about 16 here; about 24 while each of the nodes it
# builds, the recovered victims among them, kept about 250 KiB of empty
# queue: a 64 KiB channel per peer, a 64 KiB inbox and a 32 KiB storage
# queue from its creation, whatever they held).
# Then steady-uniform, where a message's acknowledgement rides in the header
# of the next frame going back: correct, no operation failed, and "a
# message pays for its piggyback, not its envelope, nor its own ACK" —
# wire_bytes_per_app_msg <= 20 (about 16 here; about 28 with format 4's
# envelope header, whose version byte, Src, Dst, Bytes and SentAt no
# receiver reads, and whose unchanged piggyback cost 4 B, not 1; about 38
# with one ACK frame per message, so a return to per-message ACKs fails;
# about 74.5 with absolute headers, literal control tags and a 4-byte
# length prefix) — and "a message costs no heap, nor a node its queues'
# bound": peak_rss_mb <= 20 (the run's total allocation with the collector
# off: about 16 here; about 23 with about 250 KiB of empty queue per node
# built, 36 when each send also boxed a fresh envelope, piggyback and
# timer closure, 56 when the receive path decoded into fresh envelopes
# too). Last saturate-ring, the closed loop: correct, no operation failed,
# wire_bytes_per_app_msg <= 16 (about 13 here, without reliable's link
# block; about 23 with format 4's envelope header), and peak_rss_mb <= 200
# (about 80 here, most of it the benchmark's own latency samples, so it
# follows how many messages the window completes; 488, at the
# benchmark's 512 MiB limit, when every send allocated). The ring has no
# stable_bytes_per_round ceiling: a round's records hold the messages
# logged while it was open, and on the closed ring how many that is
# follows the host's speed.
bench-gate:
	@gate() { workload="$$1"; secs="$$2"; shift 2; \
		out="$$(bash bench/run.sh --workload "$$workload" --seed 1 --seconds "$$secs" | tail -n 1)"; \
		echo "$$out"; \
		for want in '"correct":true' '"failed":0,' "$$@"; do \
			case "$$out" in *"$$want"*) ;; *) echo "bench-gate: the last line of $$workload lacks $$want"; exit 1;; esac; \
		done; }; \
	ceiling() { v="$$(printf '%s' "$$out" | sed -n 's/.*"'"$$1"'":{"value":\([0-9.eE+-]*\).*/\1/p')"; \
		awk -v v="$$v" -v max="$$2" 'BEGIN { exit !(v != "" && v + 0 <= max) }' || \
			{ echo "bench-gate: $$workload $$1 = $$v, over its ceiling of $$2"; exit 1; }; }; \
	gate ckpt-storm 20 '"fsyncs_per_round":{"value":4,' && \
		ceiling stable_bytes_per_round 400 && ceiling peak_rss_mb 32 && \
		gate crash-recover 5 && ceiling peak_rss_mb 20 && \
		gate steady-uniform 5 && ceiling wire_bytes_per_app_msg 20 && ceiling peak_rss_mb 20 && \
		gate saturate-ring 5 && ceiling wire_bytes_per_app_msg 16 && ceiling peak_rss_mb 200

# loc prints the size figure PRs quote: non-test Go lines outside the
# nested benchmark module and testdata. CI's test job prints it
# too, so the number has one definition.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
