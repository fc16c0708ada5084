# Repository CI entry points. `make ci` is the gate: formatting, vet,
# build, tests (including the race detector), and end-to-end smoke runs
# of the benchmark tables and the tracing pipeline.

GO ?= go

.PHONY: ci fmt vet build test race smoke trace-smoke fault-smoke recovery-smoke coalesce-smoke scale-smoke workers-smoke serve-smoke chaos-smoke peer-smoke rdma-smoke bench-gate bench-smoke bench

ci: fmt vet build test race smoke trace-smoke fault-smoke recovery-smoke coalesce-smoke scale-smoke workers-smoke serve-smoke chaos-smoke peer-smoke rdma-smoke bench-gate bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

smoke:
	$(GO) run ./cmd/vbbench -table 1 -quick
	$(GO) run ./cmd/vbbench -table 1 -quick -fabric ideal > /dev/null
	$(GO) run ./cmd/vbcc -passes testdata/jacobi.f > /dev/null

# Run a traced program end to end and validate that the exported
# Chrome trace-event JSON parses (vbtrace exits non-zero otherwise).
trace-smoke:
	$(GO) run ./cmd/vbrun -trace /tmp/vbus-trace-smoke.json -profile -mode timing testdata/jacobi.f > /dev/null
	$(GO) run ./cmd/vbtrace /tmp/vbus-trace-smoke.json
	@rm -f /tmp/vbus-trace-smoke.json

# Determinism gate for the fault injector: the same seeded fault spec
# must produce byte-identical output across two runs.
fault-smoke:
	$(GO) run ./cmd/vbrun -faults 'seed=1,flitdrop=1e-3' testdata/matmul.f > /tmp/vbus-fault-a.txt
	$(GO) run ./cmd/vbrun -faults 'seed=1,flitdrop=1e-3' testdata/matmul.f > /tmp/vbus-fault-b.txt
	cmp /tmp/vbus-fault-a.txt /tmp/vbus-fault-b.txt
	@rm -f /tmp/vbus-fault-a.txt /tmp/vbus-fault-b.txt

# Crash-survival gate: the checkpoint serializer must be race-clean,
# and a seeded mid-run rank crash under -resilient must recover with
# program output byte-identical to the fault-free resilient run (the
# timing/resilience footer lines differ, so only the program text is
# diffed). The crashed run's exported timeline must also validate,
# including its checkpoint and recovery intervals.
recovery-smoke:
	$(GO) test -race ./internal/ckpt
	$(GO) run ./cmd/vbrun -resilient testdata/matmul.f | sed '/^---/d' > /tmp/vbus-recovery-clean.txt
	$(GO) run ./cmd/vbrun -resilient -faults 'seed=0,crashafter=1/5' -trace /tmp/vbus-recovery.json testdata/matmul.f | sed '/^---/d' > /tmp/vbus-recovery-crash.txt
	cmp /tmp/vbus-recovery-clean.txt /tmp/vbus-recovery-crash.txt
	$(GO) run ./cmd/vbtrace /tmp/vbus-recovery.json > /dev/null
	@rm -f /tmp/vbus-recovery-clean.txt /tmp/vbus-recovery-crash.txt /tmp/vbus-recovery.json

# Pack-and-coalesce gate: the quick crossover sweep must verify its
# payloads on both paths (CoalSweep fails otherwise), a coalesced run
# of the strided kernel must print the same program text as the plain
# run, and its exported timeline — with put.p/get.p bursts on the pack
# transport — must validate under vbtrace's pack-class pinning.
coalesce-smoke:
	$(GO) run ./cmd/vbbench -coalsweep -quick > /dev/null
	$(GO) run ./cmd/vbrun testdata/stride.f | sed '/^---/d' > /tmp/vbus-coal-plain.txt
	$(GO) run ./cmd/vbrun -coalesce -trace /tmp/vbus-coal.json testdata/stride.f | sed '/^---/d' > /tmp/vbus-coal-on.txt
	cmp /tmp/vbus-coal-plain.txt /tmp/vbus-coal-on.txt
	grep -q '"cat":"pack"' /tmp/vbus-coal.json
	$(GO) run ./cmd/vbtrace /tmp/vbus-coal.json > /dev/null
	@rm -f /tmp/vbus-coal-plain.txt /tmp/vbus-coal-on.txt /tmp/vbus-coal.json

# Scale gate: a 64-rank MM weak-scaling point on the 3D-torus fabric
# must complete under the race detector inside a 512 MB memory budget
# (runtime.MemStats), and a vbus3d run's exported timeline must
# validate against its pinned rank count and geometry.
scale-smoke:
	$(GO) test -race -run TestScaleSmoke ./internal/bench
	$(GO) run ./cmd/vbrun -fabric vbus3d -mode timing -trace /tmp/vbus-3d-smoke.json testdata/jacobi.f > /dev/null
	$(GO) run ./cmd/vbtrace -ranks 4 -dims 2x2x1 /tmp/vbus-3d-smoke.json > /dev/null
	@rm -f /tmp/vbus-3d-smoke.json

# Worker-pool gate: program output must be byte-identical with one
# worker, the default pool (GOMAXPROCS) and the legacy unpooled
# launcher.
workers-smoke:
	$(GO) run ./cmd/vbrun -workers 1 testdata/matmul.f > /tmp/vbus-w1.txt
	$(GO) run ./cmd/vbrun testdata/matmul.f > /tmp/vbus-wn.txt
	$(GO) run ./cmd/vbrun -workers -1 testdata/matmul.f > /tmp/vbus-wu.txt
	cmp /tmp/vbus-w1.txt /tmp/vbus-wn.txt
	cmp /tmp/vbus-w1.txt /tmp/vbus-wu.txt
	@rm -f /tmp/vbus-w1.txt /tmp/vbus-wn.txt /tmp/vbus-wu.txt

# Service gate: a race-built vbserve must accept the example MM job
# twice over HTTP (the second as a plan-cache hit), then drain clean on
# SIGTERM with exit status 0.
serve-smoke:
	$(GO) build -race -o /tmp/vbserve-smoke ./cmd/vbserve
	/tmp/vbserve-smoke -addr 127.0.0.1:18807 -clusters 2 & \
	pid=$$!; \
	sleep 1; \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18807/v1/jobs?wait=1' > /tmp/vbus-serve-1.json && \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18807/v1/jobs?wait=1' > /tmp/vbus-serve-2.json && \
	grep -q '"cache_hit": false' /tmp/vbus-serve-1.json && \
	grep -q '"cache_hit": true' /tmp/vbus-serve-2.json && \
	grep -q '"state": "done"' /tmp/vbus-serve-2.json && \
	kill -TERM $$pid && wait $$pid
	@rm -f /tmp/vbserve-smoke /tmp/vbus-serve-1.json /tmp/vbus-serve-2.json

# Robustness gate: the jobs layer's hardening tests under the race
# detector, the seeded chaos sweep (poison specs, worker kills,
# deadline storms, rate-limit floods — every invariant asserted), and
# an end-to-end daemon exercise: a poison job fails without taking the
# server down, a stalled job is cancelled at its deadline, SIGTERM
# journals the plan cache, and the restarted server answers the same
# job from the warmed cache.
chaos-smoke:
	$(GO) test -race ./internal/jobs
	$(GO) run ./cmd/vbbench -chaossweep -chaosout '' > /dev/null
	$(GO) build -race -o /tmp/vbserve-chaos ./cmd/vbserve
	sed 's/"tenant": "demo",/"tenant": "demo", "faults": "panicjob=1",/' examples/serve_mm.json > /tmp/vbus-chaos-poison.json
	sed 's/"tenant": "demo",/"tenant": "demo", "faults": "stalljob=10s", "deadline_ms": 200,/' examples/serve_mm.json > /tmp/vbus-chaos-stall.json
	rm -f /tmp/vbus-chaos.vbpj
	/tmp/vbserve-chaos -addr 127.0.0.1:18809 -clusters 2 -cache-journal /tmp/vbus-chaos.vbpj & \
	pid=$$!; \
	sleep 1; \
	curl -sf 'http://127.0.0.1:18809/healthz/ready' > /dev/null && \
	curl -sf -X POST --data @/tmp/vbus-chaos-poison.json 'http://127.0.0.1:18809/v1/jobs?wait=1' | grep -q '"state": "failed"' && \
	curl -sf -X POST --data @/tmp/vbus-chaos-stall.json 'http://127.0.0.1:18809/v1/jobs?wait=1' | grep -q '"state": "cancelled"' && \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18809/v1/jobs?wait=1' | grep -q '"state": "done"' && \
	curl -sf 'http://127.0.0.1:18809/healthz/live' > /dev/null && \
	kill -TERM $$pid && wait $$pid
	test -s /tmp/vbus-chaos.vbpj
	/tmp/vbserve-chaos -addr 127.0.0.1:18809 -clusters 2 -cache-journal /tmp/vbus-chaos.vbpj & \
	pid=$$!; \
	sleep 1; \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18809/v1/jobs?wait=1' > /tmp/vbus-chaos-warm.json && \
	grep -q '"cache_hit": true' /tmp/vbus-chaos-warm.json && \
	grep -q '"state": "done"' /tmp/vbus-chaos-warm.json && \
	kill -TERM $$pid && wait $$pid
	@rm -f /tmp/vbserve-chaos /tmp/vbus-chaos-poison.json /tmp/vbus-chaos-stall.json /tmp/vbus-chaos.vbpj /tmp/vbus-chaos-warm.json

# Federation gate: the peer package under the race detector, the
# seeded three-peer sweep (forwarding, mid-run kill, failover and
# rebalance claims asserted), then an end-to-end ring of three
# race-built daemons: a job submitted through node 1 executes at its
# ring owner (the X-VBus-Peer header names it), the same job through
# node 2 is a warm hit at that owner, the owner is then kill -9'd and
# a submission through a survivor still completes, after which the
# survivor's /healthz/ready reports the victim "dead". The remaining
# daemons drain clean on SIGTERM.
peer-smoke:
	$(GO) test -race ./internal/peer
	$(GO) run ./cmd/vbbench -peersweep -peerout '' > /dev/null
	$(GO) build -race -o /tmp/vbserve-peer ./cmd/vbserve
	PEERS=127.0.0.1:18811,127.0.0.1:18812,127.0.0.1:18813; \
	/tmp/vbserve-peer -addr 127.0.0.1:18811 -self 127.0.0.1:18811 -peers $$PEERS -gossip-interval 100ms -clusters 2 & p1=$$!; \
	/tmp/vbserve-peer -addr 127.0.0.1:18812 -self 127.0.0.1:18812 -peers $$PEERS -gossip-interval 100ms -clusters 2 & p2=$$!; \
	/tmp/vbserve-peer -addr 127.0.0.1:18813 -self 127.0.0.1:18813 -peers $$PEERS -gossip-interval 100ms -clusters 2 & p3=$$!; \
	sleep 1; \
	curl -sf -D /tmp/vbus-peer-h1.txt -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18811/v1/jobs?wait=1' | grep -q '"state": "done"' && \
	curl -sf -X POST --data @examples/serve_mm.json 'http://127.0.0.1:18812/v1/jobs?wait=1' | grep -q '"cache_hit": true' && \
	owner=$$(grep -i '^x-vbus-peer:' /tmp/vbus-peer-h1.txt | tr -d '\r' | awk '{print $$2}'); \
	echo "peer-smoke: ring owner is $$owner"; \
	case "$$owner" in \
	  *18811) opid=$$p1; entry=127.0.0.1:18812;; \
	  *18812) opid=$$p2; entry=127.0.0.1:18813;; \
	  *18813) opid=$$p3; entry=127.0.0.1:18811;; \
	  *) echo "peer-smoke: unknown owner '$$owner'"; kill $$p1 $$p2 $$p3 2>/dev/null; exit 1;; \
	esac; \
	kill -9 $$opid && \
	curl -sf -X POST --data @examples/serve_mm.json "http://$$entry/v1/jobs?wait=1" | grep -q '"state": "done"' && \
	sleep 2 && \
	curl -sf "http://$$entry/healthz/ready" | grep -q '"dead"' && \
	ok=0 || ok=1; \
	for p in $$p1 $$p2 $$p3; do [ "$$p" = "$$opid" ] || kill -TERM $$p 2>/dev/null; done; \
	for p in $$p1 $$p2 $$p3; do [ "$$p" = "$$opid" ] || wait $$p || ok=1; done; \
	exit $$ok
	@rm -f /tmp/vbserve-peer /tmp/vbus-peer-h1.txt

# Protocol gate: the eager/rendezvous stack under the race detector,
# the quick protocol sweep (every in-sweep assertion checks a measured
# time against the model to the picosecond), then an end-to-end rdma
# run: program text byte-identical to the default-fabric run, and the
# exported timeline — with eager-transport transfers — validating under
# vbtrace's protocol-class pinning.
rdma-smoke:
	$(GO) test -race -run 'Rdma|RDMA|Protocol|RegCache' ./internal/nic ./internal/interconnect ./internal/mpi ./internal/core
	$(GO) run ./cmd/vbbench -rdmasweep -quick -rdmaout '' > /dev/null
	$(GO) run ./cmd/vbrun testdata/jacobi.f | sed '/^---/d' > /tmp/vbus-rdma-plain.txt
	$(GO) run ./cmd/vbrun -fabric rdma -trace /tmp/vbus-rdma.json testdata/jacobi.f | sed '/^---/d' > /tmp/vbus-rdma-on.txt
	cmp /tmp/vbus-rdma-plain.txt /tmp/vbus-rdma-on.txt
	grep -q '"cat":"eager"' /tmp/vbus-rdma.json
	$(GO) run ./cmd/vbtrace /tmp/vbus-rdma.json > /dev/null
	@rm -f /tmp/vbus-rdma-plain.txt /tmp/vbus-rdma-on.txt /tmp/vbus-rdma.json

# Performance gate: the core baseline must stay within 10% of the
# checked-in BENCH_core.json (best of 3 runs absorbs host noise).
bench-gate:
	$(GO) run ./cmd/vbbench -benchgate

# Interpreter- and rank-scheduling-layer benchmarks, run once each so
# they keep compiling and running (numbers are recorded in
# EXPERIMENTS.md, not gated here).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkInterp|BenchmarkBarrier1024' -benchtime 1x -benchmem ./internal/interp

bench:
	$(GO) test -bench=. -benchmem .
