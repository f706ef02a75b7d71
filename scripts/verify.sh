#!/bin/sh
# Repository verification: the tier-1 suite plus a sanitizer leg.
#
#   scripts/verify.sh            run all legs
#   scripts/verify.sh tier1      plain build + ctest only
#   scripts/verify.sh sanitize   ASan/UBSan build + ctest only
#   scripts/verify.sh portfolio  TSan portfolio suite, then the
#                                bench_portfolio gate (verdict agreement;
#                                >=1.5x median speedup with >=4 hardware
#                                threads)
#   scripts/verify.sh solver     clause-arena + inprocessing path: solver,
#                                simplify and MaxSAT/lex suites + the
#                                portfolio/warm-start/inprocessing
#                                verdict-agreement fuzz oracles, the
#                                prepared-image clone oracle and the
#                                held-solver ask suite under
#                                ASan/UBSan, then the
#                                bench_propagation Solver props/sec floor
#                                and the bench_solver_ablation gate
#   scripts/verify.sh server     HTTP server: unit + TSan + live smoke +
#                                capacity and oversubscription gates
#   scripts/verify.sh session    sessions: unit + asks + TSan + warm-start
#                                oracle + concurrent prepared-image clones
#                                under TSan + live session smoke + session
#                                speedup gate
#   scripts/verify.sh obs        observability: flight-recorder unit + TSan +
#                                live /v1/debug + /statusz smoke
#   scripts/verify.sh chaos      resilience: fault-injection + chaos suites,
#                                then the bench_chaos availability gate
#                                (5% socket faults + hostile clients: >=99%
#                                success with retries, no crash, no leaked
#                                connection, p99 recovers after disarm)
#   scripts/verify.sh bench      end-to-end benchmark smoke: builds perfbench/
#                                (larserved + perfbench_driver, against the
#                                Engine, Service and Session APIs) and runs
#                                every workload on a few checked requests
#
# The tier-1 leg uses the regular build/ tree (shared with development, so
# incremental rebuilds are cheap). The sanitize leg configures a separate
# build-asan/ tree with -DLAR_SANITIZE=address,undefined; the per-test TSan
# variants are skipped there automatically (tests/CMakeLists.txt) because
# the whole tree is already instrumented.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=${VERIFY_JOBS:-2}
leg=${1:-all}

run_tier1() {
    echo "== tier-1: plain build + ctest =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j"$jobs"
    (cd "$root/build" && ctest --output-on-failure -j"$jobs")
}

run_portfolio() {
    # The portfolio backend and its clause exchange are the most aggressively
    # lock-free code in the tree; run their suite under ThreadSanitizer
    # (built in the plain tree — the TSan test variants are per-executable).
    # Then bench_portfolio races a 4-wide portfolio against one solver on
    # hard random 3-SAT: every verdict must agree, and with >=4 hardware
    # threads the median speedup must reach 1.5x. It exits nonzero on a
    # failed gate.
    echo "== portfolio: TSan clause-sharing/race suite + speedup gate =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j"$jobs" --target portfolio_test_tsan \
        bench_portfolio
    (cd "$root/build" && ctest --output-on-failure -R '^portfolio_tsan$')

    echo "-- bench: portfolio verdict agreement + speedup gate --"
    "$root/build/bench/bench_portfolio"
}

run_solver() {
    # The clause-arena redesign and the inprocessing pipeline end to end.
    # Arena relocation, watcher forwarding, and in-place clause rewriting
    # (subsumption/vivification/elimination) are exactly the code where a
    # stale ClauseRef turns into silent memory corruption, so the solver
    # unit suite, the inprocessing verdict-agreement fuzz oracles, and the
    # portfolio/warm-start oracles run under ASan/UBSan. So do the MaxSAT
    # and lexicographic suites: their improving solve() swaps the bound
    # assumption and backtracks mid-search, from a model hook. So does the
    # prepared-image oracle: a clone rebuilds arena, watch and binary lists
    # from a flat image, and every hit must answer like the miss. So do the
    # what-if asks: each lowers a variation to assumptions on a solver held
    # across asks, and every Sat design must validate. Then
    # bench_propagation (plain tree) must show sat::Solver propagating
    # exactly the planted schedule with no conflict at or above its
    # props/sec floor, and bench_solver_ablation --smoke must show
    # inprocessing on/off agreeing on every verdict.
    echo "== solver: arena suite + fuzz oracles under ASan/UBSan + gates =="
    cmake -B "$root/build-asan" -S "$root" -DLAR_SANITIZE=address,undefined
    cmake --build "$root/build-asan" -j"$jobs" --target \
        sat_test opt_test portfolio_test warmstart_test simplify_test \
        prepared_test whatif_test bench_solver_ablation
    (cd "$root/build-asan" && ASAN_OPTIONS=detect_leaks=0 \
        ctest --output-on-failure -R \
        '^(Lit\.|Solver\.|Dimacs\.|SolverSnapshot\.|Simplify\.|SimplifyOracle\.|MaxSat\.|Lex\.|Prepared(Image|Solver|Concurrency)\.|WhatIfTest\.)|SolverConfigTest|PortfolioVerdictAgreementTest|ClauseImportSoundnessTest|WarmStartOracle')

    echo "-- bench: solver ablation smoke under ASan/UBSan --"
    (cd "$root/build-asan" && ASAN_OPTIONS=detect_leaks=0 \
        ./bench/bench_solver_ablation --smoke)
    grep -q '"pass":true' "$root/build-asan/BENCH_solver_ablation.json"

    echo "-- bench: propagation throughput floor --"
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j"$jobs" --target bench_propagation
    (cd "$root/build" && ./bench/bench_propagation)
    grep -q '"pass":true' "$root/build/BENCH_propagation.json"

    echo "-- bench: inprocessing ablation gate --"
    cmake --build "$root/build" -j"$jobs" --target bench_solver_ablation
    (cd "$root/build" && ./bench/bench_solver_ablation)
    grep -q '"pass":true' "$root/build/BENCH_solver_ablation.json"
}

run_server() {
    # The network subsystem end to end: parser/server unit suites (they
    # hold the 4x-oversubscription and drain-mid-load gates), the same
    # suites under ThreadSanitizer, the HTTP-layer capacity gate (>=1000
    # QPS, p99 < 100 ms), and a live larserved round-trip driven by
    # larctl --url.
    echo "== server: HTTP unit + TSan + capacity gate + live smoke =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j"$jobs" --target \
        http_test server_test server_test_tsan perf_gates_test larserved \
        larctl
    (cd "$root/build" && ctest --output-on-failure -R \
        '^(HttpParser|HttpServer|HttpClient)|^server_tsan$|^PerfGates\.HttpLayer')

    echo "-- live smoke: larserved + larctl --url --"
    smoke="$root/build/server_smoke"
    rm -rf "$smoke" && mkdir -p "$smoke"
    "$root/build/tools/larserved" --port 0 --port-file "$smoke/port" \
        --drain-grace-ms 2000 &
    served_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$smoke/port" ] && break
        sleep 0.1
    done
    [ -s "$smoke/port" ] || { echo "larserved never wrote its port"; exit 1; }
    url="http://127.0.0.1:$(cat "$smoke/port")"
    echo '{"hardware":{"server":{"count":60},"switch":{"count":8},"nic":{"count":60}},"objective_priority":["latency"]}' \
        > "$smoke/prob.json"
    "$root/build/tools/larctl" --url "$url" feasible "$smoke/prob.json" \
        > "$smoke/feasible.json"
    grep -q '"feasible"' "$smoke/feasible.json"
    "$root/build/tools/larctl" --url "$url" metrics | grep -q lar_http_requests_total
    kill -TERM "$served_pid"
    wait "$served_pid" || { echo "larserved did not drain cleanly"; exit 1; }
}

run_session() {
    # The stateful what-if path end to end: SessionManager lifecycle/race
    # suite (plain and under ThreadSanitizer), the ask suite (held-solver
    # answers against fresh engines, every Sat design validated), the
    # warm-start soundness oracle, eight threads cloning one compilation's
    # prepared image under ThreadSanitizer, the session-vs-stateless gate
    # (>=10x median speedup over the production routes, verdicts agree),
    # and a live create/ask/close round-trip through larserved + larctl
    # session mode.
    echo "== session: lifecycle + TSan + warm-start oracle + gate + smoke =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j"$jobs" --target \
        session_test session_test_tsan whatif_test warmstart_test \
        prepared_test_tsan perf_gates_test larserved larctl
    (cd "$root/build" && ctest --output-on-failure -R \
        '^SessionTest|^WhatIfTest\.|^session_tsan$|^prepared_tsan$|^(SolverSnapshot|WarmStartOracle|WarmStartService)|^PerfGates\.SessionAsk')

    echo "-- live smoke: larserved session workflow via larctl --"
    smoke="$root/build/session_smoke"
    rm -rf "$smoke" && mkdir -p "$smoke"
    "$root/build/tools/larserved" --port 0 --port-file "$smoke/port" \
        --drain-grace-ms 2000 &
    served_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$smoke/port" ] && break
        sleep 0.1
    done
    [ -s "$smoke/port" ] || { echo "larserved never wrote its port"; exit 1; }
    url="http://127.0.0.1:$(cat "$smoke/port")"
    echo '{"hardware":{"server":{"count":60},"switch":{"count":8},"nic":{"count":60}},"objective_priority":["latency"]}' \
        > "$smoke/prob.json"
    echo '[{}, {"systems":{"Sonata":true}}, {"options":{}}]' \
        > "$smoke/script.json"
    "$root/build/tools/larctl" --url "$url" session run \
        "$smoke/prob.json" "$smoke/script.json" > "$smoke/session.json"
    grep -q '"verdict"' "$smoke/session.json"
    "$root/build/tools/larctl" --url "$url" metrics \
        | grep -q lar_session_created_total
    kill -TERM "$served_pid"
    wait "$served_pid" || { echo "larserved did not drain cleanly"; exit 1; }
}

run_obs() {
    # The observability surface end to end: the flight-recorder retention /
    # in-flight-registry suite (plain and under ThreadSanitizer, since the
    # recorder is written by solver workers while debug endpoints scan it);
    # the query-lifecycle checks — every Service outcome (answered, failed,
    # cancelled/expired before start, drain- and admission-shed, failed
    # before start) traced, recorded and counted once, plus the
    # service_fault suite under TSan and the /v1/batch wire case whose
    # failed-before-start item must carry its trace and be listed by
    # /v1/debug/traces?verdict=error; then a live larserved smoke: a traced
    # query submitted with a client-supplied X-Lar-Trace-Id must be
    # retrievable by that exact ID from /v1/debug/traces/{id}, and the
    # introspection endpoints (/v1/debug/*, /statusz, /version) must all
    # answer.
    echo "== obs: flight recorder + query lifecycle + live introspection smoke =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j"$jobs" --target \
        flight_recorder_test flight_recorder_test_tsan service_fault_test \
        service_fault_test_tsan chaos_test larserved larctl
    (cd "$root/build" && ctest --output-on-failure -R \
        '^FlightRecorder|^flight_recorder_tsan$|^ServiceFaultTest\.EveryOutcomeIsTracedRecordedAndCountedOnce$|^service_fault_tsan$|^ChaosTest\.BatchItemFailingBeforeStartIsTracedAndRetained$')

    echo "-- live smoke: trace-id round trip + debug endpoints --"
    smoke="$root/build/obs_smoke"
    rm -rf "$smoke" && mkdir -p "$smoke"
    "$root/build/tools/larserved" --port 0 --port-file "$smoke/port" \
        --drain-grace-ms 2000 &
    served_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$smoke/port" ] && break
        sleep 0.1
    done
    [ -s "$smoke/port" ] || { echo "larserved never wrote its port"; exit 1; }
    url="http://127.0.0.1:$(cat "$smoke/port")"
    echo '{"hardware":{"server":{"count":60},"switch":{"count":8},"nic":{"count":60}},"objective_priority":["latency"]}' \
        > "$smoke/prob.json"
    tid="verifysh-trace-0001"
    "$root/build/tools/larctl" --url "$url" --trace-id "$tid" \
        feasible "$smoke/prob.json" > "$smoke/feasible.json"
    grep -q "\"trace_id\": \"$tid\"" "$smoke/feasible.json"
    "$root/build/tools/larctl" --url "$url" trace "$tid" > "$smoke/trace.json"
    grep -q "\"trace_id\": \"$tid\"" "$smoke/trace.json"
    grep -q '"spans"' "$smoke/trace.json"
    "$root/build/tools/larctl" --url "$url" trace "$tid" --chrome \
        > "$smoke/trace_chrome.json"
    grep -q '"traceEvents"' "$smoke/trace_chrome.json"
    "$root/build/tools/larctl" --url "$url" top > "$smoke/statusz.txt"
    grep -q 'flight recorder' "$smoke/statusz.txt"
    "$root/build/tools/larctl" --url "$url" version > "$smoke/version.json"
    grep -q '"trace_schema"' "$smoke/version.json"
    # The chaos layer's metric family must be registered (at zero) from
    # server start, not only after the first fault/timeout event.
    "$root/build/tools/larctl" --url "$url" metrics > "$smoke/metrics.txt"
    grep -q 'lar_net_resets_total' "$smoke/metrics.txt"
    grep -q 'lar_net_read_progress_timeouts_total' "$smoke/metrics.txt"
    grep -q 'lar_net_write_progress_timeouts_total' "$smoke/metrics.txt"
    kill -TERM "$served_pid"
    wait "$served_pid" || { echo "larserved did not drain cleanly"; exit 1; }
}

run_chaos() {
    # The network chaos layer end to end: the FaultInjector primitives, the
    # chaos suite (retry/backoff against armed net.* sites, the
    # re-dial deadline regression, Retry-After on shed, the fleet survival
    # gate), the slow-client hardening cases from the server suite, then
    # the full bench_chaos availability gate. bench_chaos exits nonzero on
    # a crash, a sub-99% success rate under chaos, or a leaked connection.
    echo "== chaos: fault injection + resilience suites + availability gate =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j"$jobs" --target \
        chaos_test server_test service_fault_test bench_chaos
    (cd "$root/build" && ctest --output-on-failure -R \
        '^ChaosTest|^FaultInjector|^HttpServerTest\.(Slowloris|StalledReader)')

    echo "-- bench: chaos availability gate --"
    (cd "$root/build" && ./bench/bench_chaos)
    grep -q '"pass":true' "$root/build/BENCH_chaos.json"
}

run_bench() {
    # perfbench/ is its own CMake project compiled from src/, so an API
    # change that breaks it would otherwise surface only when the benchmark
    # runs. --smoke builds it (into .bench_build/) and sends a few checked
    # requests per workload; a wrong answer or a build failure fails the leg.
    echo "== bench: perfbench build + smoke run =="
    (cd "$root" && python3 perfbench/run.py --smoke)
}

run_sanitize() {
    echo "== sanitize: LAR_SANITIZE=address,undefined build + ctest =="
    cmake -B "$root/build-asan" -S "$root" -DLAR_SANITIZE=address,undefined
    cmake --build "$root/build-asan" -j"$jobs"
    # detect_leaks=0: LeakSanitizer needs ptrace, which most CI containers
    # deny; ASan's use-after-free / overflow checks are the point here.
    (cd "$root/build-asan" &&
         ASAN_OPTIONS=detect_leaks=0 ctest --output-on-failure -j"$jobs")
}

case "$leg" in
    tier1) run_tier1 ;;
    sanitize) run_sanitize ;;
    portfolio) run_portfolio ;;
    solver) run_solver ;;
    server) run_server ;;
    session) run_session ;;
    obs) run_obs ;;
    chaos) run_chaos ;;
    bench) run_bench ;;
    all)
        run_tier1
        run_portfolio
        run_solver
        run_server
        run_session
        run_obs
        run_chaos
        run_bench
        run_sanitize
        ;;
    *)
        echo "usage: scripts/verify.sh [tier1|sanitize|portfolio|solver|server|session|obs|chaos|bench|all]" >&2
        exit 2
        ;;
esac
echo "verify: all requested legs passed"
