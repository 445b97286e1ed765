#!/usr/bin/env bash
# CI smoke suites, one per subsystem, run as one matrix job in
# .github/workflows/ci.yml:
#
#   bash .github/smoke.sh bench|resilience|verify|load|watch|fleet|obs|perfbench
#
# Run from the repository root after `dune build bin bench`. Each suite
# writes its artifacts to the working directory and exits non-zero when
# one of its gates fails.
set -eu

coign() { opam exec -- dune exec bin/coign.exe -- "$@"; }
bench() { opam exec -- dune exec bench/main.exe -- "$@"; }

case "${1:-}" in
bench)
  # The session section re-cuts a 24-point network sweep through one
  # analysis session and exits non-zero if any distribution diverges
  # from a fresh analysis, so this doubles as a correctness gate.
  bench session micro --json bench-smoke.json

  # Gate the fresh snapshot on the committed trajectory: the session
  # sweep must stay bit-identical and fast, the relabel-to-front
  # kernel must stay within 8x of Dinic, and machine-neutral ratios
  # may not regress beyond tolerance against the latest BENCH_<n>.
  latest=$(ls BENCH_*.json | sort -V | tail -1)
  echo "comparing bench-smoke.json against $latest"
  opam exec -- dune exec bench/trajectory.exe -- bench-smoke.json "$latest" \
    | tee trajectory.txt

  # Domain-parallel determinism: the same sweep under --jobs 2 must
  # byte-match the sequential run on all three applications.
  coign instrument --app octarine -o oct.img
  coign profile oct.img --scenario o_oldwp0 -o oct.img
  coign sweep oct.img --points 6
  coign sweep oct.img --points 6 --json > sweep.json
  for pair in "octarine o_oldwp0" "photodraw p_oldmsr" "benefits b_vueone"; do
    set -- $pair
    coign instrument --app "$1" -o "$1.img"
    coign profile "$1.img" --scenario "$2" -o "$1.img"
    coign sweep "$1.img" --points 6 --jobs 1 --json > "sweep-$1-seq.json"
    coign sweep "$1.img" --points 6 --jobs 2 --json > "sweep-$1-par.json"
    diff "sweep-$1-seq.json" "sweep-$1-par.json"
  done

  # A tiny fault grid over the analyzed image; the JSON is seeded and
  # byte-deterministic, so diffs between runs indicate a regression.
  coign analyze oct.img --network ethernet10 -o oct.img
  coign faultsim oct.img --scenario o_oldwp0 --drops 0,0.05 --partitions-ms 0,50
  coign faultsim oct.img --scenario o_oldwp0 --drops 0,0.05 --partitions-ms 0,50 \
    --json > faultsim.json
  ;;

resilience)
  # A small failover grid over a profiled image (resilience re-prices
  # the fallback ladder from the profile, so no analyze step). The
  # text and JSON forms are seeded and byte-deterministic.
  coign instrument --app octarine -o oct.img
  coign profile oct.img --scenario o_oldwp0 -o oct.img
  coign resilience oct.img --scenario o_oldwp0 \
    --network atm --drops 0,0.1 --partitions-ms 0,500 --partition-start-ms 50
  coign resilience oct.img --scenario o_oldwp0 \
    --network atm --drops 0,0.1 --partitions-ms 0,500 --partition-start-ms 50 \
    --json > resilience.json

  # The grid JSON must be well-formed for scrapers; the in-repo
  # Jsonu.parse validation of the same serializer runs in dune
  # runtest (test/test_resilience.ml).
  python3 -m json.tool resilience.json > /dev/null

  # The resilience bench section exits non-zero unless zero-fault
  # runs stay bit-identical with the policy attached AND availability
  # under a sustained partition strictly improves on at least 2 of
  # the 3 applications.
  bench resilience --json resilience-bench.json
  ;;

verify)
  # Exhaustively explore each app's failover interleavings. The
  # explorer is deterministic, and --strict turns even warning-level
  # findings (never-installed rungs) into a non-zero exit, so this
  # gates on a completely clean verification report.
  for pair in "octarine o_oldwp0" "photodraw p_oldmsr" "benefits b_bigone"; do
    set -- $pair
    coign instrument --app "$1" -o "$1.img"
    coign profile "$1.img" --scenario "$2" -o "$1.img"
    coign verify "$1.img" --strict
    coign verify "$1.img" --strict --json > "verify-$1.json"
  done
  for app in octarine photodraw benefits; do
    python3 -m json.tool "verify-$app.json" > /dev/null
  done

  # The verify bench section exits non-zero unless exploration is
  # exhaustive at the default depth with zero CG008/CG009 findings on
  # all three ladders.
  bench verify --json verify-bench.json
  ;;

load)
  # Drive the analyzed ingest pipeline with open-loop traffic. The
  # simulator is seeded and wall-clock-free, so the text and JSON
  # forms are byte-deterministic, including across --jobs workers.
  coign instrument --app ingest -o ing.img
  coign profile ing.img --scenario i_strm1 -o ing.img
  coign profile ing.img --scenario i_replay -o ing.img
  coign analyze ing.img --network ethernet10 -o ing.img
  coign load ing.img --sessions 100000 --arrival poisson:10 --seed 42 | tee load-ingest.txt
  coign load ing.img --sessions 100000 --arrival poisson:10 --seed 42 --jobs 1 \
    --json > load-seq.json
  coign load ing.img --sessions 100000 --arrival poisson:10 --seed 42 --jobs 4 \
    --json > load-par.json
  diff load-seq.json load-par.json

  # The JSON must be well-formed for scrapers; the in-repo Jsonu.parse
  # validation of the same serializer runs in dune runtest
  # (test/test_cli.ml).
  python3 -m json.tool load-seq.json > /dev/null

  # The load bench section exits non-zero unless queueing-off pricing
  # reproduces the Replay estimator bit for bit AND p99 rises strictly
  # across three arrival rates on both apps.
  bench load --json load-bench.json
  ;;

watch)
  # Replay the octarine wp0 -> wp7 mix shift under the online watch.
  # The whole closed loop (tap, window, drift checks, re-cuts,
  # migration) runs on the sim clock from a fixed seed, so the text
  # and JSON reports are byte-deterministic, including across --jobs
  # workers.
  phases="o_oldwp0;o_oldwp7,o_oldwp7,o_oldwp7;o_oldwp7,o_oldwp7,o_oldwp7"
  coign instrument --app octarine -o oct.img
  coign watch oct.img --profile o_oldwp0 --phases "$phases" --metrics | tee watch-octarine.txt
  coign watch oct.img --profile o_oldwp0 --phases "$phases" --jobs 1 --json > watch-seq.json
  coign watch oct.img --profile o_oldwp0 --phases "$phases" --jobs 4 --json > watch-par.json
  diff watch-seq.json watch-par.json

  # The report must say the watch reached the offline oracle's cut,
  # and the JSON must be well-formed for scrapers; the in-repo
  # Jsonu.parse validation of the same serializer runs in dune
  # runtest (test/test_watch.ml).
  grep -q 'converged to oracle cut: yes' watch-octarine.txt
  grep -q 'coign_drift_similarity' watch-octarine.txt
  python3 -m json.tool watch-seq.json > /dev/null

  # The watch bench section exits non-zero unless the closed loop
  # converges to the oracle cut on the mix shift AND a detached tap
  # leaves the distributed run bit-identical.
  bench watch --json watch-bench.json
  ;;

fleet)
  # The availability grid: pool sizes 1-3 against clean / single-host
  # crash / global partition, baseline two-host ladder vs replicated
  # pool. Everything runs on the sim clock from a fixed seed, so the
  # text and JSON reports are byte-deterministic, including across
  # --jobs workers.
  coign instrument --app octarine -o oct.img
  coign profile oct.img --scenario o_oldwp0 -o oct.img
  coign fleet oct.img --scenario o_oldwp0 --network ethernet10 | tee fleet-octarine.txt
  coign fleet oct.img --scenario o_oldwp0 --network ethernet10 --jobs 1 --json > fleet-seq.json
  coign fleet oct.img --scenario o_oldwp0 --network ethernet10 --jobs 4 --json > fleet-par.json
  diff fleet-seq.json fleet-par.json

  # A pool of one is the same one-link route as the two-host ladder,
  # so every pool-of-one row must report identical stats (ident yes),
  # and the JSON must be well-formed for scrapers; the in-repo
  # Jsonu.parse validation of the same serializer runs in dune runtest
  # (test/test_fleet.ml).
  test "$(grep -c 'yes$' fleet-octarine.txt)" = 3
  python3 -m json.tool fleet-seq.json > /dev/null

  # The fleet bench section exits non-zero unless every pool-of-one
  # cell is bit-identical to the two-host resilience path AND the
  # replicated pool serves strictly more remote calls under the
  # single-host crash on at least 2 of 3 applications.
  bench fleet --json fleet-bench.json
  ;;

obs)
  # Trace a profiling run, a distributed run, and the self-profiled
  # analysis in between — the three observability surfaces.
  coign instrument --app benefits -o ben.img
  coign trace ben.img --scenario b_addone --format chrome -o trace-profiling.json
  coign metrics ben.img --scenario b_addone --json > metrics-profiling.json
  coign profile ben.img --scenario b_addone -o ben.img
  coign analyze ben.img --network ethernet10 --self-profile -o ben.img
  coign trace ben.img --scenario b_addone --format chrome -o trace-distributed.json
  coign metrics ben.img --scenario b_addone > metrics-distributed.txt

  # The Chrome trace and the metrics JSON must be well-formed for
  # external viewers (about://tracing, Perfetto) and scrapers.
  python3 -m json.tool trace-profiling.json > /dev/null
  python3 -m json.tool trace-distributed.json > /dev/null
  python3 -m json.tool metrics-profiling.json > /dev/null
  grep -q 'coign_rte_intercepted_calls_total' metrics-distributed.txt

  # The obs bench section exits non-zero if profile stats change
  # when tracing and metrics are attached — the zero-cost gate.
  bench obs --json obs-bench.json
  ;;

perfbench)
  # The benchmark's own correctness checks, on a short run of every
  # workload: the simulated results of every pass must agree to the
  # bit and every output check must pass. A non-zero exit or
  # "correct": false fails the suite; each result line is uploaded.
  for w in suite plan adapt load; do
    opam exec -- python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 \
      > "perfbench-$w.out"
    tail -n 1 "perfbench-$w.out" > "perfbench-$w.json"
    python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["correct"] is True else 1)' \
      "perfbench-$w.json"
  done
  ;;

*)
  echo "usage: $0 bench|resilience|verify|load|watch|fleet|obs|perfbench" >&2
  exit 2
  ;;
esac
