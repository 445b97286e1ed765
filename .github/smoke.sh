#!/usr/bin/env bash
# CI smoke suites, one per subsystem, run as one matrix job in
# .github/workflows/ci.yml:
#
#   bash .github/smoke.sh bench|resilience|verify|load|watch|fleet|obs|perfbench
#
# Run from the repository root after `dune build bin bench`. Each suite
# writes its artifacts to the working directory and exits non-zero when
# one of its gates fails. The subsystems' correctness gates themselves
# run in `dune runtest`.
set -euo pipefail

coign() { opam exec -- dune exec bin/coign.exe -- "$@"; }

case "${1:-}" in
bench)
  # The paper's reproduction report: every table and figure, the
  # overhead and adaptivity claims and the extensions, run end to end
  # so the report cannot rot.
  opam exec -- dune exec bench/main.exe > bench-report.txt

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

  # The same at benchmark scale: a 1M-session run, whose percentiles
  # come from in-place selection rather than a sort (well under a
  # second), must also byte-match across --jobs workers.
  coign load ing.img --sessions 1000000 --arrival poisson:10 --seed 42 --jobs 1 \
    --json > load-1m-seq.json
  coign load ing.img --sessions 1000000 --arrival poisson:10 --seed 42 --jobs 4 \
    --json > load-1m-par.json
  diff load-1m-seq.json load-1m-par.json

  # A non-finite arrival spec is a usage error, never a report of NaN
  # percentiles with exit 0.
  if coign load ing.img --arrival poisson:nan > /dev/null 2>&1; then
    echo "coign load accepted --arrival poisson:nan" >&2
    exit 1
  fi

  # The JSON must be well-formed for scrapers; the in-repo Jsonu.parse
  # validation of the same serializer runs in dune runtest
  # (test/test_cli.ml).
  python3 -m json.tool load-seq.json > /dev/null
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
  ;;

perfbench)
  # A short snapshot of every workload, untraced and traced, on the
  # committed snapshot's two seeds. A run whose simulated results
  # disagree between passes or whose output check fails exits
  # non-zero, and so does the snapshot.
  opam exec -- python3 bench/snapshot.py --seconds 2 > perfbench-snapshot.json

  # Gate the deterministic end-to-end metrics against the latest
  # committed BENCH_<n>.json within their BENCHMARK.json bounds; host
  # times and per-layer metrics are reported beside it.
  latest=$(ls BENCH_*.json | sort -V | tail -1)
  opam exec -- dune exec bench/trajectory.exe -- perfbench-snapshot.json "$latest" \
    | tee trajectory.txt
  ;;

*)
  echo "usage: $0 bench|resilience|verify|load|watch|fleet|obs|perfbench" >&2
  exit 2
  ;;
esac
