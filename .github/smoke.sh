#!/usr/bin/env bash
# CI smoke suites, one per subsystem, run as one matrix job in
# .github/workflows/ci.yml:
#
#   bash .github/smoke.sh bench|grid|verify|load|watch|obs|perfbench
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
  ;;

grid)
  # The fault grid's three views: faultsim runs the analyzed image's
  # stored distribution, resilience and fleet re-cut from the profile.
  # Every view is seeded and runs on the sim clock, so its text and
  # JSON are byte-deterministic, including across --jobs workers, and
  # the JSON must be well-formed for scrapers (the in-repo goldens pin
  # its values in dune runtest).
  coign instrument --app octarine -o grid-oct.img
  coign profile grid-oct.img --scenario o_oldwp0 -o grid-oct.img
  coign analyze grid-oct.img --network ethernet10 -o grid-oct-dist.img
  view() {
    local name=$1
    shift
    coign "$name" "$@" | tee "grid-$name.txt"
    coign "$name" "$@" --jobs 1 --json > "grid-$name-seq.json"
    coign "$name" "$@" --jobs 4 --json > "grid-$name-par.json"
    diff "grid-$name-seq.json" "grid-$name-par.json"
    python3 -m json.tool "grid-$name-seq.json" > /dev/null
  }
  view faultsim grid-oct-dist.img --scenario o_oldwp0 --drops 0,0.05 --partitions-ms 0,50
  view resilience grid-oct.img --scenario o_oldwp0 --network atm --drops 0,0.1 \
    --partitions-ms 0,500 --partition-start-ms 50
  view fleet grid-oct.img --scenario o_oldwp0 --network ethernet10

  # A pool of one is the same one-link route as the two-host ladder,
  # so every pool-of-one row must report identical stats (ident yes).
  test "$(grep -c 'yes$' grid-fleet.txt)" = 3
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
  echo "usage: $0 bench|grid|verify|load|watch|obs|perfbench" >&2
  exit 2
  ;;
esac
