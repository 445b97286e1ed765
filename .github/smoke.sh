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

# Every coign_* sample line of a Prometheus text exposition reads
# `name{labels} value`, and the value is a float, NaN, +Inf or -Inf.
check_exposition() {
  python3 - "$1" <<'PY'
import re, sys
label = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"'
value = r'[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|NaN|[+-]Inf'
sample = re.compile(r'coign_[a-zA-Z0-9_]*(?:\{%s(?:,%s)*\})? (?:%s)' % (label, label, value))
bad = [l for l in open(sys.argv[1]) if l.startswith('coign_') and not sample.fullmatch(l.rstrip('\n'))]
sys.stderr.writelines('bad sample line in %s: %s' % (sys.argv[1], l) for l in bad)
sys.exit(1 if bad else 0)
PY
}

# A Chrome trace has one `call` event per intercepted call and one
# `create` event per instantiation: its counts equal the
# coign_rte_intercepted_calls_total / coign_rte_instantiations_total of
# the same run's metrics, JSON or Prometheus text.
check_trace_counts() {
  python3 - "$1" "$2" <<'PY'
import collections, json, sys
trace, metrics = sys.argv[1], sys.argv[2]
cats = collections.Counter(e['cat'] for e in json.load(open(trace))['traceEvents'])
names = {'call': 'coign_rte_intercepted_calls_total', 'create': 'coign_rte_instantiations_total'}
text = open(metrics).read()
if text.lstrip().startswith('{'):
    m = json.loads(text)
    value = lambda n: m[n]['series'][0]['value']
else:
    samples = dict(l.split() for l in text.splitlines() if l.startswith('coign_rte_'))
    value = lambda n: float(samples[n])
bad = [(c, cats[c], value(n)) for c, n in names.items() if cats[c] != value(n)]
sys.stderr.writelines('%s: %d %s events, metrics say %g\n' % (trace, k, c, v) for c, k, v in bad)
sys.exit(1 if bad else 0)
PY
}

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
    # --pool 1 is the default two-host ladder: the same report.
    coign verify "$1.img" --pool 1 --strict --json > "verify-$1-pool1.json"
    diff "verify-$1.json" "verify-$1-pool1.json"
    # The default pool-1 and the pool-2 and pool-3 models explored on
    # the zero-worker pool and on four domains: the reports must be
    # byte-identical.
    coign verify "$1.img" --strict --json --jobs 1 > "verify-$1-seq.json"
    coign verify "$1.img" --strict --json --jobs 4 > "verify-$1-par.json"
    diff "verify-$1-seq.json" "verify-$1-par.json"
    for k in 2 3; do
      coign verify "$1.img" --pool "$k" --strict --json --jobs 1 > "verify-$1-pool$k-seq.json"
      coign verify "$1.img" --pool "$k" --strict --json --jobs 4 > "verify-$1-pool$k-par.json"
      diff "verify-$1-pool$k-seq.json" "verify-$1-pool$k-par.json"
    done
  done
  for app in octarine photodraw benefits; do
    python3 -m json.tool "verify-$app.json" > /dev/null
  done
  # Any pool width verifies: 1001 rungs, truncated at the depth bound
  # with CG010 warnings, but a whole report (exit 0, not --strict).
  coign verify octarine.img --pool 1000 --json > verify-octarine-pool1000.json
  python3 -m json.tool verify-octarine-pool1000.json > /dev/null
  # Entries that disagree are bad input, not an internal error: with
  # the ICC row 35 -> 39 retargeted past the classifier's 40
  # classifications, analyze exits 1 (not 125) and names the entry.
  python3 - octarine.img verify-bad-icc.img <<'PY'
import sys
image = open(sys.argv[1], 'rb').read()
row = b'\n35\t39\t'
assert image.count(row) == 1, 'want one ICC row 35 -> 39'
open(sys.argv[2], 'wb').write(image.replace(row, b'\n35\t89\t'))
PY
  rc=0
  coign analyze verify-bad-icc.img -o verify-bad-icc.img 2> verify-bad-icc.err || rc=$?
  cat verify-bad-icc.err
  test "$rc" -eq 1
  grep -q '^error: Icc.decode: line [0-9]*: entry 35 -> 89 (ICoCreateInstance) names classification 89' \
    verify-bad-icc.err
  # The analyzer and the verifier read one set of hard constraints:
  # with the ICC cell 0 -> 28 IFileRead (client-pinned Octarine.App to
  # server-pinned Storage.FileServer) marked non-remotable, no finite
  # cut exists, so analyze exits 1 with a CG007 error and writes no
  # image, and verify exits 1 rejecting the same split in its ladder's
  # primary rung.
  python3 - octarine.img verify-non-remotable.img <<'PY'
import sys
image = open(sys.argv[1], 'rb').read()
cell = b'\n0\t28\tIFileRead\t1\t'
assert image.count(cell) == 2, 'want the two bucket rows of ICC cell 0 -> 28 IFileRead'
open(sys.argv[2], 'wb').write(image.replace(cell, b'\n0\t28\tIFileRead\t0\t'))
PY
  split='classifications 0 and 28 share a non-remotable interface but are split across the cut'
  rc=0
  coign analyze verify-non-remotable.img -o verify-non-remotable-out.img \
    2> verify-non-remotable-analyze.err || rc=$?
  cat verify-non-remotable-analyze.err
  test "$rc" -eq 1
  test ! -e verify-non-remotable-out.img
  grep -qx "error CG007 octarine: $split" verify-non-remotable-analyze.err
  rc=0
  coign verify verify-non-remotable.img 2> verify-non-remotable-verify.err || rc=$?
  cat verify-non-remotable-verify.err
  test "$rc" -eq 1
  grep -qx "error: fallback rung primary: $split" verify-non-remotable-verify.err
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
  # Byte for byte the recorded report, so a change to the event loop or
  # the percentile selection that moves any printed figure fails here.
  diff -u test/golden/load_ingest_100k.txt load-ingest.txt
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
  # The text report, not the JSON: its %.17g floats would tie the
  # golden to the platform's libm [log].
  coign load ing.img --sessions 1000000 --arrival poisson:10 --seed 42 --jobs 1 \
    | tee load-ingest-1m.txt
  diff -u test/golden/load_ingest_1m.txt load-ingest-1m.txt

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
  # Byte for byte the golden that dune runtest gates (test_cli.ml), so
  # a drift in the similarities or the window mass fails here too.
  diff -u test/golden/watch_octarine_metrics.txt watch-octarine.txt
  coign watch oct.img --profile o_oldwp0 --phases "$phases" --jobs 1 --json > watch-seq.json
  coign watch oct.img --profile o_oldwp0 --phases "$phases" --jobs 4 --json > watch-par.json
  diff watch-seq.json watch-par.json

  # A non-finite dwell is a usage error, never a run that silently
  # turns the watch off and reports no drift with exit 0.
  if coign watch oct.img --profile o_oldwp0 --phases "$phases" --min-dwell-ms nan \
    > /dev/null 2>&1; then
    echo "coign watch accepted --min-dwell-ms nan" >&2
    exit 1
  fi

  # The report must say the watch reached the offline oracle's cut,
  # and the JSON must be well-formed for scrapers; the in-repo
  # Jsonu.parse validation of the same serializer runs in dune
  # runtest (test/test_watch.ml).
  grep -q 'converged to oracle cut: yes' watch-octarine.txt
  grep -q 'coign_drift_similarity' watch-octarine.txt
  check_exposition watch-octarine.txt
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
  check_exposition metrics-distributed.txt
  check_trace_counts trace-profiling.json metrics-profiling.json
  check_trace_counts trace-distributed.json metrics-distributed.txt
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
