#!/bin/sh
# Record benchmark runs: RUNS iterations over all four workloads, each
# run in its own process, the workload order reversed on every other
# iteration, every run on a fresh seed.  With several OUTDIRs each
# iteration records one run of every workload into each directory in
# turn, so two sets of the same build interleave in time; compare them
# with `main.exe compare DIR_A DIR_B`.
#
#   benchmark/run.sh [-n RUNS] [-t SECONDS] [-s FIRST_SEED] OUTDIR...
#
# Each run writes OUTDIR/run-<seed>-<workload>.json: the result line
# plus host meta (nproc, OCaml version, commit).  `compare` pairs runs
# in seed order, so two checkouts run with the same -s pair up run for
# run.  Every run is single-domain; see README.md for why there are no
# -j rows.
set -eu

runs=5
seconds=25
seed=1
while getopts n:t:s: opt; do
  case $opt in
    n) runs=$OPTARG ;;
    t) seconds=$OPTARG ;;
    s) seed=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ]; then
  echo "usage: $0 [-n RUNS] [-t SECONDS] [-s FIRST_SEED] OUTDIR..." >&2
  exit 2
fi

cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./benchmark/main.exe
exe=_build/default/benchmark/main.exe
commit=$(git describe --always --dirty 2>/dev/null || echo unknown)
forward="sim-queues sim-shared service-via autotune-search"
backward="autotune-search service-via sim-shared sim-queues"

i=1
while [ "$i" -le "$runs" ]; do
  if [ $((i % 2)) -eq 1 ]; then order=$forward; else order=$backward; fi
  for out in "$@"; do
    mkdir -p "$out"
    for w in $order; do
      file=$(printf '%s/run-%04d-%s.json' "$out" "$seed" "$w")
      "$exe" run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        --record "$file" --commit "$commit" >/dev/null
      echo "$file" >&2
      seed=$((seed + 1))
    done
  done
  i=$((i + 1))
done
