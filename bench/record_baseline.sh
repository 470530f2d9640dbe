#!/usr/bin/env sh
# Refresh bench/baseline.json (the CI bench-gate reference).
#
# Records:
#   - every bench section (including bechamel wallclock) at -j1, as the
#     exact-match / tolerance reference;
#   - the wall-clock of the deterministic sections at -j1 and -j4, as
#     the harness-speedup reference (meaningful only on >= 4 cores).
#
# Run from the repository root:  sh bench/record_baseline.sh
set -eu

DET_SECTIONS="table fig ablation extension characterization"
MIN_SPEEDUP="${MIN_SPEEDUP:-2.0}"
# Sim-throughput gate for the engines section: the compiled engine's
# speedup over the cycle stepper.  Both the recorded speedup and the
# gate land in meta in the same run, so check_bench never meets an
# engine the baseline has not heard of.
# The compiled gate sat at 10x while the corpus was all queue-mode;
# shared-cache reproducers spin on valid flags, and a spinning core
# issues every cycle, so the fast-forward gets no quiescent windows to
# skip on those entries (~6.7x on the recording host).  The gate
# follows the honest mixed-corpus number.
MIN_COMPILED_SPEEDUP="${MIN_COMPILED_SPEEDUP:-5.0}"
# Warm-over-cold throughput gate for the compile-and-simulate service
# section (requests answered from the content-addressed store vs
# computed fresh).  Same recording discipline as the engine gates.
MIN_SERVICE_WARM_SPEEDUP="${MIN_SERVICE_WARM_SPEEDUP:-5.0}"

dune build bench/main.exe

now_ns() { date +%s%N; }

t0=$(now_ns)
dune exec --no-build bench/main.exe -- $DET_SECTIONS -j1 \
  --json=/dev/null --history=none >/dev/null
t1=$(now_ns)
SEQ=$(python3 -c "print(($t1-$t0)/1e9)")

t0=$(now_ns)
dune exec --no-build bench/main.exe -- $DET_SECTIONS -j4 \
  --json=/dev/null --history=none >/dev/null
t1=$(now_ns)
PAR=$(python3 -c "print(($t1-$t0)/1e9)")

dune exec --no-build bench/main.exe -- -j1 --json=bench/baseline.json --history=none \
  >/dev/null

SEQ="$SEQ" PAR="$PAR" MIN_SPEEDUP="$MIN_SPEEDUP" \
MIN_COMPILED_SPEEDUP="$MIN_COMPILED_SPEEDUP" \
MIN_SERVICE_WARM_SPEEDUP="$MIN_SERVICE_WARM_SPEEDUP" python3 - <<'EOF'
import json, os
d = json.load(open('bench/baseline.json'))
seq, par = float(os.environ['SEQ']), float(os.environ['PAR'])
meta = {
    'recorded_cores': os.cpu_count(),
    'jobs': 4,
    'seq_seconds': round(seq, 2),
    'par_seconds': round(par, 2),
    'recorded_speedup': round(seq / par, 3),
    'min_speedup': float(os.environ['MIN_SPEEDUP']),
}
# Per-engine sim-throughput speedups, read back from the engines section
# this same run just measured.  The recorded_* numbers document the
# recording host; the min_* numbers are the CI gates check_bench
# enforces (it fails when an engine has a speedup but no gate, so a new
# engine cannot land without re-running this script).
engines = d.get('sections', {}).get('engines', {})
mins = {'compiled': float(os.environ['MIN_COMPILED_SPEEDUP'])}
for key, value in sorted(engines.items()):
    if not key.endswith('_speedup'):
        continue
    name = key[:-len('_speedup')]
    if name not in mins:
        raise SystemExit(f'engines section has {key} but record_baseline.sh '
                         f'defines no MIN_{name.upper()}_SPEEDUP default; '
                         f'teach it about the new engine first')
    meta[f'recorded_{name}_speedup'] = round(value, 2)
    meta[f'min_{name}_speedup'] = mins[name]
# The service section's warm-over-cold gate, read back the same way.
# check_bench fails when the section and the gate disagree about each
# other's existence, so the pair must land together.
service = d.get('sections', {}).get('service')
if service is None:
    raise SystemExit('bench produced no service section; the baseline '
                     'would gate a section that does not exist')
meta['recorded_service_warm_speedup'] = round(service['warm_speedup'], 1)
meta['min_service_warm_speedup'] = float(os.environ['MIN_SERVICE_WARM_SPEEDUP'])
meta['note'] = (
    'sections = bench --json at -j1 (deterministic; exact gate). '
    'seq/par_seconds = deterministic sections at -j1/-j4 on the '
    'recording host; refresh with bench/record_baseline.sh when '
    'paper-accuracy numbers legitimately change.')
d['meta'] = meta
json.dump(d, open('bench/baseline.json', 'w'), indent=1)
open('bench/baseline.json', 'a').write('\n')
EOF

echo "recorded: seq=${SEQ}s par=${PAR}s -> bench/baseline.json"
