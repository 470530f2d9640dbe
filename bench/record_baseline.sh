#!/usr/bin/env sh
# Refresh bench/baseline.json (the CI bench-gate reference).
#
# Records every bench section at -j1 — deterministic simulation
# results, compared exactly by test/check_bench.exe — plus a meta
# object holding the -j1/-j4 harness-speedup gate that CI applies on
# runners with at least 4 cores.  Host time is measured by the
# end-to-end benchmark (benchmark/), so nothing here depends on the
# recording host.
#
# Run from the repository root:  sh bench/record_baseline.sh
set -eu

MIN_SPEEDUP="${MIN_SPEEDUP:-2.0}"

dune build bench/main.exe
dune exec --no-build bench/main.exe -- -j1 --json=bench/baseline.json >/dev/null

MIN_SPEEDUP="$MIN_SPEEDUP" python3 - <<'EOF'
import json, os
d = json.load(open('bench/baseline.json'))
d['meta'] = {
    'min_speedup': float(os.environ['MIN_SPEEDUP']),
    'note': (
        'sections = bench --json at -j1 (deterministic; exact gate). '
        'min_speedup gates the -j1/-j4 wall-clock ratio of the '
        'deterministic sections on runners with >= 4 cores; refresh '
        'with bench/record_baseline.sh when paper-accuracy numbers '
        'legitimately change.'),
}
json.dump(d, open('bench/baseline.json', 'w'), indent=1)
open('bench/baseline.json', 'a').write('\n')
EOF

echo "recorded bench/baseline.json"
