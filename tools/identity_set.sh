#!/usr/bin/env bash
# Writes the byte-identity set of a desyn build: the outputs a refactor must
# leave unchanged. Compare two builds (parent and change) with
#
#   tools/identity_set.sh <parent-build> /tmp/id-parent
#   tools/identity_set.sh <change-build> /tmp/id-change
#   diff -r /tmp/id-parent /tmp/id-change
#
# The build directory needs the examples and the benches (-DDESYN_BENCH=ON).
# Wall-clock fields are left out or stripped, so two runs of one build agree.
#
# usage: tools/identity_set.sh <build-dir> <out-dir>
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
cli="$build/examples/desyn_cli"
cd "$out"  # the tools write nothing else, but keep any droppings here

# The --stable strategy sweep, text and JSON.
"$cli" sweep --full-suite --margins 1.0,1.1 --protocol all \
  --strategies prefix,perff,auto:1.0,auto:1.05 --rounds 40 --stable \
  --json sweep.json > sweep.txt

# Lint over the full suite and every protocol.
"$cli" lint --suite --full-suite --protocol all --json lint.json > lint.txt

# The Monte-Carlo sweep, its wall times stripped.
"$cli" sweep --full-suite --margins 1.1 --protocol all --mc-samples 256 \
  --json mc_raw.json > /dev/null
grep -v '"wall_ms"\|"total_wall_ms"' mc_raw.json > mc.json
rm mc_raw.json

# Every bench_mcr ratio.
"$build/bench/bench_mcr" --json mcr_raw.json > /dev/null
grep -o '"model": "[^"]*"\|"ratio_ps": [^,]*' mcr_raw.json | paste - - \
  > mcr_ratios.txt
rm mcr_raw.json

# The bench_partition rows (banks, cells, period, optimizer counters) with
# the wall-time column dropped.
"$build/bench/bench_partition" \
  --strategies prefix,perff,single,auto:1.0,auto:1.02,auto:1.05,auto:1.2 |
  awk '$2 ~ /^(prefix|perff|single|auto)/ { $7 = ""; print }' \
  > partition_rows.txt
