#!/bin/sh
# Print the stdout of all 12 figure binaries in the layout of
# results/figures_full.txt: a `=== name ===` header, the binary's stdout,
# then one blank line.
#
# Usage: scripts/figures.sh BIN_DIR [FLAG...]
#   scripts/figures.sh target/release --quick > results/figures_quick.txt
#   scripts/figures.sh target/release         > results/figures_full.txt
set -eu
dir=$1
shift
for name in fig07_repb_table fig08_throughput_vs_range fig09_repb_vs_throughput \
    fig10_repb_vs_range fig11a_cancellation_snr fig11b_ber_vs_symbol_rate \
    fig12a_trace_throughput_cdf fig12b_wifi_impact fig13a_client_cdf \
    fig13b_client_snr headline_comparison ablations; do
    echo "=== $name ==="
    "$dir/$name" "$@"
    echo
done
