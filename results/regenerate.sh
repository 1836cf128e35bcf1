#!/bin/sh
# Regenerates every recorded experiment output under results/ with the
# command it was recorded with.
#
#   results/regenerate.sh           rewrite results/*.txt in place
#   results/regenerate.sh --check   regenerate into a temporary directory
#                                   and cmp each file against results/;
#                                   exits 1 if any file differs
#
# Run from anywhere; the script works from the repository root. The first
# run builds the edm-bench binaries in release.
set -eu

cd "$(dirname "$0")/.."

check=0
case "${1:-}" in
    "") ;;
    --check) check=1 ;;
    *)
        echo "usage: $0 [--check]" >&2
        exit 2
        ;;
esac

# One line per file: the binary, then its arguments. Median-round figures
# use 7 rounds; ablations run 8192 shots; everything else uses the binary
# defaults (16384 shots, device seed 102).
commands='
fig1
fig3
fig4
fig6
fig7 --rounds 7
fig8
fig9 --rounds 7
fig11 --rounds 7
fig13 --rounds 7
table1
table2
ablation_channels --shots 8192
ablation_merge --shots 8192
ablation_optimize --shots 8192
ablation_router --shots 8192
ablation_shots --shots 8192 --rounds 3
extension_invert
extension_mitigate
extension_workloads
'

cargo build --release --offline -q -p edm-bench --bins

out=results
if [ "$check" = 1 ]; then
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
fi

failed=0
echo "$commands" | while read -r bin args; do
    [ -n "$bin" ] || continue
    # shellcheck disable=SC2086 # $args is a list of flags
    cargo run --release --offline -q -p edm-bench --bin "$bin" -- $args > "$out/$bin.txt"
done
if [ "$check" = 1 ]; then
    for bin in $(echo "$commands" | awk 'NF { print $1 }'); do
        if cmp "results/$bin.txt" "$out/$bin.txt"; then
            echo "ok      results/$bin.txt"
        else
            echo "DIFFERS results/$bin.txt"
            diff "results/$bin.txt" "$out/$bin.txt" | head -20 || true
            failed=1
        fi
    done
fi
exit "$failed"
