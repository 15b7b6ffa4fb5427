#!/usr/bin/env bash
# Alternating A/B pairs of one end-to-end benchmark workload: the parent
# side is a clone of REV (default HEAD~1), the change side is this
# checkout as it stands (uncommitted edits included). Usage:
#   bash scripts/abpair.sh WORKLOAD PAIRS [REV]
#   make abpair WORKLOAD=cluster PAIRS=10 [REV=HEAD~1]
# Pair i runs `bash benchmark/run.sh --workload WORKLOAD --seed i
# --seconds 15 --trace 0` once in each checkout, parent first in odd
# pairs and change first in even ones, because the machine's speed
# drifts by tens of percent over a series. Each run builds the checkout
# it lives in. The script prints each pair's cpu_ms_per_vsec and
# vsec_per_wallsec, their medians, the parent's interquartile range,
# the median of the per-pair deltas and the pairs the change won; then
# the medians of every end-to-end metric. It reads the last line of each
# run's output (the pipeline summary) and writes only to a temporary
# directory, which it removes.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 WORKLOAD PAIRS [REV]" >&2
	exit 2
fi
workload=$1 pairs=$2 rev=${3:-HEAD~1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git clone -q --no-checkout "$root" "$tmp/parent"
git -C "$tmp/parent" checkout -q --detach "$sha"
echo "abpair: $workload, $pairs pairs, parent $(git -C "$root" rev-parse --short "$sha"), change = working tree of $root"

# run DIR SEED OUT: one benchmark run in checkout DIR, its summary line
# appended to OUT.
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds 15 --trace 0) | tail -n 1 >> "$3"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run "$tmp/parent" "$i" "$tmp/parent.jsonl"
		run "$root" "$i" "$tmp/change.jsonl"
	else
		run "$root" "$i" "$tmp/change.jsonl"
		run "$tmp/parent" "$i" "$tmp/parent.jsonl"
	fi
	echo "abpair: pair $i done" >&2
done

# metric NAME FILE: the metric's value on each line of FILE, one a line.
metric() {
	sed -n "s/.*\"$1\":{\"value\":\([-0-9.eE+]*\).*/\1/p" "$2"
}

# Quartiles by linear interpolation between the sorted values.
stats='
function q(p,   h, k) { h = (n - 1) * p; k = int(h); return k + 1 < n ? v[k] + (h - k) * (v[k + 1] - v[k]) : v[k] }
{ v[n++] = $1 }
END { printf "%.4g %.4g %.4g\n", q(0.5), q(0.25), q(0.75) }'

for m in cpu_ms_per_vsec vsec_per_wallsec; do
	better=lower
	[ "$m" = vsec_per_wallsec ] && better=higher
	echo
	echo "$m ($better is better)"
	printf '%6s %12s %12s %9s\n' pair parent change delta
	paste <(metric "$m" "$tmp/parent.jsonl") <(metric "$m" "$tmp/change.jsonl") |
		awk -v better="$better" '{
			d = 100 * ($2 - $1) / $1
			printf "%6d %12.4g %12.4g %+8.1f%%\n", NR, $1, $2, d
			if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) won++
		} END { printf "change won %d/%d pairs\n", won, NR }'
	read -r pm pq1 pq3 < <(metric "$m" "$tmp/parent.jsonl" | sort -g | awk "$stats")
	read -r cm _ _ < <(metric "$m" "$tmp/change.jsonl" | sort -g | awk "$stats")
	read -r dm _ _ < <(paste <(metric "$m" "$tmp/parent.jsonl") <(metric "$m" "$tmp/change.jsonl") |
		awk '{print 100 * ($2 - $1) / $1}' | sort -g | awk "$stats")
	echo "median parent $pm (IQR $pq1–$pq3, width $(awk -v a="$pq1" -v b="$pq3" 'BEGIN {printf "%.4g", b - a}')), change $cm; median per-pair delta ${dm}%"
done

echo
echo "medians of every end-to-end metric"
printf '%-26s %12s %12s %9s\n' metric parent change delta
for m in $(grep -o '"[a-z0-9_]*":{"value"' "$tmp/parent.jsonl" | sed 's/"\([a-z0-9_]*\)".*/\1/' | sort -u); do
	read -r pm _ _ < <(metric "$m" "$tmp/parent.jsonl" | sort -g | awk "$stats")
	read -r cm _ _ < <(metric "$m" "$tmp/change.jsonl" | sort -g | awk "$stats")
	awk -v m="$m" -v a="$pm" -v b="$cm" 'BEGIN {printf "%-26s %12.4g %12.4g %+8.1f%%\n", m, a, b, a == 0 ? 0 : 100 * (b - a) / a}'
done
