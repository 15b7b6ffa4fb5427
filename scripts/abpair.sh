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
# directory, which it removes. A run that exits non-zero does not stop
# the series: it is named (pair, side, seed, exit status), the tables
# cover the pairs that completed, and the script exits 1.
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

# run SIDE SEED: one benchmark run in the SIDE checkout (parent or
# change), its summary line written to $tmp/SIDE.line. Returns the run's
# exit status.
run() {
	local dir=$tmp/parent status=0
	[ "$1" = change ] && dir=$root
	(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$2" --seconds 15 --trace 0) > "$tmp/$1.out" || status=$?
	tail -n 1 "$tmp/$1.out" > "$tmp/$1.line"
	return $status
}

# failed names every run that exited non-zero; its pair is left out of
# the tables.
failed=()
for i in $(seq 1 "$pairs"); do
	order="parent change"
	[ $((i % 2)) -eq 0 ] && order="change parent"
	ok=1
	for side in $order; do
		status=0
		run "$side" "$i" || status=$?
		if [ "$status" -ne 0 ]; then
			failed+=("pair $i: $side side, seed $i, exit status $status")
			echo "abpair: pair $i: the $side side (seed $i) exited with status $status; its last output:" >&2
			tail -n 5 "$tmp/$side.out" >&2
			ok=0
			break
		fi
	done
	if [ "$ok" -eq 1 ]; then
		cat "$tmp/parent.line" >> "$tmp/parent.jsonl"
		cat "$tmp/change.line" >> "$tmp/change.jsonl"
		echo "$i" >> "$tmp/pairs"
	fi
	echo "abpair: pair $i done" >&2
done
if [ ! -s "$tmp/parent.jsonl" ]; then
	echo "abpair: no pair completed" >&2
	printf 'abpair: %s\n' "${failed[@]}" >&2
	exit 1
fi

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
	paste "$tmp/pairs" <(metric "$m" "$tmp/parent.jsonl") <(metric "$m" "$tmp/change.jsonl") |
		awk -v better="$better" '{
			d = 100 * ($3 - $2) / $2
			printf "%6d %12.4g %12.4g %+8.1f%%\n", $1, $2, $3, d
			if ((better == "lower" && $3 < $2) || (better == "higher" && $3 > $2)) won++
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

if [ "${#failed[@]}" -gt 0 ]; then
	echo
	echo "failed runs (left out of the tables above)"
	printf '  %s\n' "${failed[@]}"
	exit 1
fi
