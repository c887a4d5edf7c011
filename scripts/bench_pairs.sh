#!/usr/bin/env bash
# Paired benchmark comparison of a base revision against the current
# checkout:
#
#   bash scripts/bench_pairs.sh REV WORKLOAD SEED N
#   make bench-pairs REV=HEAD~1 WORKLOAD=fleet1k-lc SEED=1 N=10
#
# REV is extracted with `git archive | tar -x` into .bench_build/pairs/
# and both sides are built by their own benchmark/run.sh, each with its
# own CARGO_TARGET_DIR under .bench_build/pairs/, so nothing is written
# outside .bench_build/. The change side is the working tree, including
# uncommitted edits. N pairs of untraced runs follow (--seconds from
# BENCHMARK.json's run_seconds), alternating which side runs first so
# slow drift on the host does not favour either. The script prints
# every pair's run_s, the medians and quartiles of both sides, the
# median change and the change's win count, then both sides' medians of
# every end-to-end metric; each run's full output stays in
# .bench_build/pairs/SIDE-I.log. It fails if any run is not correct or
# any run's outcome digest differs from the base's.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 REV WORKLOAD SEED N" >&2
	exit 2
fi
rev=$1 workload=$2 seed=$3 n=$4

cd "$(dirname "$0")/.."
root=$(pwd)
pairs="$root/.bench_build/pairs"
base="$pairs/base"
rm -rf "$base" "$pairs"/base-*.log "$pairs"/change-*.log
mkdir -p "$base"
git archive "$rev" | tar -x -C "$base"
secs=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

# metric NAME LOG: the value of end-to-end metric NAME in the final
# JSON line of a run's output.
metric() {
	tail -1 "$2" | sed -n "s/.*\"$1\":{\"value\":\([0-9.eE+-]*\).*/\1/p"
}

# run SIDE I: untraced benchmark run I of SIDE (base|change); prints
# "run_s digest" and keeps the full output in $pairs/SIDE-I.log.
run() {
	local dir=$root log="$pairs/$1-$2.log"
	[ "$1" = base ] && dir=$base
	(cd "$dir" && CARGO_TARGET_DIR="$pairs/$1-target" bash benchmark/run.sh \
		--workload "$workload" --seed "$seed" --seconds "$secs" --trace 0) >"$log" 2>&1 || {
		echo "$1 run failed:" >&2
		tail -5 "$log" >&2
		exit 1
	}
	case "$(tail -1 "$log")" in *'"correct":true'*) ;; *)
		echo "$1 run not correct: $(tail -1 "$log")" >&2
		exit 1
	esac
	echo "$(metric run_s "$log") $(sed -n 's/.*verify pass:.*outcome digest \([0-9a-f]*\).*/\1/p' "$log")"
}

echo "bench-pairs: $rev vs working tree, workload $workload, seed $seed, $n pairs, --seconds $secs"
ref="" bs=() cs=()
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		b=$(run base "$i")
		c=$(run change "$i")
	else
		c=$(run change "$i")
		b=$(run base "$i")
	fi
	read -r bt bd <<<"$b"
	read -r ct cd <<<"$c"
	[ -n "$ref" ] || ref=$bd
	if [ "$bd" != "$ref" ] || [ "$cd" != "$ref" ]; then
		echo "outcome digest mismatch in pair $i: base $bd, change $cd, reference $ref" >&2
		exit 1
	fi
	bs+=("$bt")
	cs+=("$ct")
	printf 'pair %2d  base %8.3f s  change %8.3f s  %+6.1f %%\n' "$i" "$bt" "$ct" "$(echo "$bt $ct" | awk '{print 100*($2-$1)/$1}')"
done

# quartiles: Q1, median and Q3 of the values on stdin (median of the
# lower and upper halves for Q1 and Q3).
quartiles() {
	sort -g | awk '
		function med(lo, hi,  m) { m = int((lo + hi) / 2); return (hi - lo) % 2 ? (v[m] + v[m+1]) / 2 : v[m] }
		{ v[NR] = $1 }
		END {
			h = int(NR / 2)
			if (h == 0) h = NR
			printf "%.6g %.6g %.6g\n", med(1, h), med(1, NR), med(NR - h + 1, NR)
		}'
}
read -r bq1 bmed bq3 <<<"$(printf '%s\n' "${bs[@]}" | quartiles)"
read -r cq1 cmed cq3 <<<"$(printf '%s\n' "${cs[@]}" | quartiles)"
wins=0
for ((i = 0; i < n; i++)); do
	if awk -v b="${bs[i]}" -v c="${cs[i]}" 'BEGIN { exit !(c < b) }'; then
		wins=$((wins + 1))
	fi
done
echo "base    run_s median $bmed s  quartiles [$bq1, $bq3]"
echo "change  run_s median $cmed s  quartiles [$cq1, $cq3]"
echo "median change $(echo "$bmed $cmed" | awk '{printf "%+.1f", 100*($2-$1)/$1}') %, change wins $wins/$n pairs, outcome digest $ref on every run"
echo "end-to-end metric medians (base -> change):"
for name in $(tail -1 "$pairs/base-1.log" | grep -o '"[a-z0-9_]*":{"value"' | cut -d'"' -f2); do
	bm=$(for ((i = 1; i <= n; i++)); do metric "$name" "$pairs/base-$i.log"; done | quartiles | cut -d' ' -f2)
	cm=$(for ((i = 1; i <= n; i++)); do metric "$name" "$pairs/change-$i.log"; done | quartiles | cut -d' ' -f2)
	printf '  %-14s %12s -> %-12s %s\n' "$name" "$bm" "$cm" "$(echo "$bm $cm" | awk '{ if ($1 != 0) printf "%+.1f %%", 100*($2-$1)/$1 }')"
done
