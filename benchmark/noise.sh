#!/usr/bin/env bash
# Noise self-check: two alternating sets of runs of every workload on ONE
# build, each run with another seed, compared the way a later change will be
# compared with its parent.  For every workload x end-to-end metric it prints
# both set medians, their relative difference, each set's quartile spread
# (Q3 - Q1 of `statistics.quantiles(values, n=4)` over the median) and the
# bound from BENCHMARK.json.  A difference above half its bound, or a spread
# above a third of it, is flagged.
#
#   benchmark/noise.sh [runs-per-set (default 10)] > benchmark/NOISE.md
#   benchmark/noise.sh report > benchmark/NOISE.md   # again, from the last runs
#
# Run from the repository root.  Takes about
# 2 x runs x (sum of the four run times) ~ 2 x 10 x 105 s, more on a slow host.
set -euo pipefail

runs="${1:-10}"
[ -f BENCHMARK.json ] || { echo "noise.sh: run from the repository root" >&2; exit 2; }
# The raw summary lines stay under the (ignored) output directory.
results="benchmark/out/noise-results"

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$target/release/tibpre-benchmark"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

if [ "$runs" != report ]; then
[ "$runs" -ge 5 ] || { echo "noise.sh: at least 5 runs per set" >&2; exit 2; }
rm -rf "$results"
mkdir -p "$results"

# A1 B1 A2 B2 ...: the sets alternate, so drift of the host hits both alike.
for i in $(seq 1 "$runs"); do
    for set in A B; do
        for workload in $workloads; do
            [ "$set" = A ] && seed=$((1000 + i)) || seed=$((2000 + i))
            echo "noise.sh: set $set run $i/$runs $workload seed $seed" >&2
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                --out "benchmark/out/noise-$workload" | tail -n 1 \
                >> "$results/$workload.$set"
        done
    done
done
fi

python3 - "$results" "$seconds" <<'PY'
import json, statistics, subprocess, sys, os

results, seconds = sys.argv[1], sys.argv[2]
bench = json.load(open("BENCHMARK.json"))
runs = sum(1 for _ in open(f"{results}/{bench['workloads'][0]['name']}.A"))

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

def fact(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except Exception:
        return "unknown"

print("# Noise self-check")
print()
print(f"Two alternating sets (A, B) of {runs} runs of every workload on one build, "
      f"`--seconds {seconds}`, another seed each run (`benchmark/noise.sh {runs}`).")
print("`diff` is B's median against A's, signed so that positive is worse; "
      "`spread` is (Q3 - Q1) / median of a set.")
print("Flags: `D` the difference exceeds half the bound, `S` a spread exceeds a third of it.")
print()
print(f"- commit: {fact(['git', 'rev-parse', 'HEAD'])}")
print(f"- rustc: {fact(['rustc', '--version'])}")
print(f"- nproc: {os.cpu_count()}")
print(f"- kernel: {fact(['uname', '-sr'])}")
print()
flagged = 0
for workload in bench["workloads"]:
    name = workload["name"]
    sets = {}
    for s in "AB":
        lines = [json.loads(l) for l in open(f"{results}/{name}.{s}")]
        assert all(l["correct"] and l["failed"] == 0 for l in lines), f"{name}: a run failed"
        sets[s] = lines
    print(f"## {name}")
    print()
    print("| metric | unit | median A | median B | diff | spread A | spread B | bound | flags |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for metric in bench["end_to_end"]:
        m = metric["name"]
        a = [l["metrics"][m]["value"] for l in sets["A"]]
        b = [l["metrics"][m]["value"] for l in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        flags = ""
        if abs(worse) > metric["bound"] / 2:
            flags += "D"
        # The driver does not hold setup_s to a spread.
        if m != "setup_s" and max(sa, sb) > metric["bound"] / 3:
            flags += "S"
        flagged += bool(flags)
        print(f"| `{m}` | {metric['unit']} | {ma:.6g} | {mb:.6g} | {worse:+.2%} | "
              f"{sa:.2%} | {sb:.2%} | {metric['bound']:.0%} | {flags} |")
    print()
print(f"{flagged} of {len(bench['workloads']) * len(bench['end_to_end'])} rows flagged.")
PY
