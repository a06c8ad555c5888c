#!/usr/bin/env bash
# A/A check: two sets of N timed runs of the same build, each run with
# another seed, judged as the acceptance driver judges them. Prints a
# Markdown table per workload and end-to-end metric: both medians, both
# quartile ranges (as a share of the median), how much worse the second
# median is than the first, and the metric's bound from BENCHMARK.json.
# A quartile range or a gap beyond the bound is a breach; any breach
# exits non-zero. Run from anywhere:
#
#   benchmark/aa.sh [N]            (default 5; benchmark/AA.md used 10)
set -euo pipefail

runs="${1:-5}"
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/polarbench"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
for workload in oltp_point crossdc_txn htap_scan htap_mixed; do
    for set in a b; do
        for run in $(seq 1 "$runs"); do
            seed=$run
            [ "$set" = b ] && seed=$((1000 + run))
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$workload.$set.$run.json"
        done
    done
done

python3 - "$out" "$runs" <<'PY'
import glob, json, os, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
manifest = json.load(open("BENCHMARK.json"))
print("| workload | metric | median A | IQR A | median B | IQR B | B worse by | bound | |")
print("|---|---|---:|---:|---:|---:|---:|---:|---|")
breaches = 0
for workload in [w["name"] for w in manifest["workloads"]]:
    sets = {}
    for s in "ab":
        files = sorted(glob.glob(os.path.join(out, f"{workload}.{s}.*.json")))
        sets[s] = [json.load(open(f)) for f in files]
        assert len(sets[s]) == runs and all(r["correct"] and r["failed"] == 0 for r in sets[s]), workload
    for metric in manifest["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        median, iqr = {}, {}
        for s in "ab":
            values = [r["metrics"][name]["value"] for r in sets[s]]
            q = statistics.quantiles(values, n=4)
            median[s] = statistics.median(values)
            iqr[s] = (q[2] - q[0]) / median[s]
        worse = (median["a"] - median["b"] if metric["better"] == "higher" else median["b"] - median["a"]) / median["a"]
        # The driver does not hold setup_s to the spread rule, only to the gap.
        spread_ok = name == "setup_s" or max(iqr.values()) <= bound
        verdict = "ok" if spread_ok and worse <= bound else "BREACH"
        breaches += verdict != "ok"
        print(f"| {workload} | {name} | {median['a']:.4f} | {iqr['a']:.1%} | {median['b']:.4f} | "
              f"{iqr['b']:.1%} | {worse:+.1%} | {bound:.0%} | {verdict} |")
print()
print(f"{breaches} breach(es); {runs} runs per set, seeds 1..{runs} and 1001..{1000 + runs}, "
      f"{manifest['run_seconds']} s each")
sys.exit(1 if breaches else 0)
PY
