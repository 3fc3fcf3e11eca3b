#!/usr/bin/env python3
"""Guard the figures' simulated columns against the committed results/*.csv.

    cargo run --release -p experiments --bin run_experiments -- all --default --out /tmp/default
    python3 results/guard_figures.py [OUT_DIR]

Run from the repository root. OUT_DIR is the run's --out directory
(default /tmp/default). The solver budget is counted in nodes, never
timed, so every simulated column repeats exactly per seed on any machine and
the committed results/*.csv are a golden file: any difference is a behaviour
change. Not compared: O (wall clock). Exits 1 on any difference or missing
row. Stdlib only.
"""
import csv, glob, os, sys
SIMULATED = ("reps", "p_late", "p_late_hw", "n_late", "n_late_hw",
             "turnaround_s", "turnaround_hw", "rejected_frac", "rejected_hw")
def rows(out_dir):
    out = {}
    for path in glob.glob(f"{out_dir}/*.csv"):
        for r in csv.DictReader(open(path, newline="")):
            out[os.path.basename(path), r["point"], r["series"]] = {c: r[c] for c in SIMULATED}
    return out
out_dir = sys.argv[1] if len(sys.argv) > 1 else "/tmp/default"
base, fresh = rows("results"), rows(out_dir)
# A row that disappears or is renamed must fail, not shrink the
# comparison: the (figure, point, series) key sets have to be equal.
lost = [f"{k} {'missing from this run' if k in base else 'not in results/'}"
        for k in sorted(base.keys() ^ fresh.keys())]
both = sorted(base.keys() & fresh.keys())
diffs = [f"{k} {c} {base[k][c]} -> {fresh[k][c]}"
         for k in both for c in SIMULATED if base[k][c] != fresh[k][c]]
for line in lost + diffs:
    print(line)
print(f"{len(both)} rows compared, {len(diffs)} values differ, {len(lost)} missing or extra")
if diffs or lost:
    print(f"intended? re-baseline with: cp {out_dir}/* results/")
    raise SystemExit(1)
