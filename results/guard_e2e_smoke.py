#!/usr/bin/env python3
"""Guard the e2e smoke run's deterministic rows against results/e2e_smoke_baseline.json.

    cargo run --release --manifest-path e2e/Cargo.toml -- --smoke --out e2e/target/e2e.smoke.json
    python3 results/guard_e2e_smoke.py

Run from the repository root. Simulated results and solver/stack counts
repeat exactly per (code, seed) on any machine, so any difference from the
committed rows is a behaviour change: counts compare exactly, floats to 1e-9
relative. Writes this run's rows to e2e/target/e2e_smoke_rows.json (the file
a re-baseline copies) and exits 1 on any difference or missing row. Stdlib
only.
"""
import json, math, re
GUARDED = re.compile(
    r"replay\.node_match_frac|cpsolve\.(solve\.(nodes|fails)|props\.\w+\.runs)|rm\.\w+\.calls"
    r"|mrcp\.manager\.(warm_frac|cache_invalidations|tasks_in_model_(p50|max)|pinned_frac)"
    r"|durability\.(wal\.appends|snapshot\.count)|cluster\.rounds|service\.batches|workload\.tasks_total")
fresh, sampled = {}, set()
for name, res in json.load(open("e2e/target/e2e.smoke.json"))["results"].items():
    e2e, layers = res["end_to_end"], res["per_layer"]["metrics"]
    row = {k: e2e[k] for k in ("attempted", "failed")}
    row.update({k: e2e["metrics"][k]["value"] for k in ("on_time_frac", "turnaround_s")})
    # The traced pass re-enacts every k-th round and picks k from wall
    # time, so its counts repeat only when nothing was sampled out.
    if layers["replay.sample_k"]["value"] == 1:
        row.update({k: v["value"] for k, v in layers.items() if GUARDED.fullmatch(k)})
    else:
        sampled.add(name)
    fresh[name] = row
json.dump(fresh, open("e2e/target/e2e_smoke_rows.json", "w"), indent=1, sort_keys=True)
base = json.load(open("results/e2e_smoke_baseline.json"))
side = lambda name, old: f"{name} {'missing from this run' if name in old else 'not in the baseline'}"
lost = [side(w, base) for w in sorted(base.keys() ^ fresh.keys())]
both = sorted(base.keys() & fresh.keys())
# A guarded row that disappears or is renamed must fail, not shrink
# the comparison: the two key sets of a workload have to be equal.
for w in both:
    one_sided = base[w].keys() ^ fresh[w].keys()
    if w in sampled:
        print(f"{w}: COUNTS NOT GUARDED THIS RUN (replay.sample_k != 1, slow runner): only its simulated rows are compared")
        one_sided &= fresh[w].keys()
    lost += [f"{w}: {side(k, base[w])}" for k in sorted(one_sided)]
rows = [(w, k, base[w][k], fresh[w][k]) for w in both for k in sorted(base[w].keys() & fresh[w].keys())]
diffs = [r for r in rows if not math.isclose(r[2], r[3], rel_tol=1e-9, abs_tol=0.0)]
for line in lost:
    print(line)
for w, k, old, new in diffs:
    print(f"{w}: {k} {old} -> {new}")
print(f"{len(rows)} guarded rows compared, {len(diffs)} differ, {len(lost)} missing or extra")
if diffs or lost:
    print("intended? re-baseline with: cp e2e/target/e2e_smoke_rows.json results/e2e_smoke_baseline.json")
    raise SystemExit(1)
