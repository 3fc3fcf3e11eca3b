#!/usr/bin/env python3
"""Alternating A/B runs of the end-to-end benchmark: parent vs change.

    python3 results/ab.py --parent DIR --change DIR --workload W [W ...] \\
        --seed S [S ...] --pairs N [--out FILE]

Each DIR is a checkout with a built `e2e/target/release/e2e` (build it with
`cargo build --release --offline --manifest-path e2e/Cargo.toml`). For every
workload and seed the two binaries run N times each, one process at a time,
with the arguments BENCHMARK.json implies (`--workload W --seed S --seconds
<run_seconds> --trace 0`), each from its own checkout, alternating which
side goes first (P C, C P, P C, ...).

Writes the raw per-run lines (the `results/runs/PR-N.md` format, every
end-to-end metric in BENCHMARK.json order, full precision) to FILE, appended,
or to stdout without `--out`; then prints the CHANGES.md table: per metric
the median [q1–q3] of each side, the change's wins / ties / pairs (pair i is
parent run i against change run i), how much worse the change's median
is than the parent's in the metric's bad direction (negative = better),
with the bound BENCHMARK.json sets, and a verdict:

  identical     equal in every run on both sides (printed once);
  better        the change wins at least 9 of 10 pairs (ties count for
                neither) and the medians differ, its way, by more than the
                parent's interquartile range;
  unresolved    the parent's interquartile range is wider than the bound,
                and not every change run reads better than every parent run
                (nor, with the median worse by more than the bound, every
                change run worse than every parent run);
  worse         the change's median is worse by more than the bound;
  within bound  otherwise.

The verdicts are tested in that order; `python3 -m doctest results/ab.py`
runs the examples on `verdict`.

Metric names, directions, bounds and run_seconds are read from the change
checkout's BENCHMARK.json. Stdlib only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    """One benchmark process; the parsed JSON line it ends with."""
    exe = os.path.join(checkout, "e2e", "target", "release", "e2e")
    args = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} (in {checkout}) exited {p.returncode}:\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(xs):
    """(q1, median, q3), inclusive method; a single run is its own spread."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def spread(xs):
    """`median [q1–q3]` to four significant digits."""
    q1, med, q3 = quartiles(xs)
    return f"{med:.4g} [{q1:.4g}–{q3:.4g}]"


def better(a, b, higher):
    """Whether `b` reads better than `a`."""
    return b > a if higher else b < a


def worse_by(p, c, higher):
    """How much worse the change's median is than the parent's, in percent
    of the parent's (negative = better)."""
    pm, cm = quartiles(p)[1], quartiles(c)[1]
    return (pm - cm if higher else cm - pm) / pm * 100 if pm else 0.0


def wins(p, c, higher):
    """Pairs (parent run i, change run i) that the change wins."""
    return sum(1 for a, b in zip(p, c) if better(a, b, higher))


def verdict(p, c, higher, bound):
    """The module doc's verdict on one metric's parent runs `p` and change
    runs `c`; `higher` when higher is better, `bound` a fraction.

    >>> verdict([1.0] * 5, [1.0] * 5, True, 0.03)
    'identical'
    >>> verdict([100, 101, 102, 103, 104], [110, 111, 112, 113, 114], True, 0.25)
    'better'

    A `plan_ms_p99` of five pairs whose parent interquartile range is 42 %
    of its median, against a 25 % bound: the change's median reads 27 %
    worse, but its runs straddle the parent's.

    >>> parent = [0.04093, 0.04731, 0.04758, 0.06720, 0.1026]
    >>> change = [0.03815, 0.03951, 0.06050, 0.07332, 0.07100]
    >>> round(worse_by(parent, change, False), 1)
    27.2
    >>> verdict(parent, change, False, 0.25)
    'unresolved'

    With every change run worse than every parent run, the same spread
    does not hide a median past the bound; nor does a narrow one.

    >>> verdict(parent, [x + 0.07 for x in parent], False, 0.25)
    'worse'
    >>> verdict([100, 101, 102, 103, 104], [60, 61, 62, 63, 64], True, 0.25)
    'worse'
    >>> verdict([100, 101, 102, 103, 104], [99, 100, 101, 102, 103], True, 0.25)
    'within bound'
    """
    if len(set(p + c)) == 1:
        return "identical"
    q1, pm, q3 = quartiles(p)
    cm = quartiles(c)[1]
    if 10 * wins(p, c, higher) >= 9 * len(p) and better(pm, cm, higher) and abs(cm - pm) > q3 - q1:
        return "better"
    past_bound = worse_by(p, c, higher) > bound * 100
    all_better = all(better(a, b, higher) for a in p for b in c)
    all_worse = all(better(b, a, higher) for a in p for b in c)
    if q3 - q1 > bound * abs(pm) and not all_better and not (past_bound and all_worse):
        return "unresolved"
    if past_bound:
        return "worse"
    return "within bound"


def table_rows(workload, seed, metrics, parent, change):
    """The CHANGES.md rows for one workload and seed."""
    rows = []
    for m in metrics:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        ties = sum(1 for a, b in zip(p, c) if a == b)
        head = f"| `{workload}` | {seed} | `{name}` |"
        tail = (f"{wins(p, c, higher)} / {ties} / {len(p)} "
                f"| {worse_by(p, c, higher):+.1f} % ({bound * 100:g} %) "
                f"| {verdict(p, c, higher, bound)} |")
        if len(set(p + c)) == 1:
            rows.append(f"{head} {p[0]!r} | {c[0]!r} | {tail}")
        else:
            rows.append(f"{head} {spread(p)} | {spread(c)} | {tail}")
    return rows


def raw_lines(workload, seed, metrics, side, runs):
    """One `results/runs` line: every run of one side, in run order."""
    vals = "; ".join("/".join(repr(r["metrics"][m["name"]]["value"]) for m in metrics)
                     for r in runs)
    return f"- `{workload}` seed {seed} {side} ({runs[0]['attempted']} jobs): {vals}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seed", required=True, nargs="+", type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--out", help="append the raw per-run lines here")
    a = ap.parse_args()
    # Each binary runs with its own checkout as the working directory, so a
    # relative path must not be joined onto it a second time.
    a.parent, a.change = os.path.abspath(a.parent), os.path.abspath(a.change)

    with open(os.path.join(a.change, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    names = " / ".join("`%s`" % m["name"] for m in metrics)
    raw = [f"Per run, in run order: {names}.", ""]
    rows = []
    unclean = 0
    for workload in a.workload:
        for seed in a.seed:
            sides = {"parent": [], "change": []}
            for i in range(a.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run(getattr(a, side), workload, seed, bench["run_seconds"])
                    unclean += not r["correct"] or r["failed"] != 0
                    sides[side].append(r)
            raw += [raw_lines(workload, seed, metrics, s, sides[s]) for s in sides]
            rows += table_rows(workload, seed, metrics, sides["parent"], sides["change"])

    raw.append("")
    raw.append(f"`correct` false or `failed` > 0 in {unclean} runs.")
    if a.out:
        with open(a.out, "a", encoding="utf-8") as f:
            f.write("\n".join(raw) + "\n\n")
    else:
        print("\n".join(raw) + "\n")
    print("| workload | seed | metric | parent median [q1–q3] | change median [q1–q3] "
          "| change wins / ties / pairs | change worse by (bound) | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))


if __name__ == "__main__":
    main()
