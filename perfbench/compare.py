"""Compare the result sets of two commits, one row per workload and metric.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by run.py with
--trace 0, searched recursively.  Runs pair up by workload and seed, so
run both commits on the same seeds, alternating which goes first.  Each
row gives both sides' median and quartiles, the change's win share, and
a verdict:

- better: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither), and the medians differ by more than the
  distance between the parent's quartiles;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json, as a share of the parent's median;
- unresolved: the parent's quartile distance, as a share of its median,
  is wider than the bound, and not every change run beats every parent run;
- unchanged: none of these.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge paired runs (parent[i] and change[i] share a seed)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    spread = p3 - p1
    if len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and gain > spread:
        word = "better"
    elif -gain > bound * abs(pm):
        word = "worse"
    elif spread > bound * abs(pm) and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        word = "unresolved"
    else:
        word = "unchanged"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "pairs": len(parent),
        "verdict": word,
    }


def load(directory) -> dict[tuple[str, int], dict[str, float]]:
    """(workload, seed) -> end-to-end metric values, untraced runs only."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        meta = record.get("meta", {})
        if meta.get("trace") != 0:
            continue
        values = {k: m["value"] for k, m in record["result"]["metrics"].items()}
        runs[(meta["workload"], meta["seed"])] = values
    return runs


def compare(parent_dir, change_dir, contract) -> list[tuple[str, str, dict]]:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        for metric in contract["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)][name] for s in seeds]
            c = [change[(workload, s)][name] for s in seeds]
            rows.append((workload, name, verdict(p, c, metric["better"], metric["bound"])))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(argv[0], argv[1], contract)
    print(f"{'workload':<14} {'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>7}  verdict")
    for workload, name, r in rows:
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        print(f"{workload:<14} {name:<14} {pm:<11.5g}[{p1:.5g}, {p3:.5g}]".ljust(64)
              + f" {cm:<11.5g}[{c1:.5g}, {c3:.5g}]".ljust(35)
              + f" {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
