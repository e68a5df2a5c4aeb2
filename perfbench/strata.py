"""Record which small-sweep pairs need the search fallback.

    python3 perfbench/strata.py

Decides every one of the 110,685 pairs of the sweep universe with
`decide_finite_separability` and writes perfbench/sweep_strata.json: the
pair indices (as gen.unrank_pair reads them) that were decided by search,
under "search", and those that ended unknown, under "unknown-<n>" by the
number n of leaves in the pair, since that sets the cost of the search
that fails.  All other pairs are the fast stratum, decided by the
unifier, a cover or a cycle.  The small-sweep workload puts a fixed number
of pairs from each stratum into every batch, so that the search fallback
has the same share of every run.  The file is an input of the benchmark
and is not rewritten by a run; on the program it was made with, the sweep
took about 205 s of one core, 180 s of it on the 228 unknown pairs.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STRATA = Path(__file__).resolve().parent / "sweep_strata.json"
WORKERS = 2


def _decide(bounds):
    from termsep import synth, terms

    from perfbench import gen

    universe = [gen.render(t) for t in gen.sweep_universe()]
    parsed = [terms.parse_term(text) for text in universe]
    out = []
    for k in range(*bounds):
        i, j = gen.unrank_pair(k, len(universe))
        start = time.perf_counter()
        result = synth.decide_finite_separability(parsed[i], parsed[j])
        out.append((k, result.construction or "unknown", time.perf_counter() - start))
    return out


def strata_of(decided) -> dict[str, list[int]]:
    """Sorted pair indices of each stratum but the fast one, from rows
    (index, construction or "unknown")."""
    from perfbench import gen

    leaves = [_leaves(t) for t in gen.sweep_universe()]
    strata: dict[str, list[int]] = {}
    for k, kind in decided:
        if kind == "unknown":
            i, j = gen.unrank_pair(k, len(leaves))
            kind = f"unknown-{leaves[i] + leaves[j]}"
        if kind == "search" or kind.startswith("unknown"):
            strata.setdefault(kind, []).append(k)
    return {kind: sorted(ks) for kind, ks in sorted(strata.items())}


def _leaves(t) -> int:
    return 1 if isinstance(t, str) else _leaves(t[0]) + _leaves(t[1])


def main() -> int:
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import gen

    step = 1000
    chunks = [(a, min(a + step, gen.SWEEP_PAIRS)) for a in range(0, gen.SWEEP_PAIRS, step)]
    with get_context("spawn").Pool(WORKERS) as pool:
        decided = [row for chunk in pool.imap(_decide, chunks) for row in chunk]
    by_kind: dict[str, list] = {}
    for k, kind, seconds in decided:
        by_kind.setdefault(kind, []).append((k, seconds))
    for kind, rows in sorted(by_kind.items()):
        times = sorted(s for _, s in rows)
        q = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"{kind:10} {len(rows):7d} pairs {sum(times):8.1f} s"
              f"  quartiles {q[0] * 1e3:.2f} {q[1] * 1e3:.2f} {q[2] * 1e3:.2f} ms"
              f"  max {times[-1] * 1e3:.1f} ms")
    strata = strata_of((k, kind) for k, kind, _ in decided)
    STRATA.write_text(json.dumps(strata, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
