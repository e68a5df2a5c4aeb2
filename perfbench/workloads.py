"""The four workloads, each a closed loop with one client.

A workload yields batches of items; `run_op` is the timed operation and
`check` the independent re-check made after the timed region.  Everything
reaches termsep through its public modules, looked up at call time so that
the traced run sees the calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import random
from pathlib import Path

from termsep import cli, synth, terms, verify

from perfbench import check, gen
from perfbench.tracing import dumps

census_module = importlib.import_module("termsep.census")  # the package rebinds the name

CROSS_CHECK_BUDGET = 2**15  # brute-force assignments the gate may spend on one pair
STRATA = Path(__file__).resolve().parent / "sweep_strata.json"


class PairWorkload:
    """Term pairs fed as text; one operation is parse, decide, and
    `verify.check_parity_functional` on any certificate."""

    def run_op(self, item):
        _, _, _, s_text, t_text = item
        s, t = terms.parse_term(s_text), terms.parse_term(t_text)
        result = synth.decide_finite_separability(s, t)
        parity_ok = None
        if result.certificate is not None:
            cert = result.certificate
            parity_ok = verify.check_parity_functional(cert.groupoid, s, t, cert.lam)
        return s, t, result, parity_ok

    @staticmethod
    def verdict(out) -> str:
        return out[2].verdict

    @staticmethod
    def output_bytes(out) -> int:
        return len(dumps(out[2].to_json())) + 1

    def check(self, item, out, rng) -> str | None:
        """None when the output re-proves, else the reason it does not."""
        _, s0, t0, _, _ = item
        s, t, result, parity_ok = out
        if result.verdict == "separated":
            if not parity_ok:
                return "verify.check_parity_functional rejected the certificate"
            doc = result.to_json()
            if not check.lambda_separates(s0, t0, doc["groupoid"], doc["lambda"], rng):
                return "lambda takes equal parities on a sampled assignment"
            G = result.certificate.groupoid
            space = G.order ** len(check.variables(s0) | check.variables(t0))
            if space <= CROSS_CHECK_BUDGET and not verify.cross_check(
                G, s, t, budget=CROSS_CHECK_BUDGET
            ):
                return "verify.cross_check: brute force disagrees"
        elif result.verdict == "not_separable":
            if not check.witness_identifies(s0, t0, result.unifier.witness):
                return "the one-variable witness does not identify s and t"
        elif result.verdict != "unknown":
            return f"unexpected verdict {result.verdict!r}"
        return None


def _item(kind, s, t):
    return kind, s, t, gen.render(s), gen.render(t)


class SmallSweep(PairWorkload):
    """A seeded stratified sample, without replacement, of the 110,685 pairs
    of distinct terms with at most four leaves over x, y, z.

    sweep_strata.json names the pairs that the search fallback decided and
    those that ended unknown, the latter by their number of leaves; every
    other pair is fast.  Each batch holds PER_BATCH pairs of each stratum,
    near the proportions of the whole sweep (84 unknown with 8 leaves, 144
    with 7, 480 search, 109,977 fast), so that search takes the same share
    of every run's time, near its share of the full sweep's.
    """

    name = "small-sweep"
    # p95 lies in the dense body of cover and cycle pairs; the search and
    # unknown pairs lie above p99.3
    tail_percentile = 95.0
    PER_BATCH = {"unknown-8": 1, "unknown-7": 2, "search": 6, "fast": 1309}
    WARM_UP_TERMS = 66  # the terms with at most 3 leaves come first in the universe
    WARM_UP_STEP = 53  # every 53rd of their 2,145 pairs: 41 pairs, none needing search

    def setup(self, seed: int):
        universe = gen.sweep_universe()
        if len(universe) != gen.SWEEP_TERMS or len(set(universe)) != gen.SWEEP_TERMS:
            raise RuntimeError(f"universe has {len(universe)} terms, not {gen.SWEEP_TERMS}")
        if len(universe) * (len(universe) - 1) // 2 != gen.SWEEP_PAIRS:
            raise RuntimeError("universe pair count is not 110,685")
        self.universe = universe
        self.texts = [gen.render(t) for t in universe]
        strata = json.loads(STRATA.read_text())
        if strata.keys() | {"fast"} != self.PER_BATCH.keys():
            raise RuntimeError(f"{STRATA.name} does not hold the strata {list(self.PER_BATCH)}")
        stratum = dict.fromkeys(range(gen.SWEEP_PAIRS), "fast")
        for name, indices in strata.items():
            stratum.update(dict.fromkeys(indices, name))
        if len(stratum) != gen.SWEEP_PAIRS:
            raise RuntimeError(f"{STRATA.name} names pairs outside the universe")
        self.streams = {name: [] for name in self.PER_BATCH}
        for k in gen.sweep_order(seed):
            self.streams[stratum[k]].append(k)
        self.rng = random.Random(seed)
        warm = self.WARM_UP_TERMS
        for k in range(0, warm * (warm - 1) // 2, self.WARM_UP_STEP):
            self.run_op(self._pair(*gen.unrank_pair(k, warm)))

    def _pair(self, i, j):
        return ("sweep", self.universe[i], self.universe[j], self.texts[i], self.texts[j])

    def batches(self):
        n = len(self.universe)
        streams = {name: itertools.cycle(self.streams[name]) for name in self.PER_BATCH}
        while True:
            indices = [next(streams[name]) for name, count in self.PER_BATCH.items()
                       for _ in range(count)]
            self.rng.shuffle(indices)
            yield [self._pair(*gen.unrank_pair(k, n)) for k in indices]


class LargePairs(PairWorkload):
    """Each batch holds one pair of every kind and size in gen.large_batch:
    random splits, unifiable binding chains and deep combs."""

    name = "large-pairs"
    tail_percentile = 75.0

    def setup(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        warm = [("split", *gen.split_pair(rng, 40)), ("chain", *gen.chain_pair(rng, 4)),
                ("comb", *gen.comb_pair(rng, 8))]
        for kind, s, t in warm:
            self.run_op(_item(kind, s, t))
        self.first = [_item(*p) for p in gen.large_batch(seed, 0)]

    def batches(self):
        yield self.first
        for index in itertools.count(1):
            yield [_item(*p) for p in gen.large_batch(self.seed, index)]


class AntiassocK6:
    """`termsep antiassoc verify -k 6 --budget-evals 262144`, run in this
    process through the CLI's own entry point: build every factor, check
    every parity functional, brute-force the factors whose assignment space
    fits the budget, and print the JSON document.  The document is kept
    as printed and checked afterwards."""

    name = "antiassoc-k6"
    tail_percentile = 100.0
    K = 6
    BUDGET = 2**18

    def setup(self, seed: int):
        self.run_op(min(self.K, 4))

    def batches(self):
        while True:
            yield [self.K]

    def run_op(self, k) -> str:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main(["antiassoc", "verify", "-k", str(k), "--budget-evals", str(self.BUDGET)],
                     standalone_mode=False)
        return stdout.getvalue()

    @staticmethod
    def verdict(out) -> str:
        return "separated"

    @staticmethod
    def output_bytes(out) -> int:
        return len(out)  # the document is ASCII: json.dumps escapes the rest

    def check(self, k, out, rng) -> str | None:
        doc = json.loads(out)
        own = {gen.render(t): t for t in gen.ordered_terms(k)}
        want = math.comb(len(own), 2)
        entries = doc["certificates"]
        if len(entries) != want:
            return f"{len(entries)} factors, not {want}"
        pairs = {frozenset((e["s"], e["t"])) for e in entries}
        if len(pairs) != want or any(len(p) != 2 or not p <= own.keys() for p in pairs):
            return "the factors do not cover each pair of distinct ordered terms once"
        if doc["all_ok"] is not True:
            return "the document does not report all_ok true"
        width = 0
        for e in entries:
            G = e["certificate"]["groupoid"]
            width += len(G["indices"])
            feasible = (2 ** len(G["indices"])) ** k <= self.BUDGET
            if e["affine_ok"] is not True or e.get("exhaustive_ok", feasible) is not feasible:
                return f"factor {e['s']} | {e['t']} failed its parity or brute-force check"
            if not check.lambda_separates(own[e["s"]], own[e["t"]], G, e["certificate"]["lambda"], rng):
                return f"factor {e['s']} | {e['t']}: lambda takes equal parities"
        # a document that lists only the factors has no direct sum to check
        if "groupoid" in doc and len(doc["groupoid"]["indices"]) != width:
            return "the direct sum is not as wide as its factors together"
        return None


class CensusN4:
    """census(4, workers=2, long_run=True): the 421,560 3-antiassociative
    tables of order 4, counted by two worker processes."""

    name = "census-n4"
    tail_percentile = 75.0  # the second largest of the four to six censuses in a run
    N, WORKERS, EXPECTED = 4, 2, 421_560
    tracer = None  # set by a traced run, for the census progress callback

    def setup(self, seed: int):
        # in one process: every census starts its own pool, so a pool
        # started here would warm nothing and only add noise to setup_s
        census_module.census(3)

    def batches(self):
        while True:
            yield [self.N]

    def run_op(self, n):
        progress = self.tracer.census_progress if self.tracer else None
        return census_module.census(n, workers=self.WORKERS, long_run=True, progress=progress)

    @staticmethod
    def verdict(out) -> str:
        return "counted"

    @staticmethod
    def output_bytes(out) -> int:
        return len(dumps(out.to_json())) + 1

    def check(self, n, report, rng) -> str | None:
        expected = {3: 52, 4: self.EXPECTED}[n]
        if report.antiassociative_count != expected or report.total_tables != n ** (n * n):
            return f"census counted {report.antiassociative_count}, not {expected}"
        return None


WORKLOADS = {w.name: w for w in (SmallSweep, LargePairs, AntiassocK6, CensusN4)}
