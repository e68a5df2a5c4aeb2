import json
import re
import time
from pathlib import Path

from perfbench import run, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_schema():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in contract["workloads"])
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in contract["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in contract["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in contract["end_to_end"] + contract["per_layer"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in contract["end_to_end"]
    assert 1 <= contract["run_seconds"] <= 60


def test_end_to_end_metrics_are_computed():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.CensusN4()
    records = [run.Settled(0.5, "counted", 120, None), run.Settled(0.7, "counted", 120, None)]
    metrics = run.end_to_end(workload, records, [1, 1], [0.25, 0.5])
    assert {m["name"] for m in contract["end_to_end"]} - set(metrics) == {"setup_s"}
    assert set(metrics) - {m["name"] for m in contract["end_to_end"]} == set(run.REPORTED)
    assert metrics["op_tail_ms"] == 700.0 and metrics["op_p50_ms"] == 600.0
    assert metrics["op_tail_ref"] == 2.0 and metrics["op_p50_ref"] == 1.7
    assert metrics["ops_per_ref"] == 2 / (2.0 + 1.4)
    assert metrics["wall_s"] == 0.6
    assert run.tail([3, 1, 2, 5, 4], 80) == (4, 1)


def test_long_operations_have_the_reference_timed_inside():
    class Spin:
        def batches(self):
            while True:
                yield [run.REF_INSIDE_AFTER + 0.25]

    def spin(seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass

    latencies, sizes, refs = run.measure(Spin(), 1.0, spin, lambda item, out, error, latency: latency)
    assert sizes == [1]
    # the spin ends at a fixed wall time, so only the samples taken inside
    # it, whose time is not counted, bring its latency below its length
    assert run.REF_INSIDE_AFTER + 0.2 < latencies[0] < run.REF_INSIDE_AFTER + 0.25
    assert all(ref > 0 for ref in refs)
