import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from termsep.cli import main as cli

from perfbench import gen, run, workloads

ROOT = Path(__file__).resolve().parents[2]


def _run(workload, seconds=0.0, seed=3):
    workload.setup(seed)
    records, batches, refs = run.measure(workload, seconds, workload.run_op, run.settler(workload, seed))
    assert [r.failure for r in records if r.failure] == []
    assert len(refs) == len(records) and min(refs) > 0
    return records, batches


def test_small_sweep_batches_hold_each_stratum(monkeypatch):
    per_batch = {"unknown-8": 0, "unknown-7": 1, "search": 1, "fast": 30}
    monkeypatch.setattr(workloads.SmallSweep, "PER_BATCH", per_batch)
    records, batches = _run(workloads.SmallSweep())
    assert batches == [32]
    verdicts = [r.verdict for r in records]
    assert verdicts.count("unknown") == 1
    assert set(verdicts) <= {"separated", "not_separable", "unknown"}


def test_sweep_strata_are_disjoint_sets_of_pair_indices():
    strata = json.loads(workloads.STRATA.read_text())
    assert strata.keys() | {"fast"} == workloads.SmallSweep.PER_BATCH.keys()
    every = [k for indices in strata.values() for k in indices]
    assert all(indices == sorted(indices) for indices in strata.values())
    assert len(set(every)) == len(every)
    assert 0 <= min(every) and max(every) < gen.SWEEP_PAIRS


def test_large_pairs_on_smaller_sizes(monkeypatch):
    monkeypatch.setattr(gen, "SPLIT_LEAVES", (60,))
    monkeypatch.setattr(gen, "CHAIN_LINKS", (6,))
    monkeypatch.setattr(gen, "COMB_DEPTHS", (12,))
    records, batches = _run(workloads.LargePairs())
    assert [r.verdict for r in records] == ["separated", "not_separable", "separated"]
    assert batches == [3]


def test_antiassoc_keeps_the_whole_cli_document(monkeypatch):
    monkeypatch.setattr(workloads.AntiassocK6, "K", 4)
    records, _ = _run(workloads.AntiassocK6())
    printed = CliRunner().invoke(cli, ["antiassoc", "verify", "-k", "4", "--budget-evals", str(2**18)])
    assert printed.exit_code == 0
    assert records[0].output_bytes == len(printed.output)


def test_antiassoc_check_rejects_a_wrong_factor():
    workload = workloads.AntiassocK6()
    doc = json.loads(workload.run_op(4))
    rng = random.Random(0)
    assert workload.check(4, json.dumps(doc), rng) is None
    doc["certificates"][3]["certificate"]["lambda"] = []
    assert "lambda" in workload.check(4, json.dumps(doc), rng)
    doc["certificates"].pop()
    assert "factors" in workload.check(4, json.dumps(doc), rng)


def test_pair_document_is_the_cli_document():
    workload = workloads.SmallSweep()
    for s, t in [("x*y", "(x*u)*v"), ("x*(y*y)", "(z*z)*w"), ("x", "x*x")]:
        item = ("pair", None, None, s, t)
        printed = CliRunner().invoke(cli, ["separate", s, t])
        assert printed.exit_code == 0
        assert workload.output_bytes(workload.run_op(item)) == len(printed.output)


def test_census_n3(monkeypatch):
    monkeypatch.setattr(workloads.CensusN4, "N", 3)
    records, _ = _run(workloads.CensusN4())
    assert records[0].verdict == "counted"


def _result_line(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return done


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_contract_metrics(trace, section):
    done = _result_line("--workload", "small-sweep", "--seed", "5", "--seconds", "0.2", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in contract[section]
    }


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _result_line("--workload", "census-n4", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
