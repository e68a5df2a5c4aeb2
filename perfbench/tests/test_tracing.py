import json
from pathlib import Path

import pytest

from termsep import synth, terms
from termsep.terms import parse_term

from perfbench import tracing

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_on_a_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("other-op", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 5.0, 0, 0), ("b", 3.0, 12.0, 0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_install_records_spans_and_uninstall_restores():
    original = (synth.find_cover_pair, terms.parse_term)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 7
        s, t = terms.parse_term("x*y"), terms.parse_term("(x*u)*v")
        result = synth.decide_finite_separability(s, t)
    finally:
        tracer.uninstall()
    assert (synth.find_cover_pair, terms.parse_term) == original
    names = [span[0] for span in tracer.spans]
    assert names.count("terms.parse_term") == 2
    assert "synth.find_cover_pair" in names and "vecops.compile_opsum" in names
    assert {span[4] for span in tracer.spans} == {7}
    decide = names.index("synth.decide_finite_separability")
    cover = names.index("synth.find_cover_pair")
    assert tracer.spans[cover][3] == decide
    metrics = tracer.layer_metrics()
    assert metrics[f"synth.construction.{result.construction}"] == 1
    assert metrics["unify.unify.trace_steps"] > 0


def test_search_candidates_are_counted_under_the_search_span():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = synth.decide_finite_separability(parse_term("x*(y*y)"), parse_term("(y*(y*z))*x"), 50)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert result.verdict == "unknown"
    assert metrics["synth.search_separator.candidates"] == 50
    assert metrics["synth.search_separator.hits"] == 0
    assert metrics["gf2.solve.cells"] > 0


def test_layer_metrics_are_the_per_layer_metrics_of_the_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in contract["per_layer"]}
    added_by_run = {"bench.op.output_bytes", "trace.ops", "trace.overhead_ms", "trace.overhead_share"}
    assert set(tracing.Tracer().layer_metrics()) == names - added_by_run
