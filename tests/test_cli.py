import dataclasses
import gc
import hashlib
import io
import json
import weakref
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from click.testing import CliRunner

import dense_reference as dense
from termsep import cli, synth
from termsep.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, *args):
    result = runner.invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestTerms:
    def test_count(self, runner):
        assert run_json(runner, "terms", "count", "-k", "5") == {"k": 5, "count": 14}

    def test_enumerate_order(self, runner):
        doc = run_json(runner, "terms", "enumerate", "-k", "4")
        assert doc["terms"] == [
            "((x1*x2)*x3)*x4",
            "(x1*(x2*x3))*x4",
            "(x1*x2)*(x3*x4)",
            "x1*((x2*x3)*x4)",
            "x1*(x2*(x3*x4))",
        ]

    def test_text_format(self, runner):
        result = runner.invoke(main, ["terms", "count", "-k", "3", "--format", "text"])
        assert result.output.strip() == "2"

    def test_k_zero_rejected(self, runner):
        result = runner.invoke(main, ["terms", "count", "-k", "0"])
        assert result.exit_code == 2
        assert "error" in result.output or "error" in (result.stderr or "")


class TestUnify:
    def test_unifiable_pair(self, runner):
        doc = run_json(runner, "unify", "(x*y)*(z*y)", "z*((x*y)*(x*x))")
        assert doc["result"] == "unifier"
        assert doc["bindings"] == {"y": "x*x", "z": "x*(x*x)"}

    def test_failing_pair(self, runner):
        doc = run_json(runner, "unify", "x", "x*x")
        assert doc["result"] == "not_unifiable"

    def test_parse_error(self, runner):
        result = runner.invoke(main, ["unify", "x*(", "y"])
        assert result.exit_code == 2

    @staticmethod
    def chain(n: int) -> list[str]:
        """a1*(a2*(...*(an*y))) against (a0*a0)*((a1*a1)*(...*z)), which
        binds ai to a term of 2**i leaves."""
        s, t = "y", "z"
        for i in range(n, 0, -1):
            s = f"a{i}*({s})"
        for i in range(n - 1, -1, -1):
            t = f"(a{i}*a{i})*({t})"
        return [s, t]

    def test_chain_bindings_over_render_bound_refused(self, runner):
        doc = run_json(runner, "separate", *self.chain(16))
        assert doc["unifier"]["a16"].count("x") == 2**16
        for command in ("unify", "separate"):
            result = runner.invoke(main, [command, *self.chain(21)])
            assert result.exit_code == 2 and result.stdout == ""
            assert "exceed the render bound" in json.loads(result.stderr)["error"]


class TestSeparate:
    def test_cover_pair(self, runner):
        doc = run_json(runner, "separate", "x*y", "(x*u)*v")
        assert doc["verdict"] == "separated"
        assert doc["construction"] == "cover"
        assert doc["lambda"] == [0]

    def test_not_separable(self, runner):
        doc = run_json(runner, "separate", "x*y", "y*x")
        assert doc["verdict"] == "not_separable"
        assert "unifier" in doc

    def test_emit_table_and_affine(self, runner):
        doc = run_json(
            runner, "separate", "x*y", "(x*u)*v", "--emit-table", "--emit-affine"
        )
        assert doc["affine_separated"] is True
        assert doc["cayley_csv"].splitlines()[0] == "4"

    def test_emit_table_null_above_table_bound(self, runner):
        for width in (11, 18):
            deep = "x*u"
            for _ in range(width - 1):
                deep = f"({deep})*u"  # x sits `width` steps down the left spine
            doc = run_json(runner, "separate", "x*y", deep, "--emit-table")
            assert doc["construction"] == "cover"
            assert len(doc["groupoid"]["indices"]) == width
            assert doc["cayley_csv"] is None

    def test_budget_flag(self, runner):
        doc = run_json(
            runner,
            "separate",
            "(x*y)*(z*y)",
            "z*((y*y)*(x*x))",
            "--budget-candidates",
            "0",
        )
        assert doc["verdict"] == "unknown"


class TestAntiassoc:
    def test_build_k3(self, runner):
        doc = run_json(runner, "antiassoc", "build", "-k", "3")
        assert doc["factors"] == 1
        assert doc["width"] == 2

    def test_verify_k4(self, runner):
        doc = run_json(runner, "antiassoc", "verify", "-k", "4")
        assert doc["factors"] == 10
        assert doc["all_ok"] is True
        assert all(e["affine_ok"] for e in doc["certificates"])

    def test_verify_k5_lists_factors_only(self, runner):
        doc = run_json(runner, "antiassoc", "verify", "-k", "5", "--budget-evals", "1024")
        assert "groupoid" not in doc
        assert doc["all_ok"] is True
        widths = [len(e["certificate"]["groupoid"]["indices"]) for e in doc["certificates"]]
        assert len(widths) == doc["factors"] == 91
        assert doc["width"] == sum(widths)

    def test_k8_refused(self, runner):
        result = runner.invoke(main, ["antiassoc", "build", "-k", "8"])
        assert result.exit_code == 2
        assert "pairs exceed budget" in json.loads(result.stderr)["error"]

    def test_verify_text_counts_brute_force(self, runner):
        args = ["antiassoc", "verify", "-k", "5", "--budget-evals", "1024"]
        result = runner.invoke(main, args + ["--format", "text"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        doc = run_json(runner, *args)
        brute = [e for e in doc["certificates"] if "exhaustive_ok" in e]
        factors = {json.dumps(e["certificate"]["groupoid"]) for e in brute}
        assert lines[2] == (
            f"brute-forced {len(brute)} pairs over {len(factors)} factors; "
            f"{91 - len(brute)} pairs over budget"
        )
        assert 0 < len(brute) < 91

    def test_verify_reports_a_wrong_shared_lambda(self, runner, monkeypatch):
        """One certificate that several pairs share gets a lambda that
        fails: exactly those pairs read affine_ok false."""
        certs = synth.antiassociative_certificates(5)
        shares = Counter(id(cert) for _, cert in certs)
        target = [cert for _, cert in certs if shares[id(cert)] > 1][-1]
        G, pairs = target.groupoid, [pair for pair, cert in certs if cert is target]
        # the first one-register change of lambda that fails on all its pairs
        reg = next(
            r for r in G.indices
            if not any(dense.parity_ok(G, *pair, target.lam ^ {r}) for pair in pairs)
        )
        wrong = dataclasses.replace(target, lam=target.lam ^ {reg})
        certs = [(pair, wrong if cert is target else cert) for pair, cert in certs]
        monkeypatch.setattr(synth, "antiassociative_certificates", lambda k: certs)
        doc = run_json(runner, "antiassoc", "verify", "-k", "5", "--budget-evals", "1024")
        bad = [cert is wrong for _, cert in certs]
        assert 1 < sum(bad) < len(certs)
        assert [e["affine_ok"] for e in doc["certificates"]] == [not b for b in bad]
        assert all(e.get("exhaustive_ok", True) for e in doc["certificates"])
        assert doc["all_ok"] is False

    def test_verify_reports_a_factor_that_does_not_separate(self, runner, monkeypatch):
        """A certificate whose groupoid maps every product to 0 cannot tell
        two products apart: brute force finds it, whatever its lambda."""
        certs = synth.antiassociative_certificates(4)
        (pair, cert), rest = certs[0], certs[1:]
        G = cert.groupoid
        zero = dataclasses.replace(G, xrows=(0,) * G.width, yrows=(0,) * G.width, cbits=0)
        certs = [(pair, dataclasses.replace(cert, groupoid=zero)), *rest]
        monkeypatch.setattr(synth, "antiassociative_certificates", lambda k: certs)
        doc = run_json(runner, "antiassoc", "verify", "-k", "4")
        first, *others = doc["certificates"]
        assert first["exhaustive_ok"] is False
        assert all(e["exhaustive_ok"] for e in others)
        assert doc["all_ok"] is False

    @pytest.mark.long
    def test_verify_k7(self, runner):
        result = runner.invoke(main, ["antiassoc", "verify", "-k", "7"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["factors"] == 8646
        assert doc["all_ok"] is True
        assert sum("exhaustive_ok" in e for e in doc["certificates"]) > 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "d1b3a5e9d7036a58a0c7f1a10d37ea6063b0c7cd1295a6b24703dcd1409990c2"
        )

    @pytest.mark.parametrize(
        "args, sha256",
        [
            (
                ["build", "-k", "6"],
                "3fdacc7d3f2f0b89d30fb028325d38f25e079e8cd2f4d87bc60d29e41caf5f46",
            ),
            (
                ["verify", "-k", "6", "--budget-evals", "262144"],
                "7bf6e62b830703318d077216b79fb9616202ab5da9abe3d77ae54f825ffdf13a",
            ),
            (
                ["verify", "-k", "6"],
                "e04e864e29ee5109a5601ecb544c63a648e00ea5beb5db8aad9bbf313b7befb1",
            ),
        ],
    )
    def test_k6_documents_pinned(self, runner, args, sha256):
        result = runner.invoke(main, ["antiassoc", *args])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == sha256

    def test_k2_rejected(self, runner):
        result = runner.invoke(main, ["antiassoc", "build", "-k", "2"])
        assert result.exit_code == 2

    def test_bad_action(self, runner):
        result = runner.invoke(main, ["antiassoc", "audit", "-k", "3"])
        assert result.exit_code != 0


class TestCensus:
    def test_n3(self, runner):
        doc = run_json(runner, "census", "-n", "3")
        assert set(doc) == {
            "n", "total_tables", "antiassociative_count", "literally_deranged_count", "elapsed"
        }
        assert doc["antiassociative_count"] == 52
        assert doc["literally_deranged_count"] == 16

    def test_n4_refused_without_long(self, runner):
        result = runner.invoke(main, ["census", "-n", "4"])
        assert result.exit_code == 2

    def test_n4_refusal_names_the_flag(self, runner):
        result = runner.invoke(main, ["census", "-n", "4"])
        assert result.exit_code == 2
        assert "--long" in json.loads(result.stderr)["error"]

    def test_text_line(self, runner):
        result = runner.invoke(main, ["census", "-n", "2", "--format", "text"])
        assert result.exit_code == 0
        assert "n=2: 2 antiassociative of 16 tables" in result.output


class TestDemo:
    def test_affine_example_matches_expectations(self, runner):
        doc = run_json(runner, "demo", "affine-example")
        for key, want in doc["expected"].items():
            assert doc[key] == want, key
        assert doc["separated"] is True

    def test_cycle_example(self, runner):
        doc = run_json(runner, "demo", "cycle-example")
        assert doc["cycle"]["p"] == ["ll", "lr", "rr"]
        assert doc["cycle"]["q"] == ["r", "", "r"]
        assert doc["cycle"]["f"] == {"0": 0, "1": 1, "2": 1}
        assert doc["separated"] is True

    def test_deranged_product(self, runner):
        doc = run_json(runner, "demo", "deranged-product")
        assert doc["four_antiassociative"] is True
        assert all(doc["pairs"].values())

    def test_unknown_demo(self, runner):
        result = runner.invoke(main, ["demo", "nope"])
        assert result.exit_code != 0


class TestJsonText:
    """cli._json_text gives the text of json.dumps(obj, indent=2,
    sort_keys=True), however the document shares its containers."""

    DOCUMENTS = [
        ["terms", "enumerate", "-k", "4"],
        ["terms", "count", "-k", "5"],
        ["unify", "(x*y)*(z*y)", "z*((x*y)*(x*x))"],
        ["unify", "x", "x*x"],
        ["separate", "x*y", "(x*u)*v"],
        ["separate", "x*y", "y*x"],
        ["separate", "x*(y*y)", "(y*(y*y))*x"],
        ["separate", "(x*y)*(z*y)", "z*((y*y)*(x*x))", "--budget-candidates", "0"],
        ["separate", "x*y", "(x*u)*v", "--emit-affine"],
        ["separate", "x*y", "(x*u)*v", "--emit-table"],
        ["separate", "x*y", "(x*u)*v", "--emit-table", "--emit-affine"],
        *(["antiassoc", action, "-k", k] for k in "345" for action in ["build", "verify"]),
        ["antiassoc", "build", "-k", "6"],
        ["antiassoc", "verify", "-k", "6", "--budget-evals", "262144"],
        ["census", "-n", "2"],
        ["census", "-n", "3"],
        ["demo", "affine-example"],
        ["demo", "deranged-product"],
        ["demo", "cycle-example"],
    ]

    @pytest.mark.parametrize("args", DOCUMENTS, ids=" ".join)
    def test_cli_document(self, runner, monkeypatch, args):
        emitted = []
        emit = cli._emit

        def recording_emit(obj, fmt, text_lines=None):
            emitted.append(obj)
            emit(obj, fmt, text_lines)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        [obj] = emitted
        assert result.output == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_hand_made_documents(self):
        shared = {"b": [1, (2, 3)], "a": []}
        for obj in [
            (1, "two", (3.5, None)),
            [[], {}, ()],
            {},
            [],
            "",
            "naïve ☃ \U0001f600 \x00 \"quoted\" \\ \n\t",
            {"é": "ü", "z": [True, False, None], "": 0},
            [0.1, -0.0, 1e300, 2.5e-8, float("inf"), float("-inf"), float("nan")],
            [10**30, -7, 0, True, False, None],
            {"top": shared, "deeper": [shared, {"again": shared}], "same": shared},
            [shared, shared, [shared, (shared,)]],
            True,
            None,
            -3.25,
        ]:
            assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_encoding_leaves_no_reference_cycles(self):
        # a cycle would keep every chunk of the document until the cycle
        # collector runs, which raised the peak RSS of repeated runs
        shared = {"b": [1, 2]}
        doc = {"a": [shared, shared], "c": shared}
        gc.collect()
        gc.disable()
        try:
            cli._json_text(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("key", [1, 2.5, True, None])
    def test_keys_that_are_not_text_refused(self, key):
        for obj in ({key: 2}, [{"a": {key: 0}}]):
            with pytest.raises(TypeError):
                cli._json_text(obj)

    @pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(1), b"bytes"])
    def test_values_json_cannot_encode_refused(self, value):
        for obj in (value, {"a": [value]}):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                cli._json_text(obj)


class TestStreams:
    # the antiassoc document is 1.15 MB at k=6: a stream kept after the call
    # keeps it too

    def test_redirected_stdout_is_freed(self):
        out = io.StringIO()
        with redirect_stdout(out):
            main(["terms", "count", "-k", "3"], standalone_mode=False)
        assert json.loads(out.getvalue()) == {"k": 3, "count": 2}
        ref = weakref.ref(out)
        del out
        assert ref() is None

    def test_redirected_stderr_is_freed(self):
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit):
            main(["terms", "count", "-k", "0"], standalone_mode=False)
        assert "error" in json.loads(err.getvalue())
        ref = weakref.ref(err)
        del err
        assert ref() is None
