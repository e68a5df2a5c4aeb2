import random

from termsep import synth
from termsep.terms import parse_term

from perfbench import check, gen


def _decide(s, t):
    return synth.decide_finite_separability(parse_term(gen.render(s)), parse_term(gen.render(t)))


def test_lambda_check_accepts_certificates_and_rejects_altered_ones():
    s, t = ("x", "y"), (("x", "u"), "v")
    doc = _decide(s, t).to_json()
    rng = random.Random(0)
    assert check.lambda_separates(s, t, doc["groupoid"], doc["lambda"], rng)
    flipped = dict(doc["groupoid"], c=[1 - b for b in doc["groupoid"]["c"]])
    assert not check.lambda_separates(s, t, flipped, doc["lambda"], rng)
    assert not check.lambda_separates(s, t, doc["groupoid"], [], rng)
    assert not check.lambda_separates(s, s, doc["groupoid"], doc["lambda"], rng)


def test_witness_check():
    s, t = ("x", ("y", "y")), (("z", "z"), "w")
    result = _decide(s, t)
    assert result.verdict == "not_separable"
    witness = result.unifier.witness
    assert check.witness_identifies(s, t, witness)
    assert not check.witness_identifies(s, "y", witness)
    assert not check.witness_identifies(s, t, {k: v for k, v in witness.items() if k != "w"})


def test_chain_witness_is_exponential_but_shared():
    s, t = gen.chain_pair(random.Random(1), 16)
    result = _decide(s, t)
    assert result.verdict == "not_separable"
    assert check.witness_identifies(s, t, result.unifier.witness)
