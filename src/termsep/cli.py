"""Command-line surface: terms, unify, separate, antiassoc, census, demo.

Output defaults to JSON for scripting; --format text prints human tables.
Errors exit nonzero with a machine-readable {"error": ...} object.
"""

from __future__ import annotations

import itertools
import json
import sys
from json.encoder import encode_basestring_ascii

import click

from termsep.census import census as run_census
from termsep.census import stderr_progress
from termsep import synth, verify
from termsep.cayley import (
    DEFAULT_EVAL_BUDGET,
    affine_separations,
    deranged_groupoid,
    product_groupoid,
    separations,
)
from termsep.terms import (
    ParseError,
    catalan,
    enumerate_ordered_terms,
    parse_term,
    render_term,
)
from termsep.unify import unify
from termsep.vecops import (
    DEFAULT_TABLE_BITS,
    affine_groupoid,
    term_affine_form,
    to_cayley,
)


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), but a list or dict that
    the document holds again at the same depth is encoded once: an
    antiassoc document shares each certificate among many pairs, and json
    encodes with an indent in pure Python.  Raises TypeError for a dict key
    that is not a str, and for anything json cannot encode."""
    chunks: list[str] = []
    _json_chunks(obj, 0, chunks, {})
    return "".join(chunks)


def _json_chunks(o, depth: int, chunks: list[str], seen: dict) -> None:
    """Append the text of o at this depth to chunks.  seen maps (id, depth)
    of each container met so far to the span of chunks that holds its
    text, or to that text once the container is met again."""
    if isinstance(o, str):
        chunks.append(encode_basestring_ascii(o))
    elif o is None:
        chunks.append("null")
    elif o is True:
        chunks.append("true")
    elif o is False:
        chunks.append("false")
    elif isinstance(o, int):
        chunks.append(int.__repr__(o))
    elif isinstance(o, float):
        chunks.append(json.dumps(o))
    elif (id(o), depth) in seen:
        text = seen[id(o), depth]
        if isinstance(text, tuple):
            text = seen[id(o), depth] = "".join(chunks[text[0] : text[1]])
        chunks.append(text)
    elif isinstance(o, (list, tuple, dict)):
        start = len(chunks)
        if isinstance(o, dict):
            brackets = "{}"
            items = [(encode_basestring_ascii(k) + ": ", v) for k, v in sorted(o.items())]
        else:
            brackets = "[]"
            items = [("", v) for v in o]
        outer = "\n" + "  " * depth
        chunks.append(brackets[0])
        for i, (prefix, value) in enumerate(items):
            chunks.append(("," if i else "") + outer + "  " + prefix)
            _json_chunks(value, depth + 1, chunks, seen)
        chunks.append(outer + brackets[1] if items else brackets[1])
        seen[id(o), depth] = (start, len(chunks))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(obj, fmt: str, text_lines=None):
    # the stream is named on each call: click.echo(file=None) caches the
    # current stdout in a WeakKeyDictionary whose value is the stream itself,
    # so a redirected stdout, and all it holds, would never be freed
    if fmt == "json":
        click.echo(_json_text(obj), file=sys.stdout)
    else:
        for line in text_lines if text_lines is not None else [json.dumps(obj)]:
            click.echo(line, file=sys.stdout)


def _fail(message: str, code: int = 1):
    click.echo(json.dumps({"error": message}), file=sys.stderr)
    sys.exit(code)


@click.group()
def main():
    """Decide and certify separation of groupoid terms."""


@main.command("terms")
@click.argument("action", type=click.Choice(["enumerate", "count"]))
@click.option("-k", type=int, required=True, help="number of variables")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def cmd_terms(action, k, fmt):
    """Enumerate or count the ordered terms on x1..xk."""
    if k < 1:
        _fail("k must be at least 1", 2)
    if action == "count":
        _emit({"k": k, "count": catalan(k - 1)}, fmt, [str(catalan(k - 1))])
        return
    try:
        terms = enumerate_ordered_terms(k)
    except ValueError as exc:
        _fail(str(exc), 2)
    rendered = [render_term(t) for t in terms]
    _emit({"k": k, "count": len(terms), "terms": rendered}, fmt, rendered)


@main.command("unify")
@click.argument("s_text")
@click.argument("t_text")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def cmd_unify(s_text, t_text, fmt):
    """Unify two terms, reporting bindings and the rule trace."""
    try:
        s, t = parse_term(s_text), parse_term(t_text)
    except ParseError as exc:
        _fail(str(exc), 2)
    outcome = unify(s, t)
    try:
        obj = outcome.to_json()
    except ValueError as exc:  # a term over the render bound
        _fail(str(exc), 2)
    lines = [obj["result"]]
    if outcome.unifiable:
        lines += [f"  {k} = {v}" for k, v in (obj["bindings"] or {}).items()]
    lines += [f"  [{st['rule']}] {st['consumed']}" for st in obj["trace"]]
    _emit(obj, fmt, lines)


@main.command("separate")
@click.argument("s_text")
@click.argument("t_text")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--budget-candidates", type=int, default=synth.DEFAULT_SEARCH_BUDGET)
@click.option("--emit-table", is_flag=True, help="include the Cayley CSV")
@click.option("--emit-affine", is_flag=True, help="include the difference forms")
def cmd_separate(s_text, t_text, fmt, budget_candidates, emit_table, emit_affine):
    """Decide finite separability and emit any certificate found."""
    try:
        s, t = parse_term(s_text), parse_term(t_text)
    except ParseError as exc:
        _fail(str(exc), 2)
    result = synth.decide_finite_separability(s, t, search_budget=budget_candidates)
    try:
        obj = result.to_json()
    except ValueError as exc:  # a term over the render bound
        _fail(str(exc), 2)
    if result.certificate is not None:
        G = result.certificate.groupoid
        if emit_table:
            if G.width <= DEFAULT_TABLE_BITS:
                obj["cayley_csv"] = to_cayley(G).to_csv()
            else:
                obj["cayley_csv"] = None
        if emit_affine:
            decision = verify.affine_separation_decision(G, s, t)
            obj["affine_separated"] = decision.separated
    lines = [obj["verdict"]]
    if result.construction:
        lines.append(f"construction: {result.construction}")
    _emit(obj, fmt, lines)


@main.command("antiassoc")
@click.argument("action", type=click.Choice(["build", "verify"]))
@click.option("-k", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--budget-evals", type=int, default=DEFAULT_EVAL_BUDGET)
def cmd_antiassoc(action, k, fmt, budget_evals):
    """List the factors of a k-antiassociative groupoid, one per pair of
    distinct ordered terms, or list and re-verify them."""
    if k < 3:
        _fail("k must be at least 3", 2)
    try:
        certs = synth.antiassociative_certificates(k)
    except ValueError as exc:
        _fail(str(exc), 2)
    affine = {}  # pair position -> parity check verdict
    brute = {}  # pair position -> verdict, for factors that fit the budget
    over_budget = brute_factors = 0
    if action == "verify":
        # groupoids compare and hash by (indices, xrows, yrows, cbits)
        groups: dict = {}  # distinct factor -> positions of its pairs
        for i, (_, cert) in enumerate(certs):
            groups.setdefault(cert.groupoid, []).append(i)
        for G, members in groups.items():
            pairs = [certs[i][0] for i in members]
            lams = [certs[i][1].lam for i in members]
            affine.update(zip(members, verify.check_parity_functionals(G, pairs, lams)))
            if G.order**k > budget_evals:
                over_budget += len(members)
                continue
            verdicts = affine_separations(G, pairs, budget=budget_evals)
            brute.update(zip(members, verdicts))
            brute_factors += 1
    # terms are interned, so each distinct term is rendered once
    distinct = dict.fromkeys(term for pair, _ in certs for term in pair)
    texts = {term: render_term(term) for term in distinct}
    entries = []
    all_ok = True
    documents = {}  # id of a shared certificate -> its JSON object
    for i, ((s, t), cert) in enumerate(certs):
        if id(cert) not in documents:
            documents[id(cert)] = cert.to_json()
        entry = {"s": texts[s], "t": texts[t], "certificate": documents[id(cert)]}
        if action == "verify":
            entry["affine_ok"] = affine_ok = affine[i]
            if i in brute:
                entry["exhaustive_ok"] = brute[i].separated
                affine_ok = affine_ok and brute[i].separated
            all_ok = all_ok and affine_ok
        entries.append(entry)
    obj = {
        "k": k,
        "factors": len(certs),
        "width": sum(cert.groupoid.width for _, cert in certs),
        "certificates": entries,
    }
    if action == "verify":
        obj["all_ok"] = all_ok
    lines = [f"k={k}: {len(certs)} factors, width {obj['width']}"]
    if action == "verify":
        lines.append("all certificates pass" if all_ok else "FAILURES present")
        lines.append(
            f"brute-forced {len(brute)} pairs over {brute_factors} factors; "
            f"{over_budget} pairs over budget"
        )
    _emit(obj, fmt, lines)


@main.command("census")
@click.option("-n", type=int, required=True)
@click.option("--long", "long_run", is_flag=True, help="allow the n=4 run")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def cmd_census(n, long_run, fmt):
    """Count the 3-antiassociative n-element Cayley tables."""
    if n == 4 and not long_run:
        _fail("n=4 counts among 4^16 tables; pass --long to confirm", 2)
    try:
        report = run_census(
            n, long_run=long_run, progress=stderr_progress if sys.stderr.isatty() else None
        )
    except ValueError as exc:
        _fail(str(exc), 2)
    obj = report.to_json()
    _emit(
        obj,
        fmt,
        [
            f"n={n}: {report.antiassociative_count} antiassociative of "
            f"{report.total_tables} tables "
            f"({report.literally_deranged_count} literally deranged)"
        ],
    )


def _demo_affine_example():
    # 2x3 bit matrices flattened row-major to length-6 vectors; the left
    # map shifts columns rightward with copy, the right map copies the top
    # row down, and the constant has a single 1 in the top-left cell.
    alpha = [[0] * 6 for _ in range(6)]
    for dst, src in [(0, 0), (1, 0), (2, 1), (3, 3), (4, 3), (5, 4)]:
        alpha[dst][src] = 1
    beta = [[0] * 6 for _ in range(6)]
    for dst, src in [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]:
        beta[dst][src] = 1
    G = affine_groupoid(alpha, beta, [1, 0, 0, 0, 0, 0])
    s = parse_term("((v*w)*(x*y))*z")
    t = parse_term("((v*(w*x))*y)*z")
    def grid(vec):
        return [[int(b) for b in vec[:3]], [int(b) for b in vec[3:]]]
    ab_c = (G.A @ (G.B @ G.c)) % 2
    aab_c = (G.A @ ab_c) % 2
    s0 = term_affine_form(G, s).const
    t0 = term_affine_form(G, t).const
    decision = verify.affine_separation_decision(G, s, t)
    return {
        "alpha_beta_c": grid(ab_c),
        "alpha2_beta_c": grid(aab_c),
        "s_at_zero": grid(s0),
        "t_at_zero": grid(t0),
        "expected": {
            "alpha_beta_c": [[1, 1, 0], [1, 1, 0]],
            "alpha2_beta_c": [[1, 1, 1], [1, 1, 1]],
            "s_at_zero": [[0, 1, 1], [1, 1, 0]],
            "t_at_zero": [[0, 1, 0], [1, 1, 1]],
        },
        "separated": decision.separated,
    }


def _demo_deranged_product():
    left = deranged_groupoid(2, [1, 0], "LEFT")
    right = deranged_groupoid(3, [1, 2, 0], "RIGHT")
    product = product_groupoid(left, right)
    pairs = list(itertools.combinations(enumerate_ordered_terms(4), 2))
    pair_results = {
        f"{render_term(a)} | {render_term(b)}": verdict.separated
        for (a, b), verdict in zip(pairs, separations(product, pairs))
    }
    return {"four_antiassociative": all(pair_results.values()), "pairs": pair_results}


def _demo_cycle_example():
    s = parse_term("(y0*y1)*(z0*(z1*y0))")
    t = parse_term("((z2*y1)*y2)*(z3*y2)")
    witness = synth.find_cycle(s, t)
    cert = synth.synth_cycle(witness)
    f = witness.class_map()
    return {
        "cycle": {
            "variables": list(witness.variables),
            "p": list(witness.p),
            "q": list(witness.q),
            "f": {str(i): f[i] for i in range(witness.k)},
        },
        "opsum": cert.opsum.render(),
        "separated": verify.affine_separation_decision(cert.groupoid, s, t).separated,
    }


@main.command("demo")
@click.argument(
    "name", type=click.Choice(["affine-example", "deranged-product", "cycle-example"])
)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
def cmd_demo(name, fmt):
    """Reproduce a worked computation and print expected vs. actual."""
    runner = {
        "affine-example": _demo_affine_example,
        "deranged-product": _demo_deranged_product,
        "cycle-example": _demo_cycle_example,
    }[name]
    obj = runner()
    _emit(obj, fmt)


if __name__ == "__main__":
    main()
