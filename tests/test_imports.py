"""What importing a module loads, each check in a fresh interpreter: the
package root holds no names, and the term and unification modules load
no numpy and no other termsep module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import termsep

SRC = str(Path(termsep.__file__).resolve().parents[1])


def run(code: str):
    """The JSON value that code prints, run in a fresh interpreter that
    finds this package first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('termsep', 'numpy'))))"


def test_package_root_is_empty():
    assert run("import termsep\n" + LOADED) == ["termsep"]
    names = run("import json, termsep; print(json.dumps(dir(termsep)))")
    assert [name for name in names if not name.startswith("_")] == []


def test_terms_and_unify_load_nothing_else():
    assert run("import termsep.terms, termsep.unify\n" + LOADED) == [
        "termsep",
        "termsep.terms",
        "termsep.unify",
    ]


def test_cli_holds_no_numpy():
    code = "import json, termsep.cli as m; print(json.dumps([hasattr(m, 'np'), hasattr(m, 'numpy')]))"
    assert run(code) == [False, False]
