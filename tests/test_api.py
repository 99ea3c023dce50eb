"""Every public top-level name of a wavekam module is used by the program.

The scan parses src/wavekam, scripts and perfbench with ast.  A name counts
as used when it appears outside its own definition as a Name, an Attribute,
an import alias or a whole string constant (perfbench's tracer names the
functions it wraps as strings); docstrings do not count.  The tests are not
scanned: a name that only a test reads is dead code unless it is one of the
test oracles below, which are kept apart from the code they check on purpose.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavekam"
PROGRAM = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

ORACLES = {
    "det_m_closed_form",        # test_acceptance.py c04: det M in closed form
    "lie_transform",            # test_birkhoff.py: the normal form by Lie series
    "build_h2",                 # test_acceptance.py c09: H2 as a polynomial
    "build_interaction",        # test_polyham.py: P4 from a general g(u)
    "radial_scaling_fit",       # test_acceptance.py c13: gradient and Hessian scaling
    "evaluate_divisor",         # test_smalldiv.py: the per-query reference scan
    "divisor_weight",           # test_smalldiv.py: the per-query reference scan
    "vandermonde_closed_form",  # test_acceptance.py c07: the closed form
    "vandermonde_determinant",  # test_acceptance.py c07: the direct determinant
    "vandermonde_scale",        # test_acceptance.py c07: the tolerance floor
}


def _docstrings(tree):
    """The string nodes that are docstrings of the module, a class or a function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            yield node.body[0].value


def _defined(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(node, skip):
    """The names node refers to, outside the docstring nodes in skip."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub not in skip:
            yield sub.value


def scan():
    """(public names defined in wavekam, names used outside their own definition)."""
    public, used = set(), set()
    for path in sorted(p for d in PROGRAM for p in d.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = set(_docstrings(tree))
        for stmt in tree.body:
            own = _defined(stmt)
            if path.parent == PACKAGE:
                public.update(name for name in own if not name.startswith("_"))
            used.update(name for name in _referenced(stmt, skip) if name not in own)
    return public, used


def test_every_public_name_has_a_caller():
    public, used = scan()
    assert sorted(public - used - ORACLES) == []


def test_every_oracle_is_read_by_tests_only():
    # an oracle that is gone, or that the program now calls, leaves the set
    public, used = scan()
    assert sorted(ORACLES - (public - used)) == []
