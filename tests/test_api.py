"""Every public top-level name of a wavekam module, and every public member
of a public class there, is used by the program.

The scan parses src/wavekam, scripts and perfbench with ast.  A name counts
as used when it appears outside its own definition as a Name, an Attribute,
an import alias or a whole string constant (perfbench's tracer names the
functions it wraps as strings); docstrings do not count.  A class member (a
method, property or annotated field) counts as read only as a loaded
Attribute or a whole string constant, so a field that is only passed to the
constructor or assigned is caught.  Members are matched by name alone.  The
tests are not scanned: a name that only a test reads is dead code unless it
is one of the test oracles below, which are kept apart from the code they
check on purpose.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wavekam"
PROGRAM = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

ORACLES = {
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

# class members that only the tests read, to check other code with
MEMBER_ORACLES = {
    "PolyHamiltonian.evaluate",             # test_polyham.py: P4's gradient against
                                            # finite differences of its values
    "PolyHamiltonian.is_real_hamiltonian",  # bracket and P4 structure, c08
    "PolyHamiltonian.conserves_momentum",   # bracket and P4 structure, c08
    "Monomial.momentum",                    # test_polyham.py: the interaction hook
    "TorusTrajectory.momentum",             # test_simulate.py: the conservation check
    "HypothesisReport.accepted",            # test_kamcheck.py: per-rho equality with
                                            # the reference scans
    "Violation.family",                     # test_kamcheck.py: which divisor failed
    "RadialScalingFit.constant",            # test_polyham.py: the fitted prefactor
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


def _members(cls):
    """(name, node) of the public methods, properties and annotated fields
    of a class."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = stmt.name
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, stmt


def _reads(node, skip):
    """The attribute names node loads and the strings it holds, outside the
    docstring nodes in skip."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub not in skip:
            yield sub.value


def unread_members():
    """"Class.member" for each public member of a public wavekam class whose
    name the program reads nowhere outside the member's own definition."""
    members, reads = [], collections.Counter()
    for path in sorted(p for d in PROGRAM for p in d.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = set(_docstrings(tree))
        reads.update(_reads(tree, skip))
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                members += [(f"{cls.name}.{name}", name, collections.Counter(_reads(node, skip)))
                            for name, node in _members(cls)]
    return {qual for qual, name, own in members if reads[name] <= own[name]}


def test_every_class_member_has_a_reader():
    assert sorted(unread_members() - MEMBER_ORACLES) == []


def test_every_member_oracle_is_read_by_tests_only():
    # a member that is gone, or that the program now reads, leaves the set
    assert sorted(MEMBER_ORACLES - unread_members()) == []
