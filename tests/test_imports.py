"""Static checks on the package source: every name a module imports is
used in that module, no module element is built by summing basis vectors
one at a time (BasedModule.element builds it in one pass), only
cech_complex walks a nerve's coface table (every other Cech operation goes
through the complex it builds), no module builds a dense rational vector
(a flattened vector is a sparse column everywhere), and no function takes
an optional prebuilt value that it builds itself when it is left out (each
complex has one owner that builds it), and only exterior_core uses
factorial or permutations (every symmetrization and shuffle weight of the
exterior algebra is written there once), and only rational divides with /
(a coefficient may be an int, and int / int is a float)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hkrlab"


def unused_imports(source):
    """Names bound by an import statement of source that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_is_found():
    source = "from .ak import build_p, build_q\nimport os.path\n\nP = build_p()\n"
    assert unused_imports(source) == [(1, "build_q"), (2, "os")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def basis_vec_folds(source):
    """Lines of source that assign x = x + (an expression calling .basis_vec)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and isinstance(value.left, ast.Name)
            and value.left.id == target.id
            and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "basis_vec"
                for n in ast.walk(value.right)
            )
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_basis_vec_fold_is_found():
    source = (
        "out = M.zero()\n"
        "for lab, c in v.data.items():\n"
        "    out = out + M.basis_vec(lab, c)\n"
        "    acc = acc + f(N.basis_vec(lab))\n"
        "    w = out + M.basis_vec(lab)\n"
        "    out = out + f(v)\n"
        "total = M.element(v.data.items())\n"
    )
    assert basis_vec_folds(source) == [3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_builds_no_element_by_a_basis_vec_fold(path):
    assert basis_vec_folds(path.read_text()) == []


def coface_reads(source):
    """(line, outermost enclosing function or None) of each read of an
    attribute named cofaces in source."""
    reads = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "cofaces":
                reads.append((child.lineno, owner))
            visit(child, owner)

    visit(ast.parse(source), None)
    return reads


def test_coface_read_is_found():
    source = (
        "class Nerve:\n"
        "    def cofaces(self):\n"
        "        return {}\n"
        "def cech_complex(nerve):\n"
        "    return nerve.cofaces\n"
        "def q_operator(nerve, s):\n"
        "    def walk(u):\n"
        "        return [t for t, k in nerve.cofaces[u]]\n"
        "    return walk(s)\n"
        "table = n.cofaces\n"
    )
    assert coface_reads(source) == [(5, "cech_complex"), (8, "q_operator"), (10, None)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_cech_complex_reads_cofaces(path):
    assert {owner for _, owner in coface_reads(path.read_text())} <= {"cech_complex"}


def _is_rational_zero(node):
    """Is node the expression ZERO, ql.ZERO or Fraction(0)?"""
    if isinstance(node, ast.Name):
        return node.id == "ZERO"
    if isinstance(node, ast.Attribute):
        return node.attr == "ZERO"
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == 0
    )


def dense_vector_builds(source):
    """Lines of source that build a dense vector as [Fraction(0)] * n or [ZERO] * n."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side in (node.left, node.right):
                if isinstance(side, ast.List) and len(side.elts) == 1 and _is_rational_zero(side.elts[0]):
                    lines.append(node.lineno)
    return sorted(lines)


def test_dense_vector_build_is_found():
    source = (
        "a = [Fraction(0)] * fb.dim\n"
        "b = n * [ZERO]\n"
        "c = [ql.ZERO] * m\n"
        "d = [Fraction(1)] * n\n"
        "e = [Fraction(0), Fraction(0)]\n"
        "f = {i: ZERO for i in range(n)}\n"
        "if col == [Fraction(0)] * len(col):\n"
        "    pass\n"
    )
    assert dense_vector_builds(source) == [1, 2, 3, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_rational_builds_dense_vectors(path):
    # no module builds one, rational included: its matrices are sparse columns too
    assert dense_vector_builds(path.read_text()) == []


def _is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def _is_none_test(node, name, op):
    """Is node the comparison `name op None`?"""
    return (
        isinstance(node, ast.Compare)
        and _is_name(node.left, name)
        and len(node.ops) == 1
        and isinstance(node.ops[0], op)
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    )


def _calls(node):
    return any(isinstance(n, ast.Call) for n in ast.walk(node))


def none_default_rebinds(source):
    """(line, function, parameter) of each assignment that rebinds a
    None-defaulted parameter from a freshly built value:
    x = x or f(...), x = x if x is not None else f(...), or
    x = f(...) if x is None else x."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        pairs = list(zip(positional[len(positional) - len(a.defaults) :], a.defaults))
        pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        optional = {arg.arg for arg, d in pairs if isinstance(d, ast.Constant) and d.value is None}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target, v = node.targets[0], node.value
            if not (isinstance(target, ast.Name) and target.id in optional):
                continue
            x = target.id
            rebinds = (
                isinstance(v, ast.BoolOp)
                and isinstance(v.op, ast.Or)
                and _is_name(v.values[0], x)
                and any(_calls(w) for w in v.values[1:])
            ) or (
                isinstance(v, ast.IfExp)
                and (
                    (_is_none_test(v.test, x, ast.IsNot) and _is_name(v.body, x) and _calls(v.orelse))
                    or (_is_none_test(v.test, x, ast.Is) and _is_name(v.orelse, x) and _calls(v.body))
                )
            )
            if rebinds:
                found.append((node.lineno, fn.name, x))
    return found


def test_none_default_rebind_is_found():
    source = (
        "def gamma(self, L=None, P=None, *, K=None):\n"
        "    L = L or self.koszul_L()\n"
        "    P = P if P is not None else build_p(ext)\n"
        "    K = build_k(ext) if K is None else K\n"
        "    return L, P, K\n"
        "def zeta_checks(ext, window=None, seed=0):\n"
        "    window = window or 3\n"
        "    seed = seed or draw()\n"
        "    K = build_k(ext).with_window(window)\n"
        "    return K\n"
        "def model(m, chi=None):\n"
        "    other = chi or make_chi(m)\n"
        "    chi = chi if chi is not None else default\n"
        "    return other, chi\n"
    )
    assert none_default_rebinds(source) == [(2, "gamma", "L"), (3, "gamma", "P"), (4, "gamma", "K")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_builds_an_optional_argument_it_was_not_given(path):
    assert none_default_rebinds(path.read_text()) == []


CONVENTION_NAMES = {"factorial", "permutations"}


def convention_uses(source):
    """(line, name) of each import of factorial or permutations in source,
    by name or as an attribute such as math.factorial."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in CONVENTION_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in CONVENTION_NAMES:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_convention_use_is_found():
    source = (
        "from math import comb, factorial\n"
        "from itertools import combinations, permutations as perms\n"
        "import math, itertools\n"
        "w = math.factorial(3)\n"
        "orders = list(itertools.permutations(range(3)))\n"
        "from .exterior_core import shuffles, symmetrizations\n"
        "factorials = [comb(4, k) for k in range(5)]\n"
    )
    assert convention_uses(source) == [(1, "factorial"), (2, "permutations"), (4, "factorial"), (5, "permutations")]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "exterior_core.py"), ids=lambda p: p.name
)
def test_only_exterior_core_uses_factorial_or_permutations(path):
    assert convention_uses(path.read_text()) == []


def true_divisions(source):
    """Lines of source that use the true-division operator /, as a binary
    operator or in an augmented assignment."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_true_division_is_found():
    source = (
        "half = Fraction(1, 2)\n"
        "q = a // b\n"
        "w = x / pv\n"
        "w /= 2\n"
        "path = root / 'src'\n"
        "'a/b'\n"
    )
    assert true_divisions(source) == [3, 4, 5]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "rational.py"), ids=lambda p: p.name
)
def test_only_rational_divides(path):
    # rational divides Fractions only: rref reads every entry as a Fraction first
    assert true_divisions(path.read_text()) == []
