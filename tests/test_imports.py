"""Static checks on the package source: every name a module imports is
used in that module, no module element is built by summing basis vectors
one at a time (BasedModule.element builds it in one pass), only
cech_complex walks a nerve's coface table (every other Cech operation goes
through the complex it builds), only t_chain_check, twisted_total_complex
and atiyah_twist read a twist family's chart changes (transition_columns;
cech_total_complex gets them as its transitions argument, so the twist is
applied in cech_total_complex and t_chain_check alone), no module builds
a dense rational vector (a flattened vector is a sparse column
everywhere), and no function takes an optional prebuilt value that it
builds itself when it is left out (each complex has one owner that builds
it), and only exterior_core uses factorial or permutations (every
symmetrization and shuffle weight of the exterior algebra is written there
once), and only rational divides with / (a coefficient may be an int, and
int / int is a float), and the functions and classes that only tests reach
are an exact, listed inventory (new unreachable code fails, and so does a
listed name that gains a caller)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hkrlab"
TESTS = Path(__file__).resolve().parent


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


def attribute_reads(source, attr):
    """(line, outermost enclosing function or class, or None) of each read of
    an attribute named attr in source."""
    reads = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                reads.append((child.lineno, owner))
            visit(child, owner)

    visit(ast.parse(source), None)
    return reads


def coface_reads(source):
    return attribute_reads(source, "cofaces")


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


def transition_column_reads(source):
    return attribute_reads(source, "transition_columns")


def test_transition_column_read_is_found():
    source = (
        "class TwistFamily:\n"
        "    def transition_columns(self, n, a, b):\n"
        "        return []\n"
        "    def twice(self, n, a, b):\n"
        "        return self.transition_columns(n, a, b) * 2\n"
        "def twisted_total_complex(ext, twists):\n"
        "    return total(lambda j, a, b: twists.transition_columns(-j, a, b))\n"
        "def divisor_class(nerve):\n"
        "    def w2_tr(j, a, b):\n"
        "        return fam.transition_columns\n"
        "    return w2_tr\n"
        "chart = fam.transition_columns(0, 1, 2)\n"
    )
    assert transition_column_reads(source) == [
        (5, "TwistFamily"),
        (7, "twisted_total_complex"),
        (10, "divisor_class"),
        (12, None),
    ]


# t_chain_check twists T's leading face through the chart changes,
# twisted_total_complex hands them to cech_total_complex, and atiyah_twist
# compares one with the conjugation it must equal
TRANSITION_COLUMN_READERS = {"atiyah_twist", "t_chain_check", "twisted_total_complex"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_listed_owners_read_transition_columns(path):
    assert {owner for _, owner in transition_column_reads(path.read_text())} <= TRANSITION_COLUMN_READERS


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


def _reads_by_owner(source):
    """{owner: names read} of source, where owner is the top-level function
    or class around the read (None at module level) and a name is read as a
    bare name or as an attribute, such as ql.solve or self.helper."""
    reads = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            if isinstance(child, ast.Name):
                reads.setdefault(inner, set()).add(child.id)
            elif isinstance(child, ast.Attribute):
                reads.setdefault(inner, set()).add(child.attr)
            visit(child, inner)

    visit(ast.parse(source), None)
    return reads


def unreached_definitions(sources, roots=()):
    """Sorted (module, name) of each top-level function or class of sources,
    {module: source text}, that nothing reaches: no module-level code and no
    definition already reached reads its name, and it is not one of roots.
    An import alone is no read; a definition does not reach itself."""
    defined = {}
    edges = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = module
        for owner, names in _reads_by_owner(source).items():
            edges.setdefault(owner, set()).update(names)
    reached = set()
    todo = [None, *roots]
    while todo:
        owner = todo.pop()
        reached.add(owner)
        todo += [n for n in edges.get(owner, ()) if n in defined and n not in reached and n not in todo]
    return sorted((module, name) for name, module in defined.items() if name not in reached)


def test_unreached_definition_is_found():
    sources = {
        "a.py": (
            "def used():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return 1\n"
            "def orphan():\n"
            "    return ql.inner()\n"
            "def inner():\n"
            "    return 2\n"
            "class Box:\n"
            "    def get(self):\n"
            "        return boxed()\n"
            "def boxed():\n"
            "    return 3\n"
            "TABLE = {'used': used}\n"
        ),
        "b.py": "from .a import orphan\ndef recursive():\n    return recursive()\n",
    }
    assert unreached_definitions(sources) == [
        ("a.py", "Box"),
        ("a.py", "boxed"),
        ("a.py", "inner"),
        ("a.py", "orphan"),
        ("b.py", "recursive"),
    ]
    assert unreached_definitions(sources, roots={"orphan", "Box"}) == [("b.py", "recursive")]


# The functions and classes that no code of the package reaches (verify
# itself starts from cli_report's module-level code): tests are their only
# callers.  Give one a suite or delete it, and take it off this list.
TEST_ONLY = [
    ("cech_twist.py", "_linmap_inverse"),
    ("cech_twist.py", "atiyah_twist"),
    ("cech_twist.py", "cech_cohomology"),
    ("cech_twist.py", "class_coordinates"),
    ("cech_twist.py", "codim2_matrix"),
    ("cech_twist.py", "delta_entries_cohomologous"),
    ("cech_twist.py", "delta_product"),
    ("cech_twist.py", "q_operator"),
    ("cech_twist.py", "q_operator_is_chain_map"),
    ("cech_twist.py", "translation_fixes_wedge_classes"),
    ("cech_twist.py", "twisted_resolution_homology_check"),
    ("cech_twist.py", "twisted_total_complex"),
    ("cli_report.py", "parse_model_json"),
    ("connections.py", "Connection"),
    ("connections.py", "DerivationChi"),
    ("connections.py", "KahlerModule"),
    ("connections.py", "_prop_battery"),
    ("connections.py", "_r_from_connection"),
    ("connections.py", "_r_from_iso"),
    ("connections.py", "ak_auto"),
    ("connections.py", "ak_auto_from_connection"),
    ("connections.py", "ak_auto_from_iso"),
    ("connections.py", "augmentation_identity_check"),
    ("connections.py", "chi_hat_determinant"),
    ("connections.py", "dual_auto"),
    ("connections.py", "dual_auto_checks"),
    ("connections.py", "poly_partial"),
    ("connections.py", "prop_battery_from_connection"),
    ("connections.py", "prop_battery_from_iso"),
    ("connections.py", "r_map_twisted_leibniz"),
    ("connections.py", "semilinearity_check"),
    ("connections.py", "u_chi_checks"),
    ("exterior_core.py", "exterior_power_map"),
    ("exterior_core.py", "koszul_dual_form"),
]


def test_tests_alone_reach_exactly_the_listed_definitions():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreached_definitions(package) == TEST_ONLY
    # tests reach every listed one, so none is dead code
    test_reads = set()
    for path in TESTS.glob("test_*.py"):
        test_reads = test_reads.union(*_reads_by_owner(path.read_text()).values())
    assert unreached_definitions(package, roots=test_reads) == []
