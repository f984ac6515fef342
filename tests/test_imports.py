"""Static checks on the package source: every name a module imports is
used in that module, no module element is built by summing basis vectors
one at a time (BasedModule.element builds it in one pass), only
cech_complex walks a nerve's coface table (every other Cech operation goes
through the complex it builds), no homology or qsolver is asked of a
coefficient module's own Cech complex (class questions go through the
nerve's scalar complex), only t_chain_check, twisted_total_complex
and atiyah_twist read a twist family's chart changes (transition_columns;
cech_total_complex gets them as its transitions argument, so the twist is
applied in cech_total_complex and t_chain_check alone), no module builds
a dense rational vector (a flattened vector is a sparse column
everywhere), and no function takes an optional prebuilt value that it
builds itself when it is left out (each complex has one owner that builds
it), and only exterior_core uses factorial or permutations (every
symmetrization and shuffle weight of the exterior algebra is written there
once), and only rational divides with / (a coefficient may be an int, and
int / int is a float), no code changes a Poly's .terms or a Vec's .data
dict in place (coefficient algebras share their constants, so a value must
never change once built), only the zeta battery's action pass and kappa call
k_b_action (each product of the B-action on a tensor power is computed in
one place), only TrivialExtension.star_abstract calls wedge_b (the defining
formula of the shifted product has one home), only the merge table's fill
calls merge_wedge (every other wedge of basis labels reads MERGES), every
field of SuiteConfig is read by the run outside the config's own checks
(a verify option that nothing reads is inert), the functions, classes
and methods that only tests reach are an exact, listed inventory (new
unreachable code fails, and so does a listed name that gains a caller),
and importing the package loads neither dataclasses nor inspect (every
verify run is a fresh process and pays for each module it imports)."""

import ast
import subprocess
import sys
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


def _is_per_module_cech_complex(node):
    """Is node a cech_complex(nerve, M) call with M other than SCALARS?"""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "cech_complex"
        and not (len(node.args) == 2 and isinstance(node.args[1], ast.Name) and node.args[1].id == "SCALARS")
    )


def per_module_cech_solves(source):
    """(line, enclosing top-level function or class, or None) of each
    homology(C, ...) or C.qsolver(...) where C is a per-module
    cech_complex call, or a name that the same top-level statement assigns
    one to."""
    found = []
    for stmt in ast.parse(source).body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        nodes = list(ast.walk(stmt))
        names = {
            t.id
            for n in nodes
            if isinstance(n, ast.Assign) and _is_per_module_cech_complex(n.value)
            for t in n.targets
            if isinstance(t, ast.Name)
        }

        def per_module(node):
            return _is_per_module_cech_complex(node) or (isinstance(node, ast.Name) and node.id in names)

        for n in nodes:
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            if isinstance(f, ast.Name) and f.id == "homology" and n.args and per_module(n.args[0]):
                found.append((n.lineno, owner))
            elif isinstance(f, ast.Attribute) and f.attr == "qsolver" and per_module(f.value):
                found.append((n.lineno, owner))
    return sorted(found)


def test_per_module_cech_solve_is_found():
    source = (
        "def cech_cohomology(nerve, module, degree):\n"
        "    C = cech_complex(nerve, module)\n"
        "    return homology(C, degree)\n"
        "def cohomologous(nerve, x, l):\n"
        "    return cech_complex(nerve, x.module).qsolver(l - 1)\n"
        "def class_count(nerve, degree):\n"
        "    C = cech_complex(nerve, SCALARS)\n"
        "    return homology(C, degree).dim + homology(cech_complex(nerve, SCALARS), 0).dim\n"
        "def twisted(tot, k):\n"
        "    return homology(tot, k), tot.qsolver(k)\n"
        "H = homology(cech_complex(n, M), 1)\n"
    )
    assert per_module_cech_solves(source) == [(3, "cech_cohomology"), (5, "cohomologous"), (11, None)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_class_question_solves_on_a_per_module_cech_complex(path):
    # H*(N; M) = H*(N; Q) (x) M: every class question goes through the
    # nerve's scalar complex, one (label, monomial) slice at a time
    assert per_module_cech_solves(path.read_text()) == []


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


def entry_reads(source):
    return attribute_reads(source, "entry")


def test_entry_read_is_found():
    source = (
        "class DeltaMatrix:\n"
        "    def disagreements(self, other):\n"
        "        return [k for k in keys if self.entry(*k) != other.entry(*k)]\n"
        "def check_comparison_last_level(config):\n"
        "    for i, j in pairs:\n"
        "        if not cohomologous(nerve, delta.entry(i, j), want):\n"
        "            return 'fail'\n"
        "top = delta.entry\n"
    )
    assert entry_reads(source) == [
        (3, "DeltaMatrix"),
        (3, "DeltaMatrix"),
        (6, "check_comparison_last_level"),
        (8, None),
    ]


# a check compares comparison matrices through DeltaMatrix.disagreements,
# never entry by entry; delta_product multiplies them
ENTRY_READERS = {"DeltaMatrix", "delta_product"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_comparison_matrix_and_its_product_read_entries(path):
    assert {owner for _, owner in entry_reads(path.read_text())} <= ENTRY_READERS


def call_sites(source, name):
    """(line, dotted path of the enclosing classes and functions, or None) of
    each call of a function named name in source, called by its bare name or
    as an attribute such as hkr_local.k_b_action."""
    sites = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == name) or (isinstance(f, ast.Attribute) and f.attr == name):
                    sites.append((child.lineno, ".".join(path) or None))
            visit(child, path)

    visit(ast.parse(source), ())
    return sites


def test_k_b_action_call_is_found():
    source = (
        "def k_b_action(ext, p, b, x):\n"
        "    return x\n"
        "class LocalModel:\n"
        "    def kappa(self):\n"
        "        return build(lambda p, b, x: k_b_action(self.ext, p, b, x))\n"
        "def b_action_checks(ext):\n"
        "    def inner(x):\n"
        "        return hkr_local.k_b_action(ext, 0, b, x)\n"
        "    return [k_b_action(ext, p, b, x) for x in xs], inner\n"
        "act = k_b_action\n"
        "y = k_b_action(ext, 1, b, x)\n"
    )
    assert call_sites(source, "k_b_action") == [
        (5, "LocalModel.kappa"),
        (8, "b_action_checks.inner"),
        (9, "b_action_checks"),
        (11, None),
    ]


# the zeta battery's one pass over the B-action products computes each
# product b.x once for both of its verdicts, and kappa acts through the same
# action; no other code computes a product of the action
K_B_ACTION_CALLERS = {"b_action_checks", "LocalModel.kappa"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_action_pass_and_kappa_call_k_b_action(path):
    assert {owner for _, owner in call_sites(path.read_text(), "k_b_action")} <= K_B_ACTION_CALLERS


def test_wedge_b_call_is_found():
    source = (
        "class TrivialExtension:\n"
        "    def star_abstract(self, k, l, xs, ys):\n"
        "        return [[self.wedge_b(x, y) for y in ys] for x in xs]\n"
        "def battery(ext):\n"
        "    wedge = ext.wedge_b\n"
        "    return wedge_b(u, v), ext.wedge_b(ext.wedge_b(u, v), w)\n"
    )
    assert call_sites(source, "wedge_b") == [
        (3, "TrivialExtension.star_abstract"),
        (6, "battery"),
        (6, "battery"),
        (6, "battery"),
    ]


# the defining formula of the shifted product is written once, in
# star_abstract; no other code wedges in Lambda B
WEDGE_B_CALLERS = {("extension_dg.py", "TrivialExtension.star_abstract")}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_defining_formula_calls_wedge_b(path):
    assert {(path.name, owner) for _, owner in call_sites(path.read_text(), "wedge_b")} <= WEDGE_B_CALLERS


def test_merge_wedge_call_is_found():
    source = (
        "class _MergeTable(dict):\n"
        "    def __missing__(self, key):\n"
        "        m = self[key] = merge_wedge(*key)\n"
        "        return m\n"
        "def split_sign(J, K):\n"
        "    m = exterior_core.merge_wedge(J, K)\n"
        "    return MERGES[J, K], merge_wedge\n"
    )
    assert call_sites(source, "merge_wedge") == [(3, "_MergeTable.__missing__"), (6, "split_sign")]


# e_K ^ e_L is computed once per pair, in the merge table's fill; every
# other wedge of labels reads MERGES
MERGE_WEDGE_CALLERS = {("exterior_core.py", "_MergeTable.__missing__")}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_merge_table_calls_merge_wedge(path):
    assert {(path.name, owner) for _, owner in call_sites(path.read_text(), "merge_wedge")} <= MERGE_WEDGE_CALLERS


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


VALUE_DICTS = {"terms", "data"}
MUTATING_DICT_METHODS = {"clear", "pop", "popitem", "setdefault", "update"}


def _is_value_dict(node):
    """Is node an attribute read named terms or data, such as p.terms?"""
    return isinstance(node, ast.Attribute) and node.attr in VALUE_DICTS


def _target_leaves(target):
    """The single targets of an assignment target, tuples unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [leaf for elt in target.elts for leaf in _target_leaves(elt)]
    if isinstance(target, ast.Starred):
        return _target_leaves(target.value)
    return [target]


def in_place_value_writes(source):
    """Lines of source that change a .terms or .data dict in place: item
    assignment or deletion, an augmented assignment to the dict or one of
    its items, or a call of clear, pop, popitem, setdefault or update on
    it.  Rebinding the attribute itself (v.data = clean) builds a value and
    is not a write."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for leaf in (leaf for t in targets for leaf in _target_leaves(t)):
            if (isinstance(leaf, ast.Subscript) and _is_value_dict(leaf.value)) or (
                isinstance(node, ast.AugAssign) and _is_value_dict(leaf)
            ):
                lines.append(node.lineno)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_DICT_METHODS
            and _is_value_dict(node.func.value)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_in_place_value_write_is_found():
    source = (
        "p.terms[e] = 1\n"
        "del v.data[lab]\n"
        "v.data.pop(lab, None)\n"
        "p.terms.update(other)\n"
        "v.data.setdefault(lab, c)\n"
        "p.terms.clear()\n"
        "v.data[lab] += c\n"
        "p.terms |= extra\n"
        "a, self.data[k] = 1, 2\n"
        "v.data.popitem()\n"
        "out[lab] = v.data[lab]\n"
        "terms = dict(p.terms)\n"
        "terms[e] = p.terms.get(e, 0)\n"
        "self.data = clean\n"
        "cols[v.data[lab]] = 1\n"
        "m.cols.pop(lab, None)\n"
    )
    assert in_place_value_writes(source) == list(range(1, 11))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_value_is_changed_in_place(path):
    assert in_place_value_writes(path.read_text()) == []


def unread_config_fields(source):
    """Fields of the class SuiteConfig in source, in order, that no
    attribute read (config.field) names outside SuiteConfig.__init__
    and outside the arguments of a SuiteConfig(...) call, which hand a
    value in rather than read it.  A read by getattr and a write are no
    attribute read."""
    tree = ast.parse(source)
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SuiteConfig"]
    names = [item.target.id for item in cls.body if isinstance(item, ast.AnnAssign)]
    skipped = [item for item in cls.body if getattr(item, "name", None) == "__init__"]
    skipped += [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _is_name(node.func, "SuiteConfig")]
    skipped = {id(sub) for node in skipped for sub in ast.walk(node)}
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in skipped
    }
    return [name for name in names if name not in read]


def test_unread_config_field_is_found():
    source = (
        "class SuiteConfig:\n"
        "    seed: int\n"
        "    knob: int\n"
        "    out: str\n"
        "    def __init__(self, seed=0, knob=3, out=''):\n"
        "        self.seed, self.knob, self.out = seed, knob, out\n"
        "        if self.knob < 0 or self.seed < 0:\n"
        "            raise ConfigError('negative')\n"
        "def run_suite(config):\n"
        "    echo = {k: getattr(config, k) for k in ('seed', 'knob')}\n"
        "    return random.Random(config.seed), echo\n"
        "def main(args):\n"
        "    config = SuiteConfig(seed=args.seed, knob=args.knob)\n"
        "    config.out = 'r.json'\n"
    )
    assert unread_config_fields(source) == ["knob", "out"]


def test_every_config_field_drives_the_run():
    assert unread_config_fields((PACKAGE / "cli_report.py").read_text()) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owned_nodes(tree):
    """{owner: the nodes it owns} of a module's tree.  An owner is a
    top-level function or class, a method of a top-level class as
    "Class.method", or None for module-level code.  A dunder method, which
    Python calls implicitly, belongs to its class."""
    owned = {None: []}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            rest = []
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    owned[f"{node.name}.{item.name}"] = [item]
                else:
                    rest.append(item)
            owned[node.name] = node.decorator_list + node.bases + node.keywords + rest
        elif isinstance(node, FUNCTIONS):
            owned[node.name] = [node]
        else:
            owned[None].append(node)
    return owned


def _reads_by_owner(source):
    """{owner: reads} of source, owners as _owned_nodes gives them.  A bare
    name is read as "name" and an attribute, such as ql.rref or
    self.helper, as ".rref" or ".helper"."""
    reads = {}
    for owner, nodes in _owned_nodes(ast.parse(source)).items():
        names = reads[owner] = set()
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add("." + sub.attr)
    return reads


def unreached_definitions(sources, roots=()):
    """Sorted (module, name) of each top-level function or class of sources,
    {module: source text}, and each method ("Class.method") of a reached
    top-level class, that nothing reaches.  A function or class is reached
    when module-level code, a reached definition or roots (reads as
    _reads_by_owner gives them) reads its name, bare or as an attribute; a
    method of a reached class is reached when its name is read as an
    attribute.  An import alone is no read; a definition does not reach
    itself."""
    edges, module_of = {}, {}
    for module, source in sources.items():
        for owner, names in _reads_by_owner(source).items():
            edges.setdefault(owner, set()).update(names)
            if owner is not None:
                module_of[owner] = module

    def reachable(d, read, reached):
        cls, _, method = d.rpartition(".")
        if cls:
            return cls in reached and "." + method in read
        return d in read or "." + d in read

    reached, new = set(), {None}
    read = set(roots)
    while new:
        reached |= new
        read = read.union(*(edges.get(owner, ()) for owner in new))
        new = {d for d in module_of if d not in reached and reachable(d, read, reached)}
    return sorted(
        (module, d) for d, module in module_of.items() if d not in reached and d.rpartition(".")[0] in reached | {""}
    )


def test_unreached_definition_is_found():
    sources = {
        "a.py": (
            "def used():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return Box().get()\n"
            "def orphan():\n"
            "    return ql.inner()\n"
            "def inner():\n"
            "    return 2\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.v = boxed()\n"
            "    def get(self):\n"
            "        return self.v\n"
            "    def unused(self):\n"
            "        return self.unused()\n"
            "class Crate:\n"
            "    def open(self):\n"
            "        return 3\n"
            "def boxed():\n"
            "    return 4\n"
            "TABLE = {'used': used}\n"
        ),
        # a bare name is no method call: it reaches no Box.unused
        "b.py": "from .a import orphan\nfrom .c import unused\nunused()\ndef recursive():\n    return recursive()\n",
    }
    # Crate.open goes with Crate, which nothing reaches
    assert unreached_definitions(sources) == [
        ("a.py", "Box.unused"),
        ("a.py", "Crate"),
        ("a.py", "inner"),
        ("a.py", "orphan"),
        ("b.py", "recursive"),
    ]
    roots = {".orphan", "Crate", ".open", ".unused"}
    assert unreached_definitions(sources, roots=roots) == [("b.py", "recursive")]


# The functions, classes and methods that no code of the package reaches
# (verify itself starts from cli_report's module-level code): tests are
# their only callers.  A method of a listed class goes with its class.  Give
# one a suite or delete it, and take it off this list.  Each entry maps to
# the reason it is kept.
ATIYAH = "ROADMAP item 10: the Atiyah comparison, twisted by per-vertex connections"
BATTERY = "ROADMAP item 11: the automorphism battery, the candidate check for a change of retraction"
CONNECTIONS = "ROADMAP items 10 and 14: the connections and derivations of the Atiyah comparison and the cycle datum"
SPLIT_FORM = "certifies the split form: Lambda B on the wedge basis of (1_B, y), and d transported to it"

TEST_ONLY = {
    ("cech_twist.py", "_linmap_inverse"): ATIYAH,
    ("cech_twist.py", "atiyah_twist"): ATIYAH,
    ("cech_twist.py", "codim2_matrix"): ATIYAH,
    ("cech_twist.py", "delta_product"): "ROADMAP item 11: composes two comparison matrices, as the diagonal injection's composite does",
    ("cech_twist.py", "twisted_total_complex"): "ROADMAP item 7: the twisted total the comparison morphism maps into",
    ("coeff.py", "CoeffAlgebra.one"): "reference role: the unit the shared constants of an algebra are checked against",
    ("coeff.py", "Poly.constant_term"): "reference role: reads a dense matrix entry as a scalar for the split-form certificate",
    ("coeff.py", "Poly.is_unit"): BATTERY + " (r_family_from_iso's determinant check)",
    ("connections.py", "Connection"): CONNECTIONS,
    ("connections.py", "DerivationChi"): CONNECTIONS,
    ("connections.py", "KahlerModule"): CONNECTIONS,
    ("connections.py", "_is_semilinear"): BATTERY,
    ("connections.py", "chi_hat_determinant"): BATTERY,
    ("connections.py", "induced_auto"): BATTERY,
    ("connections.py", "poly_partial"): CONNECTIONS,
    ("connections.py", "prop_battery"): BATTERY,
    ("connections.py", "r_family_from_connection"): BATTERY,
    ("connections.py", "r_family_from_iso"): BATTERY,
    ("connections.py", "r_map_twisted_leibniz"): BATTERY,
    ("connections.py", "u_chi_checks"): BATTERY,
    ("extension_dg.py", "TrivialExtension.d_unsplit"): SPLIT_FORM,
    ("extension_dg.py", "TrivialExtension.eq_split_iso"): SPLIT_FORM,
    ("extension_dg.py", "TrivialExtension.lam_b_unsplit"): SPLIT_FORM,
    ("exterior_core.py", "exterior_power_map"): "ROADMAP items 10 and 11: Lambda^p of a chart change and of chi_hat",
}


def test_tests_alone_reach_exactly_the_listed_definitions():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreached_definitions(package) == sorted(TEST_ONLY)
    # each entry says why it is kept: the roadmap item that needs it, or its reference role
    assert all(reason.strip() for reason in TEST_ONLY.values())
    # tests reach every listed one, so none is dead code
    test_reads = set()
    for path in TESTS.glob("test_*.py"):
        test_reads = test_reads.union(*_reads_by_owner(path.read_text()).values())
    assert unreached_definitions(package, roots=test_reads) == []


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # the modules loaded before the imports are left out, so what site preloads does not count
    names = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); before = set(sys.modules)\n"
        + "".join(f"import hkrlab.{name}\n" for name in names)
        + "print(*sorted(set(sys.modules) - before))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert {f"hkrlab.{name}" for name in names} <= loaded
    assert loaded & {"dataclasses", "inspect"} == set()
