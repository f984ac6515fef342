"""The comparison morphism is built and chain-checked on sparse rational
columns.  Its builders write the columns flatten_linmap reads off the
LinMap builders of the reference (tests/reference_comparison.py), and its
chain-map check answers as the LinMap-composition reference does, on wedge
and last-level families over Q and over truncated polynomial algebras, and
on inputs with one entry of T or of one chart change perturbed, which both
reject.  While it runs it composes no LinMap, each chart change is built
once, and once the nerve's complexes exist delta_matrix makes no LinMap."""

import random
import re
from collections import Counter

import pytest

from hkrlab import cech_twist
from hkrlab.cech_twist import (
    NERVE_LIBRARY,
    TwistCocycle,
    TwistFamily,
    atiyah_twist,
    build_t_last_level,
    build_t_wedge,
    circle_nerve,
    delta_matrix,
    random_hom_twist,
    random_wedge_cochains,
    sphere_nerve,
    t_chain_check,
)
from hkrlab.coeff import CoeffAlgebra
from hkrlab.connections import Connection, DerivationChi, KahlerModule
from hkrlab.extension_dg import build_extension
from hkrlab import modules
from hkrlab.modules import LinMap, StructuralError, flatten_linmap

from reference_comparison import (
    linmaps_of_columns,
    reference_build_t_last_level,
    reference_build_t_wedge,
    reference_t_chain_check,
)

QQ = CoeffAlgebra.rationals()


def wedge_case(name, r, seed):
    ext = build_extension(QQ, r)
    nerve = NERVE_LIBRARY[name]()
    rng = random.Random(f"wedge:{name}:{r}:{seed}")
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    mu = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    return ext, lam, mu, build_t_wedge(ext, nerve, lam.wedge_data, mu.wedge_data)


def last_level_case(algebra, name, r, seed):
    """Families that agree below the top twist level, drawn as the
    comparison-last-level check draws them."""
    ext = build_extension(algebra, r)
    nerve = NERVE_LIBRARY[name]()
    rng = random.Random(f"last:{name}:{r}:{seed}")
    shared = [random_hom_twist(ext, nerve, n, rng) for n in range(r - 1)]
    lam = TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, r - 1, rng)])
    mu = TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, r - 1, rng)])
    return ext, lam, mu, build_t_last_level(ext, nerve, lam, mu)


def codim2_case():
    """The non-flat curvature-difference twist of the codim2 tests: rank 2
    over Q[x1]<=3 on the circle, compared with the untwisted family."""
    algebra = CoeffAlgebra.polynomial(1, 3)
    ext = build_extension(algebra, 2)
    kah = KahlerModule(algebra)
    nerve = circle_nerve()
    forms = Connection(ext, kah).form_module(1)
    nablas = {
        0: Connection(ext, kah),
        1: Connection(ext, kah, {0: forms.basis_vec(((0,), (1,))), 1: forms.zero()}),
        2: Connection(ext, kah, {0: forms.basis_vec(((0,), (1,)), algebra.const(2)), 1: forms.zero()}),
    }
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,))])
    twist = atiyah_twist(ext, kah, nerve, {}, nablas, chi=chi, level=1)["twist"]
    lam = TwistFamily(ext, nerve, [TwistCocycle.zero(ext, nerve, 0), twist])
    mu = TwistFamily.zero(ext, nerve)
    return ext, lam, mu, build_t_last_level(ext, nerve, lam, mu)


def bump_t_entry(ext, T):
    """T with the first stored entry of its first degree-0 component
    changed by +1: at the first label with a nonzero column and the first
    target label of that column, in every monomial, so the component stays
    algebra-linear."""
    key = min(k for k in T if k[1] == 0)
    n, l, _ = key
    src, tgt = ext.flat(n + 1), ext.flat(n + l + 1)
    cols = [dict(col) for col in T[key]]
    first = next(j for j, col in enumerate(cols) if col)
    lab, tlab = src.pairs[first][0], tgt.pairs[next(iter(cols[first]))][0]
    for mono in ext.algebra.monomials:
        col, i = cols[src.index[(lab, mono)]], tgt.index[(tlab, mono)]
        col[i] = col.get(i, 0) + 1
        if not col[i]:
            del col[i]
    return {**T, key: cols}


def bump_transition(fam, n, edge):
    """Change the diagonal entry of the first column of fam's chart change
    at level n on edge (a, b) by +1, in the builder that both checks read."""
    build = fam._build_transition

    def bumped(*key):
        cols = build(*key)
        if key == (n, *edge):
            cols[0] = {**cols[0], 0: cols[0][0] + 1}
        return cols

    fam._build_transition = bumped


def assert_columns_match_the_reference(ext, lam, mu, T):
    """T's components are the columns flatten_linmap reads off the
    reference builder's LinMaps, key for key."""
    nerve = lam.nerve
    if lam.wedge_data is not None:
        reference = reference_build_t_wedge(ext, nerve, lam.wedge_data, mu.wedge_data)
    else:
        reference = reference_build_t_last_level(ext, nerve, lam, mu)
    assert T.keys() == reference.keys()
    for (n, l, s), m in reference.items():
        assert T[(n, l, s)] == flatten_linmap(m, ext.flat(n + 1), ext.flat(n + l + 1))


def assert_checks_agree(case):
    ext, lam, mu, T = case()
    assert_columns_match_the_reference(ext, lam, mu, T)
    assert t_chain_check(ext, lam, mu, T)
    assert reference_t_chain_check(ext, lam, mu, linmaps_of_columns(ext, T))

    ext, lam, mu, T = case()
    bumped = bump_t_entry(ext, T)
    assert not t_chain_check(ext, lam, mu, bumped)
    assert not reference_t_chain_check(ext, lam, mu, linmaps_of_columns(ext, bumped))

    # mu's chart change on an edge (a, b) leads the face of the equation at (n, 1, (a, b))
    ext, lam, mu, T = case()
    bump_transition(mu, ext.rank - 1, lam.nerve.simplices_of_dim(1)[0])
    assert not t_chain_check(ext, lam, mu, T)
    assert not reference_t_chain_check(ext, lam, mu, linmaps_of_columns(ext, T))


@pytest.mark.parametrize("name", ["sphere2", "torus"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_wedge_families_agree_with_the_reference(name, r):
    for seed in range(2):
        assert_checks_agree(lambda: wedge_case(name, r, seed))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_last_level_families_over_q_agree_with_the_reference(r):
    assert_checks_agree(lambda: last_level_case(QQ, "sphere2", r, 0))


@pytest.mark.parametrize("r", [1, 2])
def test_last_level_families_over_a_polynomial_algebra_agree_with_the_reference(r):
    algebra = CoeffAlgebra.polynomial(2, 2)
    assert_checks_agree(lambda: last_level_case(algebra, "circle", r, 0))


def test_codim2_family_agrees_with_the_reference():
    assert_checks_agree(codim2_case)


def test_chain_check_composes_no_linmap_and_builds_each_chart_change_once(monkeypatch):
    ext = build_extension(QQ, 3)
    nerve = sphere_nerve(2)
    rng = random.Random(7)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    mu = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    running = []
    calls = Counter()
    builds = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if running:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(LinMap, "compose", counted("compose", LinMap.compose))
    monkeypatch.setattr(
        LinMap, "from_function", classmethod(counted("from_function", LinMap.from_function.__func__))
    )
    build = TwistFamily._build_transition

    def counted_build(self, n, a, b):
        builds[(id(self), n, a, b)] += 1
        return build(self, n, a, b)

    monkeypatch.setattr(TwistFamily, "_build_transition", counted_build)
    check = cech_twist.t_chain_check

    def watched(*args):
        running.append(True)
        try:
            return check(*args)
        finally:
            running.pop()

    monkeypatch.setattr(cech_twist, "t_chain_check", watched)
    delta_matrix(ext, nerve, lam, mu, "wedge")
    assert not calls
    assert builds and max(builds.values()) == 1

    # with the nerve's Cech complexes and the extension's differentials
    # built, delta_matrix makes no LinMap on wedge or last-level families
    made = []

    def counted_init(self, *args, **kwargs):
        made.append("LinMap")
        init(self, *args, **kwargs)

    def counted_linmap(*args):
        made.append("_linmap")
        return linmap(*args)

    init, linmap = LinMap.__init__, modules._linmap
    monkeypatch.setattr(LinMap, "__init__", counted_init)
    monkeypatch.setattr(modules, "_linmap", counted_linmap)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    mu = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    made.clear()
    delta_matrix(ext, nerve, lam, mu, "wedge")
    assert not made
    shared = [random_hom_twist(ext, nerve, n, rng) for n in range(ext.rank - 1)]
    families = [
        TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, ext.rank - 1, rng)]) for _ in range(4)
    ]
    delta_matrix(ext, nerve, families[0], families[1], "last-level")
    made.clear()
    delta_matrix(ext, nerve, families[2], families[3], "last-level")
    assert not made


def test_a_component_with_the_wrong_number_of_columns_is_named():
    ext, lam, mu, T = wedge_case("sphere2", 2, 0)
    key = min(k for k in T if k[1] == 1)
    with pytest.raises(StructuralError, match=rf"component {re.escape(str(key))} .* has \d+ columns, not \d+"):
        t_chain_check(ext, lam, mu, {**T, key: T[key][:-1]})
