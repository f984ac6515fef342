"""The chain-map check of the comparison morphism runs on sparse rational
columns.  It answers as the LinMap-composition reference
(tests/reference_comparison.py) does, on wedge and last-level families over
Q and over truncated polynomial algebras, and on inputs with one entry of
T or of one chart change perturbed, which both reject.  While it runs it
composes no LinMap, and each chart change is built once."""

import random
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
from hkrlab.modules import LinMap

from reference_comparison import reference_t_chain_check

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


def bump_t_entry(T):
    """T with the first stored entry of its first degree-0 component
    changed by +1."""
    key = min(k for k in T if k[1] == 0)
    comp = T[key]
    lab, col = next(iter(comp.cols.items()))
    bumped = LinMap(comp.source, comp.target, comp.cols)
    bumped.set_column(lab, col + comp.target.basis_vec(next(iter(col.data))))
    return {**T, key: bumped}


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


def assert_checks_agree(case):
    ext, lam, mu, T = case()
    assert t_chain_check(ext, lam, mu, T)
    assert reference_t_chain_check(ext, lam, mu, T)

    ext, lam, mu, T = case()
    bumped = bump_t_entry(T)
    assert not t_chain_check(ext, lam, mu, bumped)
    assert not reference_t_chain_check(ext, lam, mu, bumped)

    # mu's chart change on an edge (a, b) leads the face of the equation at (n, 1, (a, b))
    ext, lam, mu, T = case()
    bump_transition(mu, ext.rank - 1, lam.nerve.simplices_of_dim(1)[0])
    assert not t_chain_check(ext, lam, mu, T)
    assert not reference_t_chain_check(ext, lam, mu, T)


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
