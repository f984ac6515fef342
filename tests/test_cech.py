"""Nerves, Cech cohomology, twists, the comparison morphism and matrix."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hkrlab.coeff import CoeffAlgebra
from hkrlab.extension_dg import build_extension
from hkrlab.chain_core import homology
from hkrlab.cli_report import SuiteConfig, run_suite
from hkrlab import cech_twist, cli_report
from hkrlab.modules import BasedModule, LinMap, StructuralError
from hkrlab.rational import add_scaled
from hkrlab.cech_twist import (
    NERVE_LIBRARY,
    Nerve,
    NerveError,
    TwistFamily,
    UnsupportedTwistError,
    atiyah_twist,
    build_cochain,
    build_t_last_level,
    canonical_representative,
    cech_cohomology,
    cech_complex,
    cech_total_complex,
    cech_delta,
    circle_nerve,
    class_coordinates,
    cochain_module,
    cochain_type,
    cochain_value,
    cochain_wedge,
    codim2_matrix,
    cohomologous,
    combine_representatives,
    conjecture_probe,
    delta_entries_cohomologous,
    delta_matrix,
    delta_product,
    divisor_class,
    eta_recursion,
    hom_lam_module,
    hom_value_to_linmap,
    identity_hom_cochain,
    is_cocycle,
    l_operator,
    q_operator_is_chain_map,
    random_hom_twist,
    random_wedge_cochains,
    sphere_nerve,
    t_operator,
    torus_nerve,
    translation_fixes_wedge_classes,
    twisted_resolution_homology_check,
    yoneda_compose,
)
from hkrlab.connections import Connection, DerivationChi, KahlerModule
import reference_cochain as ref
from reference_comparison import chart_change

QQ = CoeffAlgebra.rationals()


def ext_of(r, algebra=QQ):
    return build_extension(algebra, r)


def h1_generator_cochain(ext, nerve):
    C = cech_complex(nerve, ext.lam_i(1))
    H = homology(C, 1)
    return combine_representatives(nerve, 1, ext.lam_i(1), [1], H.representatives)


# -- nerves and plain cohomology ----------------------------------------------


def test_nerve_face_closure_and_depth():
    n = Nerve.build([0, 1, 2], [(0, 1, 2)])
    assert n.depth == 2
    assert n.has((0, 1)) and n.has((2,))
    with pytest.raises(NerveError):
        Nerve.build([0, 1], [(0, 2)])


@pytest.mark.parametrize("name", sorted(NERVE_LIBRARY))
def test_nerve_tables_match_their_definitions(name):
    nerve = NERVE_LIBRARY[name]()
    for k in range(nerve.depth + 2):
        assert nerve.simplices_of_dim(k) == tuple(sorted(s for s in nerve.simplices if len(s) == k + 1))
    for s in nerve.simplices:
        want = [
            (t, k)
            for t in sorted(nerve.simplices)
            for k in range(len(t))
            if len(t) == len(s) + 1 and t[:k] + t[k + 1 :] == s
        ]
        assert list(nerve.cofaces[s]) == want


def test_nerve_json_round_trip():
    n = circle_nerve()
    assert Nerve.from_json(n.to_json()) == n


def test_single_vertex():
    n = Nerve.build([0], [])
    assert cech_cohomology(n, ext_of(1).lam_i(0), 0).dim == 1


def test_circle_cohomology():
    n = circle_nerve()
    M = ext_of(1).lam_i(0)
    assert cech_cohomology(n, M, 0).dim == 1
    assert cech_cohomology(n, M, 1).dim == 1
    with pytest.raises(NerveError):
        cech_cohomology(n, M, 2)


def test_sphere_cohomology():
    n = sphere_nerve(2)
    M = ext_of(1).lam_i(0)
    assert [cech_cohomology(n, M, k).dim for k in range(3)] == [1, 0, 1]
    n3 = sphere_nerve(3)
    assert [cech_cohomology(n3, M, k).dim for k in range(4)] == [1, 0, 0, 1]


def test_torus_cohomology_and_cup():
    n = torus_nerve()
    ext = ext_of(2)
    M = ext.lam_i(0)
    assert [cech_cohomology(n, M, k).dim for k in range(3)] == [1, 2, 1]
    # cup of two independent degree-1 scalar classes: nonzero, antisymmetric
    C = cech_complex(n, M)
    H = homology(C, 1)
    assert H.dim == 2

    def from_rep(t):
        return combine_representatives(n, 1, M, [1], H.representatives[t:])

    u, v = from_rep(0), from_rep(1)
    wf = lambda a, b: a.scale(b.coeff(()))
    uv = cochain_wedge(n, wf, u, v, M)
    vu = cochain_wedge(n, wf, v, u, M)
    assert is_cocycle(n, uv)
    assert any(class_coordinates(n, uv))
    assert cohomologous(n, uv, vu.scale(-1))


def random_cochain(nerve, degree, module, rng):
    """A cochain with a random value on every simplex of its degree."""
    algebra = module.algebra
    values = {
        s: module.element(
            (lab, algebra.monomial(mono, rng.randint(-2, 2)))
            for lab in module.labels
            for mono in algebra.monomials
        )
        for s in nerve.simplices_of_dim(degree)
    }
    return build_cochain(nerve, degree, module, values)


@pytest.mark.parametrize("algebra", [QQ, CoeffAlgebra.polynomial(1, 2)], ids=["Q", "Q[x1]"])
@pytest.mark.parametrize("name", sorted(NERVE_LIBRARY))
def test_cech_delta_is_the_alternating_face_sum(name, algebra):
    nerve = NERVE_LIBRARY[name]()
    ext = ext_of(2, algebra)
    rng = random.Random(11)
    for module in (ext.lam_i(1), hom_lam_module(ext, 1, 2)):
        for l in range(nerve.depth + 1):
            x = random_cochain(nerve, l, module, rng)
            want = ref.to_element(ref.cech_delta(ref.from_element(nerve, x)))
            got = cech_delta(nerve, x)
            assert cochain_type(nerve, got) == (l + 1, module)
            assert (got - want).is_zero()
            assert is_cocycle(nerve, x) == want.is_zero()
            assert is_cocycle(nerve, got)
        # below the top degree a random cochain is no cocycle
        assert not is_cocycle(nerve, random_cochain(nerve, nerve.depth - 1, module, rng))


def test_cochain_wedge_leibniz():
    rng = random.Random(3)
    ext = ext_of(2)
    for nerve in (circle_nerve(), torus_nerve()):
        M = ext.lam_i(1)
        xs = {s: M.element([((0,), rng.randint(-2, 2)), ((1,), rng.randint(-2, 2))]) for s in nerve.simplices_of_dim(0)}
        x = build_cochain(nerve, 0, M, xs)
        y = build_cochain(nerve, 1, M, {s: M.basis_vec((0,), rng.randint(-2, 2)) for s in nerve.simplices_of_dim(1)})
        wf = ext.exterior.wedge
        lhs = cech_delta(nerve, cochain_wedge(nerve, wf, x, y, ext.lam_i(2)))
        rhs = cochain_wedge(nerve, wf, cech_delta(nerve, x), y, ext.lam_i(2)) + cochain_wedge(
            nerve, wf, x, cech_delta(nerve, y), ext.lam_i(2)
        )  # deg(x) = 0: no sign
        assert (lhs - rhs).is_zero()


# -- operators -------------------------------------------------------------------


def test_l_operator_unit():
    ext = ext_of(2)
    nerve = circle_nerve()
    one = build_cochain(nerve, 0, ext.lam_i(0), {s: ext.lam_i(0).basis_vec(()) for s in nerve.simplices_of_dim(0)})
    got = l_operator(ext, nerve, 1, 1, one)
    assert (got - identity_hom_cochain(ext, nerve, 1)).is_zero()


@pytest.mark.parametrize("name", ["circle", "sphere2", "torus"])
def test_q_operator_chain_map(name):
    ext = ext_of(2)
    nerve = NERVE_LIBRARY[name]()
    gen = h1_generator_cochain(ext, nerve)
    # plus a coboundary: a nonzero cocycle on every nerve, sphere2 (H^1 = 0) too
    noise = random_cochain(nerve, 0, ext.lam_i(1), random.Random(4))
    shifted = gen + cech_delta(nerve, noise)
    assert not shifted.is_zero()
    for v in (gen, shifted):
        assert q_operator_is_chain_map(ext, nerve, 2, 1, v)
        assert q_operator_is_chain_map(ext, nerve, 1, 0, v)


@pytest.mark.parametrize("name", ["sphere2", "torus"])
def test_q_operator_of_a_non_cocycle_is_no_chain_map(name):
    ext = ext_of(2)
    nerve = NERVE_LIBRARY[name]()
    v = random_cochain(nerve, 1, ext.lam_i(1), random.Random(6))
    assert not is_cocycle(nerve, v)
    assert not q_operator_is_chain_map(ext, nerve, 2, 1, v)
    assert not q_operator_is_chain_map(ext, nerve, 1, 0, v)


def test_yoneda_rule_against_cup():
    ext = ext_of(2)
    nerve = torus_nerve()
    C = cech_complex(nerve, ext.lam_i(1))
    H = homology(C, 1)

    def from_rep(t):
        return combine_representatives(nerve, 1, ext.lam_i(1), [1], H.representatives[t:])

    v, w = from_rep(0), from_rep(2)
    lv = l_operator(ext, nerve, 2, 1, v)
    lw = l_operator(ext, nerve, 1, 0, w)
    got = yoneda_compose(nerve, lv, lw, hom_lam_module(ext, 0, 2))
    cup = cochain_wedge(nerve, ext.exterior.wedge, v, w, ext.lam_i(2))
    want = l_operator(ext, nerve, 2, 0, cup).scale((-1) ** (1 * 1))
    assert cohomologous(nerve, got, want)


def test_t_operator_identity_at_m_zero():
    ext = ext_of(3)
    nerve = circle_nerve()
    v = h1_generator_cochain(ext, nerve)
    u = l_operator(ext, nerve, 2, 1, v)
    assert (t_operator(ext, nerve, 2, 1, 0, u) - u).is_zero()


def test_t_operator_translation_identity():
    for r in (2, 3):
        ext = ext_of(r)
        nerve = circle_nerve()
        v = h1_generator_cochain(ext, nerve)
        for p in range(r):
            for m in range(r - p):
                assert translation_fixes_wedge_classes(ext, nerve, p + 1, p, m, v)


def test_t_operator_general_hom_value():
    ext = ext_of(2)
    nerve = circle_nerve()
    rng = random.Random(2)
    tw = random_hom_twist(ext, nerve, 0, rng)
    out = t_operator(ext, nerve, 1, 0, 1, tw.cochain)
    assert cochain_type(nerve, out) == (1, hom_lam_module(ext, 1, 2))
    assert is_cocycle(nerve, out)


# -- recursion spot values ----------------------------------------------------------


def test_eta_recursion_spot_values():
    ext = ext_of(3)
    nerve = circle_nerve()
    rng = random.Random(5)
    cs = random_wedge_cochains(ext, nerve, rng)
    ds = random_wedge_cochains(ext, nerve, rng)
    etas = eta_recursion(ext, nerve, cs, ds)
    assert (etas[(1, 0)] - (cs[0] - ds[0])).is_zero()
    want21 = (cs[0] - ds[0] + cs[1] - ds[1]).scale(Fraction(1, 2))
    assert (etas[(2, 1)] - want21).is_zero()
    wf = ext.exterior.wedge
    # the degree-2 entry keeps the 1/(i+1) prefactor (on this nerve both
    # sides vanish; the torus test below pins the normalization)
    want20 = cochain_wedge(nerve, wf, cs[0] - ds[1], cs[0] - ds[0], ext.lam_i(2)).scale(
        Fraction(-1, 2)
    )
    assert (etas[(2, 0)] - want20).is_zero()


def doubled_columns(cols):
    """Twice a component of the comparison morphism, on its sparse columns."""
    return [{i: 2 * c for i, c in col.items()} for col in cols]


def test_eta_two_zero_normalization_forced_by_chain_equations():
    # on a depth-2 nerve the (2,0) component without the 1/2 prefactor
    # fails the comparison chain equations; with it, they hold
    from hkrlab.cech_twist import build_t_wedge, t_chain_check

    ext = ext_of(2)
    nerve = sphere_nerve(2)
    rng = random.Random(13)
    cs = random_wedge_cochains(ext, nerve, rng)
    ds = random_wedge_cochains(ext, nerve, rng)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, cs)
    mu = TwistFamily.from_wedge_cochains(ext, nerve, ds)
    T = build_t_wedge(ext, nerve, cs, ds)
    assert t_chain_check(ext, lam, mu, T)
    # rebuild with the doubled (2,0) component: the equations must fail
    bad = {key: doubled_columns(cols) if key[:2] == (0, 2) else cols for key, cols in T.items()}
    assert not t_chain_check(ext, lam, mu, bad)


def test_eta_vanishes_above_diagonal_when_twists_agree():
    ext = ext_of(3)
    nerve = circle_nerve()
    rng = random.Random(9)
    cs = random_wedge_cochains(ext, nerve, rng)
    etas = eta_recursion(ext, nerve, cs, cs)
    for i in range(4):
        for j in range(i):
            assert etas[(i, j)].is_zero()


# -- the comparison morphism and matrix ----------------------------------------------


@pytest.mark.parametrize("r", [2, 3])
def test_wedge_comparison_on_circle(r):
    ext = ext_of(r)
    nerve = circle_nerve()
    rng = random.Random(40 + r)
    for _ in range(3):
        cs = random_wedge_cochains(ext, nerve, rng)
        ds = random_wedge_cochains(ext, nerve, rng)
        lam = TwistFamily.from_wedge_cochains(ext, nerve, cs)
        mu = TwistFamily.from_wedge_cochains(ext, nerve, ds)
        assert transitions_compose(lam)
        delta = delta_matrix(ext, nerve, lam, mu, "wedge")
        assert delta.diagonal_is_identity()
        cs_canon = [canonical_representative(nerve, c) for c in cs]
        ds_canon = [canonical_representative(nerve, d) for d in ds]
        zetas = eta_recursion(ext, nerve, cs_canon, ds_canon)
        for i in range(r + 1):
            for j in range(i):
                if i - j > nerve.depth:
                    continue
                want = l_operator(ext, nerve, i, j, zetas[(i, j)])
                assert cohomologous(nerve, delta.entry(i, j), want)


def test_wedge_comparison_equal_twists_identity_matrix():
    ext = ext_of(2)
    nerve = circle_nerve()
    rng = random.Random(7)
    cs = random_wedge_cochains(ext, nerve, rng)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, cs)
    mu = TwistFamily.from_wedge_cochains(ext, nerve, cs)
    delta = delta_matrix(ext, nerve, lam, mu, "wedge")
    assert delta.diagonal_is_identity()
    for i in range(3):
        for j in range(i):
            if i - j <= nerve.depth:
                hom = hom_lam_module(ext, j, i)
                assert cohomologous(nerve, delta.entry(i, j), cochain_module(nerve, hom, i - j).zero())


def test_wedge_comparison_on_sphere_with_coboundary_twists():
    ext = ext_of(2)
    nerve = sphere_nerve(2)
    rng = random.Random(11)
    cs = random_wedge_cochains(ext, nerve, rng)  # pure coboundaries here
    ds = random_wedge_cochains(ext, nerve, rng)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, cs)
    mu = TwistFamily.from_wedge_cochains(ext, nerve, ds)
    delta = delta_matrix(ext, nerve, lam, mu, "wedge")
    assert delta.diagonal_is_identity()
    for i in range(3):
        for j in range(i):
            if i - j <= nerve.depth:
                hom = hom_lam_module(ext, j, i)
                assert cohomologous(nerve, delta.entry(i, j), cochain_module(nerve, hom, i - j).zero())


def test_wedge_comparison_on_torus_quadratic_entry():
    ext = ext_of(2)
    nerve = torus_nerve()
    rng = random.Random(23)
    cs = random_wedge_cochains(ext, nerve, rng)
    ds = random_wedge_cochains(ext, nerve, rng)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, cs)
    mu = TwistFamily.from_wedge_cochains(ext, nerve, ds)
    delta = delta_matrix(ext, nerve, lam, mu, "wedge")
    zetas = eta_recursion(ext, nerve, cs, ds)
    for i in range(3):
        for j in range(i):
            want = l_operator(ext, nerve, i, j, zetas[(i, j)])
            assert cohomologous(nerve, delta.entry(i, j), want)


def test_composition_law_at_class_level():
    ext = ext_of(2)
    nerve = circle_nerve()
    rng = random.Random(29)
    cs = random_wedge_cochains(ext, nerve, rng)
    ds = random_wedge_cochains(ext, nerve, rng)
    zeros = [cochain_module(nerve, ext.lam_i(1), 1).zero() for _ in range(2)]
    lam = TwistFamily.from_wedge_cochains(ext, nerve, cs)
    mu = TwistFamily.from_wedge_cochains(ext, nerve, ds)
    zero_fam = TwistFamily.from_wedge_cochains(ext, nerve, zeros)
    d_mu_lam = delta_matrix(ext, nerve, lam, mu, "wedge")
    d_0_lam = delta_matrix(ext, nerve, lam, zero_fam, "wedge")
    d_0_mu = delta_matrix(ext, nerve, mu, zero_fam, "wedge")
    lhs = delta_product(ext, nerve, d_0_mu, d_mu_lam)
    assert delta_entries_cohomologous(nerve, lhs, d_0_lam)


@pytest.mark.parametrize("r", [2, 3])
def test_last_level_comparison(r):
    ext = ext_of(r)
    nerve = circle_nerve()
    rng = random.Random(60 + r)
    shared = [random_hom_twist(ext, nerve, n, rng) for n in range(r - 1)]
    lam = TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, r - 1, rng)])
    mu = TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, r - 1, rng)])
    delta = delta_matrix(ext, nerve, lam, mu, "last-level")
    assert delta.diagonal_is_identity()
    want = (lam.cocycles[r - 1].cochain - mu.cocycles[r - 1].cochain).scale(Fraction(1, r))
    assert cohomologous(nerve, delta.entry(r, r - 1), want)
    for i in range(r + 1):
        for j in range(i):
            if (i, j) == (r, r - 1) or i - j > nerve.depth:
                continue
            hom = hom_lam_module(ext, j, i)
            assert cohomologous(nerve, delta.entry(i, j), cochain_module(nerve, hom, i - j).zero())


def test_last_level_requires_matching_lower_levels():
    ext = ext_of(2)
    nerve = circle_nerve()
    rng = random.Random(71)
    lam = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(2)])
    mu = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(2)])
    with pytest.raises(UnsupportedTwistError):
        build_t_last_level(ext, nerve, lam, mu)


def test_delta_matrix_unsupported_shape():
    ext = ext_of(2)
    nerve = circle_nerve()
    lam = TwistFamily.zero(ext, nerve)
    with pytest.raises(UnsupportedTwistError):
        delta_matrix(ext, nerve, lam, lam, "general")


def test_wedge_comparison_needs_families_built_from_wedge_cochains():
    ext = ext_of(2)
    nerve = circle_nerve()
    zero = TwistFamily.zero(ext, nerve)
    wedge = TwistFamily.from_wedge_cochains(ext, nerve, [cochain_module(nerve, ext.lam_i(1), 1).zero()] * 2)
    assert zero.wedge_data is None
    for lam, mu in ((zero, zero), (wedge, zero), (zero, wedge)):
        with pytest.raises(UnsupportedTwistError):
            delta_matrix(ext, nerve, lam, mu, "wedge")
    assert delta_matrix(ext, nerve, wedge, wedge, "wedge").diagonal_is_identity()


# -- negative controls: each comparison claim can fail -------------------------------


def sphere2_wedge_families(seed):
    ext = ext_of(2)
    nerve = sphere_nerve(2)
    rng = random.Random(seed)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    mu = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    return ext, nerve, lam, mu


_build_transition = TwistFamily._build_transition


def opposite_sign_transition(self, n, a, b):
    """The chart change (i, j) |-> (i + c_ab(j), j), in the builder's column
    form: 2 id minus the columns of (i, j) |-> (i - c_ab(j), j)."""
    return [add_scaled({i: 2}, -1, col) for i, col in enumerate(_build_transition(self, n, a, b))]


def test_transitions_with_the_opposite_sign_break_the_chain_map(monkeypatch):
    ext, nerve, lam, mu = sphere2_wedge_families(41)
    delta_matrix(ext, nerve, lam, mu, "wedge")  # unmutated, the same data passes
    monkeypatch.setattr(TwistFamily, "_build_transition", opposite_sign_transition)
    ext, nerve, lam, mu = sphere2_wedge_families(41)
    with pytest.raises(StructuralError, match="comparison morphism is not a chain map"):
        delta_matrix(ext, nerve, lam, mu, "wedge")


@pytest.mark.parametrize("suite", ["comparison_wedge", "comparison_last_level"])
def test_opposite_sign_transitions_fail_the_comparison_suites(monkeypatch, suite):
    monkeypatch.setattr(TwistFamily, "_build_transition", opposite_sign_transition)
    record = run_suite(SuiteConfig(suite=suite, nerve="sphere2")).records[0]
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 2, "trial": 0, "claim": "comparison morphism is not a chain map"}


def test_opposite_sign_transitions_fail_probe_domains_at_a_named_domain(monkeypatch):
    monkeypatch.setattr(TwistFamily, "_build_transition", opposite_sign_transition)
    records = run_suite(SuiteConfig(suite="comparison_wedge", nerve="sphere2")).records
    (record,) = [r for r in records if r["id"] == "probe-domains"]
    assert record["status"] == "fail"
    assert record["detail"] == {"domain": "wedge", "claim": "comparison morphism is not a chain map"}


def test_a_wrong_spot_value_fails_comparison_wedge_at_a_named_trial(monkeypatch):
    eta_recursion = cli_report.eta_recursion

    def perturbed(*args):
        zetas = eta_recursion(*args)
        M = zetas[(1, 0)].module
        zetas[(1, 0)] = zetas[(1, 0)] + M.basis_vec(M.labels[0])
        return zetas

    monkeypatch.setattr(cli_report, "eta_recursion", perturbed)
    record = run_suite(SuiteConfig(suite="comparison_wedge", nerve="sphere2")).records[0]
    assert record["status"] == "fail"
    assert record["detail"] == {"rank": 2, "trial": 0, "claim": "first spot value"}


def test_doubled_comparison_morphism_is_a_chain_map_that_misses_the_identity(monkeypatch):
    ext, nerve, lam, mu = sphere2_wedge_families(42)
    build = cech_twist.build_t_wedge

    def doubled(*args):
        return {key: doubled_columns(cols) for key, cols in build(*args).items()}

    assert cech_twist.t_chain_check(ext, lam, mu, doubled(ext, nerve, lam.wedge_data, mu.wedge_data))
    monkeypatch.setattr(cech_twist, "build_t_wedge", doubled)
    with pytest.raises(StructuralError, match="does not cover the identity"):
        delta_matrix(ext, nerve, lam, mu, "wedge")


def test_non_cocycle_twist_data_is_rejected():
    # the circle has no 2-simplices, so every 1-cochain on it is a cocycle
    ext = ext_of(2)
    nerve = sphere_nerve(2)
    rng = random.Random(43)
    cs = [random_cochain(nerve, 1, ext.lam_i(1), rng) for _ in range(ext.rank)]
    assert not is_cocycle(nerve, cs[0])
    with pytest.raises(StructuralError, match="twist data violates the cocycle condition"):
        TwistFamily.from_wedge_cochains(ext, nerve, cs)


def transitions_compose(fam):
    """The transition cocycle law, on maps: T_ab o T_bc = T_ac and
    T_ba o T_ab = id on every triangle (a, b, c), at every twist level.
    It follows from the cocycle condition on the twist data."""
    ext = fam.ext
    for n in range(ext.rank):
        for s in fam.nerve.simplices_of_dim(2):
            a, b, c = s
            lhs = chart_change(fam, n, a, b).compose(chart_change(fam, n, b, c))
            rhs = chart_change(fam, n, a, c)
            if not (lhs - rhs).is_zero():
                return False
            inv = chart_change(fam, n, b, a).compose(chart_change(fam, n, a, b))
            if not (inv - LinMap.identity(ext.lam_b(n + 1))).is_zero():
                return False
    return True


@pytest.mark.parametrize("name", ["sphere2", "torus"])
@pytest.mark.parametrize("r", [2, 3])
def test_transitions_compose_along_triangles(name, r):
    ext = ext_of(r)
    nerve = NERVE_LIBRARY[name]()
    rng = random.Random(f"{name}:{r}")
    for _ in range(2):
        wedge = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
        hom = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(r)])
        assert transitions_compose(wedge)
        assert transitions_compose(hom)
    # the law is not vacuous: a non-cocycle put past the TwistCocycle check breaks it
    hom.cocycles[0].cochain = random_cochain(nerve, 1, hom_lam_module(ext, 0, 1), rng)
    assert not transitions_compose(TwistFamily(ext, nerve, hom.cocycles))


@pytest.mark.parametrize(
    "name, dims",
    [
        ("circle", {0: 1, 1: 1}),
        ("sphere2", {-2: 0, -1: 0, 0: 1, 1: 0, 2: 1}),
        ("torus", {-2: 0, -1: 0, 0: 1, 1: 2, 2: 1}),
    ],
    ids=["circle", "sphere2", "torus"],
)
def test_twisted_resolution_homology(name, dims):
    ext = ext_of(2)
    nerve = NERVE_LIBRARY[name]()
    rng = random.Random(31)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    assert twisted_resolution_homology_check(ext, lam, dims)


# -- curvature twists, the rank-2 matrix, the divisor class ------------------------


def polynomial_setup(r, D=3):
    algebra = CoeffAlgebra.polynomial(1, D)
    ext = build_extension(algebra, r)
    kah = KahlerModule(algebra)
    return algebra, ext, kah


def test_atiyah_difference_flat_is_zero_twist():
    algebra, ext, kah = polynomial_setup(1)
    nerve = circle_nerve()
    nablas = {v: Connection(ext, kah) for v in nerve.vertices}
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,))])
    res = atiyah_twist(ext, kah, nerve, {}, nablas, chi=chi, level=0)
    assert res["difference_cocycle"]
    assert res["twist"].cochain.is_zero()
    assert res["conjugation"]


def test_atiyah_difference_with_unit_transitions():
    # rank one, unit transitions satisfying the cocycle law on a triangle
    algebra, ext, kah = polynomial_setup(1)
    nerve = Nerve.build([0, 1, 2], [(0, 1, 2)])
    u = algebra.one() + algebra.gen(0)

    def scale_map(p):
        m = LinMap(ext.lam_i(1), ext.lam_i(1))
        m.set_column((0,), ext.lam_i(1).basis_vec((0,), p))
        return m

    transitions = {
        (0, 1): scale_map(u),
        (1, 2): scale_map(u),
        (0, 2): scale_map(u * u),
    }
    gammas = {
        0: None,
        1: Connection(ext, kah).form_module(1).basis_vec(((0,), (0,)), algebra.gen(0)),
        2: Connection(ext, kah).form_module(1).basis_vec(((0,), (0,))),
    }
    nablas = {
        v: Connection(ext, kah, {0: g} if g is not None else None) for v, g in gammas.items()
    }
    res = atiyah_twist(ext, kah, nerve, transitions, nablas, level=1)
    assert res["difference_cocycle"]


def test_atiyah_nonflat_gives_conjugation():
    algebra, ext, kah = polynomial_setup(2)
    nerve = circle_nerve()
    base = Connection(ext, kah)
    forms = base.form_module(1)
    nablas = {
        0: Connection(ext, kah),
        1: Connection(ext, kah, {0: forms.basis_vec(((0,), (1,)), algebra.gen(0)), 1: forms.zero()}),
        2: Connection(ext, kah, {0: forms.zero(), 1: forms.basis_vec(((0,), (0,)))}),
    }
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((1,))])
    res = atiyah_twist(ext, kah, nerve, {}, nablas, chi=chi, level=1)
    assert res["difference_cocycle"]
    assert res["conjugation"]


def test_codim2_matrix_flat_is_identity():
    algebra, ext, kah = polynomial_setup(2)
    nerve = circle_nerve()
    nablas = {v: Connection(ext, kah) for v in nerve.vertices}
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,))])
    delta, theta, checks = codim2_matrix(ext, kah, nerve, nablas, chi)
    assert theta.is_zero()
    assert all(checks.values()), checks


def test_codim2_matrix_nonflat():
    algebra, ext, kah = polynomial_setup(2)
    nerve = circle_nerve()
    base = Connection(ext, kah)
    forms = base.form_module(1)
    nablas = {
        0: Connection(ext, kah),
        1: Connection(ext, kah, {0: forms.basis_vec(((0,), (1,))), 1: forms.zero()}),
        2: Connection(ext, kah),
    }
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,))])
    delta, theta, checks = codim2_matrix(ext, kah, nerve, nablas, chi)
    assert all(checks.values()), checks


def test_divisor_class_zero():
    nerve = circle_nerve()
    ext = ext_of(1)
    zero = cochain_module(nerve, ext.lam_i(1), 1).zero()
    q0, q1 = divisor_class(nerve, zero)
    assert q0 == 1
    assert cohomologous(nerve, q1, zero)


@pytest.mark.parametrize("name", ["circle", "torus"])
def test_divisor_class_generator(name):
    nerve = NERVE_LIBRARY[name]()
    ext = ext_of(1)
    gen = h1_generator_cochain(ext, nerve)
    q0, q1 = divisor_class(nerve, gen)
    assert q0 == 1
    assert cohomologous(nerve, q1, gen)
    assert any(class_coordinates(nerve, q1))


@pytest.mark.parametrize("name", ["circle", "sphere2"])
def test_divisor_class_coboundary_input(name):
    nerve = NERVE_LIBRARY[name]()
    ext = ext_of(1)
    noise = build_cochain(nerve, 0, ext.lam_i(1), {(1,): ext.lam_i(1).basis_vec((0,), 3)})
    cob = cech_delta(nerve, noise)
    q0, q1 = divisor_class(nerve, cob)
    assert q0 == 1
    assert cohomologous(nerve, q1, cochain_module(nerve, ext.lam_i(1), 1).zero())


# -- the recursion probe ---------------------------------------------------------


def test_probe_agrees_on_wedge_domain():
    ext = ext_of(2)
    nerve = circle_nerve()
    rng = random.Random(97)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    mu = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    report = conjecture_probe(ext, nerve, lam, mu, shape="wedge")
    assert report["agrees"] is True


def test_probe_agrees_on_last_level_domain():
    ext = ext_of(2)
    nerve = circle_nerve()
    rng = random.Random(98)
    shared = [random_hom_twist(ext, nerve, 0, rng)]
    lam = TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, 1, rng)])
    mu = TwistFamily(ext, nerve, shared + [random_hom_twist(ext, nerve, 1, rng)])
    report = conjecture_probe(ext, nerve, lam, mu, shape="last-level")
    assert report["agrees"] is True


def test_probe_general_case_reports_untestable():
    ext = ext_of(3)
    nerve = sphere_nerve(2)
    rng = random.Random(99)
    lam = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(3)])
    mu = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(3)])
    report = conjecture_probe(ext, nerve, lam, mu, shape=None)
    assert report["agrees"] is None
    assert all(v["status"] == "untestable" for v in report["entries"].values())
    assert all(v["cocycle"] for v in report["entries"].values())


def test_divisor_class_depends_only_on_class():
    nerve = circle_nerve()
    ext = ext_of(1)
    gen = h1_generator_cochain(ext, nerve)
    noise = build_cochain(nerve, 0, ext.lam_i(1), {(0,): ext.lam_i(1).basis_vec((0,), 7)})
    shifted = gen + cech_delta(nerve, noise)
    q0a, q1a = divisor_class(nerve, gen)
    q0b, q1b = divisor_class(nerve, shifted)
    assert q0a == q0b == 1
    assert cohomologous(nerve, q1a, q1b)


def test_divisor_on_larger_circle():
    nerve = circle_nerve(5)
    ext = ext_of(1)
    gen = h1_generator_cochain(ext, nerve)
    q0, q1 = divisor_class(nerve, gen.scale(3))
    assert q0 == 1
    assert cohomologous(nerve, q1, gen.scale(3))


def test_codim2_theta_nonflat_cochain():
    # per-vertex connections on a trivialized module always give a
    # coboundary difference cocycle, so the entry class vanishes even when
    # the cochain does not; the cochain-level matrix match is the content
    # (nonzero entry classes are exercised by the last-level suite, whose
    # Hom-valued twists are genuine degree-1 classes)
    algebra, ext, kah = polynomial_setup(2)
    nerve = circle_nerve()
    forms = Connection(ext, kah).form_module(1)
    nablas = {
        0: Connection(ext, kah),
        1: Connection(ext, kah, {0: forms.basis_vec(((0,), (1,))), 1: forms.zero()}),
        2: Connection(ext, kah, {0: forms.basis_vec(((0,), (1,)), algebra.const(2)), 1: forms.zero()}),
    }
    chi = DerivationChi(ext, kah, [ext.lam_i(1).basis_vec((0,))])
    delta, theta, checks = codim2_matrix(ext, kah, nerve, nablas, chi)
    assert all(checks.values()), checks
    assert not theta.is_zero()
    assert not any(class_coordinates(nerve, theta))


def test_probe_documents_cup_sign_tension_on_torus():
    # on a nerve with nonvanishing cups the literal recursion reading
    # disagrees with the verified comparison matrix at exactly the entries
    # with odd degree gap >= 2 nonzero cup terms, while wedging the extra
    # (-1)^{i-j} onto the composed term restores agreement everywhere
    ext = ext_of(2)
    nerve = torus_nerve()
    rng = random.Random(5)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    mu = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    report = conjecture_probe(ext, nerve, lam, mu, shape="wedge")
    assert report["agrees"] is False
    assert report["entries"]["2,0"]["status"] == "disagree"
    assert report["agrees_corrected"] is True


def test_twisted_local_system_cohomology():
    # a sign-monodromy local system on the circle has no cohomology
    ext = ext_of(1)
    nerve = circle_nerve()
    M = ext.lam_i(1)

    def transitions(j, a, b):
        sign = -1 if (a, b) in ((0, 1), (1, 0)) else 1
        return [{0: sign}]

    twisted = cech_total_complex(nerve, {0: M}, {}, transitions)
    assert homology(twisted, 0).dim == 0
    assert homology(twisted, 1).dim == 0
    # trivial transitions recover the constant coefficients
    assert cech_cohomology(nerve, M, 0).dim == 1


def test_untwisted_cech_complex_is_built_once_per_nerve_and_module():
    ext = ext_of(2)
    nerve = sphere_nerve(2)
    M = ext.lam_i(1)
    C = cech_complex(nerve, M)
    assert cech_complex(nerve, M) is C
    # modules compare by value, so an equal module finds the same complex
    same = BasedModule(M.algebra, M.labels, M.name, M.grades)
    assert cech_complex(nerve, same) is C
    assert cech_complex(sphere_nerve(2), M) is not C
    assert cech_complex(nerve, ext.lam_i(2)) is not C


def test_cached_transitions_equal_fresh_ones_after_delta_matrix():
    # a caller that changed cached columns in place would show up here
    ext = ext_of(2)
    nerve = sphere_nerve(2)
    rng = random.Random(5)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    mu = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    delta_matrix(ext, nerve, lam, mu, "wedge")
    for fam in (lam, mu):
        fresh = TwistFamily(ext, nerve, fam.cocycles)
        keys = sorted(fam._transitions)
        assert keys
        for key in keys:
            assert fam.transition_columns(*key) is fam.transition_columns(*key)
            assert fam.transition_columns(*key) == fresh.transition_columns(*key)


def test_cech_total_complex_rejects_a_column_with_nonzero_d_squared():
    ext = ext_of(1)
    nerve = sphere_nerve(2)
    M = ext.lam_i(1)

    def transitions(j, a, b):
        # scaling along the one edge (0, 1) alone breaks the cocycle condition
        return [{0: 2 if (a, b) == (0, 1) else 1}]

    with pytest.raises(ValueError, match="d o d"):
        cech_total_complex(nerve, {0: M}, {}, transitions)
    tot = cech_total_complex(nerve, {0: M}, {}, lambda j, a, b: [{0: 1}])
    assert homology(tot, 2).dim == 1


def test_cech_total_complex_rejects_a_vertical_map_that_ignores_the_chart_changes():
    # column 0 is twisted by the coboundary of g = (2 at vertex 0, else 1),
    # column 1 is untwisted, and the identity between them is no map of
    # local systems: its square fails, so the total's d o d check fails
    ext = ext_of(1)
    nerve = sphere_nerve(2)
    M = ext.lam_i(1)

    def transitions(j, a, b):
        g = {0: 2}
        return [{0: Fraction(g.get(a, 1), g.get(b, 1)) if j == 0 else 1}]

    # each column alone is a complex of local systems
    assert homology(cech_total_complex(nerve, {0: M, 1: M}, {}, transitions), 0).dim == 1
    with pytest.raises(ValueError, match="d o d"):
        cech_total_complex(nerve, {0: M, 1: M}, {0: LinMap.identity(M)}, transitions)


GOLDEN = Path(__file__).parent / "golden"


def delta_golden_text(nerve_name, r, seed):
    """Every entry of the first comparison-wedge trial's comparison matrix,
    as {"i,j": {"simplex": dense matrix of coefficient strings}}, in the
    order check_comparison_wedge draws the trial."""
    nerve = NERVE_LIBRARY[nerve_name]()
    ext = ext_of(r)
    rng = random.Random(f"{seed}:wedge:{r}")
    lam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    mu = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    delta = delta_matrix(ext, nerve, lam, mu, "wedge")
    entries = {}
    for i in range(r + 1):
        for j in range(i + 1):
            if i - j > nerve.depth:
                continue
            e = delta.entry(i, j)
            entries[f"{i},{j}"] = {
                ",".join(map(str, s)): hom_value_to_linmap(ext, j, i, cochain_value(nerve, e, s)).to_json()
                for s in nerve.simplices_of_dim(i - j)
            }
    return json.dumps(entries, sort_keys=True, indent=1) + "\n"


def test_delta_matrix_matches_golden_values():
    # computed matrix entries, not only statuses: a wrong matrix that still
    # passes its checks changes these bytes
    got = delta_golden_text("sphere2", 2, 0)
    assert got.encode() == (GOLDEN / "delta_sphere2_rank2_seed0.json").read_bytes()
