"""The dg battery: its product table against a plain reference loop, the
negative controls it must catch, how often it computes a product and a
wedge, and the differentials each extension builds once and shares.

The controls reach the split product, associativity and Leibniz claims.
None reaches "square-zero differential": that check reads only hat_d, and
once Leibniz holds on the bases, hat_d is a derivation of an algebra that
degrees 0 and 1 generate, which makes d o d = 0 follow."""

import random

import pytest

from hkrlab.ak_complexes import ak_battery_failure, build_p_complex, build_q_complex
from hkrlab.cech_twist import (
    TwistFamily,
    canonical_representative,
    circle_nerve,
    delta_matrix,
    eta_recursion,
    random_wedge_cochains,
)
from hkrlab.chain_core import homology_dims
from hkrlab.cli_report import SuiteConfig, _ranks, check_dg_battery
from hkrlab.coeff import CoeffAlgebra
from hkrlab.extension_dg import TrivialExtension, build_extension, dg_battery_failure
from hkrlab.hkr_local import build_k_complex, zeta_checks

QQ = CoeffAlgebra.rationals()
QX2 = CoeffAlgebra.polynomial(1, 2)


def reference_dg_battery(config):
    """The battery without a product memo: every product is recomputed
    where the check reads it."""
    ranks = _ranks(config, lowest=1)
    for algebra in (QQ, QX2):
        for r in ranks:
            ext = build_extension(algebra, r)
            basis = {}
            for k in range(r + 1):
                M = ext.lam_b(k + 1)
                basis[k] = [
                    M.basis_vec(lab, algebra.monomial(mono))
                    for lab in M.labels
                    for mono in algebra.monomials
                ]
            yz = {
                (l, m): [[ext.star(l, m, y, z) for z in basis[m]] for y in basis[l]]
                for l in range(r + 1)
                for m in range(r + 1 - l)
            }
            for k in range(r + 1):
                for l in range(r + 1 - k):
                    dk, dl, dkl = ext.hat_d(k), ext.hat_d(l), ext.hat_d(k + l)
                    for x in basis[k]:
                        dx = dk.apply(x)
                        for yi, y in enumerate(basis[l]):
                            xy = ext.star(k, l, x, y)
                            [[xy_formula]] = ext.star_abstract(k, l, [x], [y])
                            if not (xy - xy_formula).is_zero():
                                return "fail", {"claim": "split product", "rank": r, "algebra": repr(algebra)}
                            lhs = dkl.apply(xy)
                            rhs = ext.star(k - 1, l, dx, y) if k else ext.lam_b(k + l).zero()
                            if l:
                                rhs = rhs + ext.star(k, l - 1, x, dl.apply(y)).scale((-1) ** k)
                            if not (lhs - rhs).is_zero():
                                return "fail", {"claim": "Leibniz", "rank": r, "algebra": repr(algebra)}
                            for m in range(r + 1 - k - l):
                                for z, y_z in zip(basis[m], yz[l, m][yi]):
                                    if not (ext.star(k + l, m, xy, z) - ext.star(k, l + m, x, y_z)).is_zero():
                                        where = {"rank": r, "algebra": repr(algebra)}
                                        return "fail", {"claim": "associativity", **where}
            for k in range(1, r + 1):
                if not ext.hat_d(k - 1).compose(ext.hat_d(k)).is_zero():
                    where = {"rank": r, "degree": k, "algebra": repr(algebra)}
                    return "fail", {"claim": "square-zero differential", **where}
    return "pass", {"ranks": ranks}


def _negated_at_one_one(star):
    def mutated(self, k, l, x, y):
        p = star(self, k, l, x, y)
        return -p if (k, l) == (1, 1) else p

    return mutated


def _is_basis_vector(x):
    """One label whose coefficient is one monomial below x^2."""
    terms = [e for c in x.data.values() for e in c.terms]
    return len(terms) == 1 and sum(terms[0]) < 2


def _doubled_off_basis_at_two(star):
    def mutated(self, k, l, x, y):
        p = star(self, k, l, x, y)
        if k == 2 and self.algebra == QX2 and not _is_basis_vector(x):
            return p.scale(2)
        return p

    return mutated


def _hat_d_doubled_at_one(hat_d):
    def mutated(self, k):
        m = hat_d(self, k)
        return m.scale(2) if k == 1 else m

    return mutated


# name -> (the TrivialExtension method mutated, the mutation, the witness)
CONTROLS = {
    "negated at (1, 1)": ("star", _negated_at_one_one, {"claim": "split product", "rank": 2, "algebra": "Q"}),
    "doubled off the basis at k = 2": (
        "star",
        _doubled_off_basis_at_two,
        {"claim": "associativity", "rank": 2, "algebra": "Q[x1]<=2"},
    ),
    "hat_d doubled at k = 1": ("hat_d", _hat_d_doubled_at_one, {"claim": "Leibniz", "rank": 2, "algebra": "Q"}),
}


def _mutate(monkeypatch, name):
    method, mutation, _ = CONTROLS[name]
    monkeypatch.setattr(TrivialExtension, method, mutation(getattr(TrivialExtension, method)))


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_the_battery_catches_a_mutated_product(monkeypatch, name):
    _mutate(monkeypatch, name)
    assert check_dg_battery(SuiteConfig()) == ("fail", CONTROLS[name][2])


@pytest.mark.parametrize("name", [None] + sorted(CONTROLS))
def test_the_memo_gives_the_reference_verdict(monkeypatch, name):
    if name is not None:
        _mutate(monkeypatch, name)
    config = SuiteConfig()
    assert check_dg_battery(config) == reference_dg_battery(config)


def _counted(monkeypatch, method):
    """Count the calls of one TrivialExtension method."""
    calls = [0]
    f = getattr(TrivialExtension, method)

    def counted(self, *args):
        calls[0] += 1
        return f(self, *args)

    monkeypatch.setattr(TrivialExtension, method, counted)
    return calls


def test_the_battery_computes_each_product_about_once(monkeypatch):
    calls = _counted(monkeypatch, "star")
    assert check_dg_battery(SuiteConfig()) == ("pass", {"ranks": [1, 2, 3]})
    # one call per distinct (k, l, x, y); the reference loop makes 122,692
    # calls here
    assert calls[0] == 5532


def test_the_defining_formula_builds_each_operands_pieces_once_per_block(monkeypatch):
    calls = _counted(monkeypatch, "wedge_b")
    assert check_dg_battery(SuiteConfig()) == ("pass", {"ranks": [1, 2, 3]})
    # three wedges per pair and d(x) ^ 1_B once per x of each block: 2,380
    # pairs and 256 (block, x)
    assert calls[0] == 7396


def test_differentials_are_built_once_and_shared():
    ext = build_extension(QX2, 2)
    for k in range(4):
        assert ext.d(k) is ext.d(k)
        assert ext.hat_d(k) is ext.hat_d(k)
    assert ext.unit() is ext.unit()


def test_shared_maps_are_unchanged_by_their_callers():
    ext = build_extension(QQ, 2)
    assert dg_battery_failure(ext) is None
    assert ak_battery_failure(ext) is None
    homology_dims(build_p_complex(ext))
    homology_dims(build_q_complex(ext))
    assert all(zeta_checks(ext).values()) and all(zeta_checks(ext, window=3).values())
    # one trial of the comparison-wedge check
    nerve, rng = circle_nerve(), random.Random(0)
    cs = random_wedge_cochains(ext, nerve, rng)
    ds = random_wedge_cochains(ext, nerve, rng)
    lam = TwistFamily.from_wedge_cochains(ext, nerve, cs)
    mu = TwistFamily.from_wedge_cochains(ext, nerve, ds)
    assert delta_matrix(ext, nerve, lam, mu, "wedge").diagonal_is_identity()
    eta_recursion(
        ext,
        nerve,
        [canonical_representative(nerve, c) for c in cs],
        [canonical_representative(nerve, d) for d in ds],
    )

    fresh = build_extension(QQ, 2)
    assert ext._d and ext._hat_d
    for k, m in ext._d.items():
        assert m.cols == fresh.d(k).cols
    for k, m in ext._hat_d.items():
        assert m.cols == fresh.hat_d(k).cols
    assert ext.unit() == fresh.unit()
    # the kept complexes and their windowed views still hold the built terms
    for build in (build_p_complex, build_q_complex, build_k_complex):
        kept, new = build(ext), build(fresh)
        assert kept is build(ext) and kept.window is None
        assert kept.with_window(3).window == 3
        for view in (kept, kept.with_window(3)):
            assert view.modules == new.modules
            assert {n: d.cols for n, d in view.diffs.items()} == {n: d.cols for n, d in new.diffs.items()}
    # and so does K as zeta_checks built it at window 3
    kept, new = build_k_complex(ext, 3), build_k_complex(fresh, 3)
    assert kept.modules == new.modules
    assert {n: d.cols for n, d in kept.diffs.items()} == {n: d.cols for n, d in new.diffs.items()}
