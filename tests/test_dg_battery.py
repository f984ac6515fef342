"""The dg battery: its product memo against a plain reference loop, the
negative controls it must catch, and the differentials each extension
builds once and shares."""

import random

import pytest

from hkrlab.ak_complexes import build_p_complex, build_q_complex, p_q_battery
from hkrlab.cech_twist import (
    TwistFamily,
    canonical_representative,
    circle_nerve,
    delta_matrix,
    eta_recursion,
    random_wedge_cochains,
)
from hkrlab.chain_core import homology_dims
from hkrlab.cli_report import SuiteConfig, _ranks, check_dg_battery, dg_battery_failure
from hkrlab.coeff import CoeffAlgebra
from hkrlab.extension_dg import TrivialExtension, build_extension

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
                            if not (xy - ext.star_abstract(k, l, x, y)).is_zero():
                                return "fail", {"claim": "split product", "rank": r}
                            lhs = dkl.apply(xy)
                            rhs = ext.star(k - 1, l, dx, y) if k else ext.lam_b(k + l).zero()
                            if l:
                                rhs = rhs + ext.star(k, l - 1, x, dl.apply(y)).scale((-1) ** k)
                            if not (lhs - rhs).is_zero():
                                return "fail", {"claim": "Leibniz", "rank": r}
                            for m in range(r + 1 - k - l):
                                for z, y_z in zip(basis[m], yz[l, m][yi]):
                                    if not (ext.star(k + l, m, xy, z) - ext.star(k, l + m, x, y_z)).is_zero():
                                        return "fail", {"claim": "associativity", "rank": r}
            for k in range(1, r + 1):
                if not ext.hat_d(k - 1).compose(ext.hat_d(k)).is_zero():
                    return "fail", {"claim": "square-zero differential", "rank": r, "degree": k}
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


CONTROLS = {
    "negated at (1, 1)": (_negated_at_one_one, {"claim": "split product", "rank": 2}),
    "doubled off the basis at k = 2": (_doubled_off_basis_at_two, {"claim": "associativity", "rank": 2}),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_the_battery_catches_a_mutated_product(monkeypatch, name):
    mutation, detail = CONTROLS[name]
    monkeypatch.setattr(TrivialExtension, "star", mutation(TrivialExtension.star))
    assert check_dg_battery(SuiteConfig()) == ("fail", detail)


@pytest.mark.parametrize("name", [None] + sorted(CONTROLS))
def test_the_memo_gives_the_reference_verdict(monkeypatch, name):
    if name is not None:
        mutation, _ = CONTROLS[name]
        monkeypatch.setattr(TrivialExtension, "star", mutation(TrivialExtension.star))
    config = SuiteConfig()
    assert check_dg_battery(config) == reference_dg_battery(config)


def test_the_battery_computes_each_product_about_once(monkeypatch):
    calls = [0]
    star = TrivialExtension.star

    def counted(self, k, l, x, y):
        calls[0] += 1
        return star(self, k, l, x, y)

    monkeypatch.setattr(TrivialExtension, "star", counted)
    assert check_dg_battery(SuiteConfig()) == ("pass", {"ranks": [1, 2, 3]})
    # the reference loop makes 122,692 calls here
    assert calls[0] <= 16000


def test_differentials_are_built_once_and_shared():
    ext = build_extension(QX2, 2)
    for k in range(4):
        assert ext.d(k) is ext.d(k)
        assert ext.hat_d(k) is ext.hat_d(k)
    assert ext.unit() is ext.unit()


def test_shared_maps_are_unchanged_by_their_callers():
    ext = build_extension(QQ, 2)
    assert dg_battery_failure(ext) is None
    assert all(p_q_battery(ext).values())
    homology_dims(build_p_complex(ext))
    homology_dims(build_q_complex(ext))
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
