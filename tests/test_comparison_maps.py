"""gamma and kappa read off psi's monomial table, against the closures they
replaced; controls on the checks that read them."""

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrlab import hkr_local
from hkrlab.cli_report import COMPARISON_MODELS
from hkrlab.coeff import CoeffAlgebra
from hkrlab.hkr_local import LocalModel, compare_hkr_ac
from reference_comparison_maps import reference_gamma, reference_kappa
from test_chain import DESK_MODELS, desk_chi

POINTS = sorted(set(DESK_MODELS) | set(COMPARISON_MODELS))
# a splitting under which kappa's symmetrization weights and gamma's
# twisted columns both matter
ROUTE_CHI = [["x1", "1", "-2"]]


def sorted_columns(f):
    """Every degree of a complex map, each column as its sorted entries."""
    return {n: [sorted(col.items()) for col in cols] for n, cols in f.cols.items()}


def assert_matches_reference(model):
    for got, want in ((model.gamma, reference_gamma(model)), (model.kappa, reference_kappa(model))):
        assert (got.source, got.target) == (want.source, want.target)
        assert sorted_columns(got) == sorted_columns(want)


@pytest.mark.parametrize("m,r,D", POINTS)
def test_psi_columns_match_the_reference_untwisted(m, r, D):
    assert_matches_reference(LocalModel(m, r, D))


@pytest.mark.parametrize("m,r,D", POINTS)
def test_psi_columns_match_the_reference_on_a_seeded_splitting(m, r, D):
    assert_matches_reference(LocalModel(m, r, D, chi=desk_chi(m, r, D, random.Random(f"{m}:{r}:{D}"))))


@st.composite
def model_with_drawn_chi(draw):
    m, r, D = draw(st.sampled_from(POINTS))
    A = CoeffAlgebra.polynomial(m, D)
    # every monomial an entry may hold without overflowing the bound
    monomials = [e for e in A.monomials if sum(e) < D]

    def entry():
        terms = draw(st.lists(st.tuples(st.sampled_from(monomials), st.integers(-3, 3)), max_size=3))
        return sum((A.monomial(e, c) for e, c in terms), A.zero())

    return LocalModel(m, r, D, chi=[[entry() for _ in range(r)] for _ in range(m)])


@settings(max_examples=50, deadline=None)
@given(model_with_drawn_chi())
def test_psi_columns_match_the_reference_on_drawn_splittings(model):
    assert_matches_reference(model)


def test_kappa_without_the_symmetrization_weight_fails_both_checks(monkeypatch):
    symmetrizations = hkr_local.symmetrizations

    def unweighted(K):
        return [(w * factorial(len(K)), T) for w, T in symmetrizations(K)]

    monkeypatch.setattr(hkr_local, "symmetrizations", unweighted)
    model = LocalModel(1, 3, 3, chi=ROUTE_CHI)
    assert model.kappa.is_chain_map() is False
    assert compare_hkr_ac(model) is False


def test_route_check_documents_its_blindness_to_the_splitting():
    # compare_hkr_ac compares kappa and gamma only after reduction along A,
    # where chi drops out: a model whose kappa reads the untwisted table while
    # its gamma reads chi still passes.  The reference tests above are what
    # guard against a builder that reads the wrong splitting.
    twisted, untwisted = LocalModel(1, 3, 3, chi=ROUTE_CHI), LocalModel(1, 3, 3)
    assert sorted_columns(twisted.kappa) != sorted_columns(untwisted.kappa)
    assert sorted_columns(twisted.gamma) != sorted_columns(untwisted.gamma)
    twisted.__dict__["kappa"] = untwisted.kappa
    assert compare_hkr_ac(twisted)
