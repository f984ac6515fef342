"""Local model: resolutions, comparison maps, sign chase, cycle class."""

import gc
import json
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrlab import chain_core
from hkrlab import rational as ql
from hkrlab.ak_complexes import build_p_complex
from hkrlab.chain_core import ComplexMap, homology, is_quasi_iso
from hkrlab.cli_report import COMPARISON_MODELS, SuiteConfig, run_suite
from hkrlab.coeff import CoeffAlgebra, poly_to_string
from hkrlab import hkr_local
from hkrlab.exterior_core import sort_sign
from hkrlab.extension_dg import TrivialExtension, build_extension
from hkrlab.hkr_local import (
    LocalModel,
    ModelError,
    build_k_complex,
    compare_hkr_ac,
    cycle_class_local,
    dual_hkr_sign,
    dual_twist_signs,
    tensor_power_module,
    zeta_checks,
)
from test_chain import DESK_MODELS

QQ = CoeffAlgebra.rationals()
GOLDEN = Path(__file__).parent / "golden"
# a splitting with entries of degree 0 and 1 in both variables
PSI_CHI = [["1+x2", "-2*x1"], ["x1", "3"]]


def random_chi(m, r, D, rng, max_deg=1):
    A = CoeffAlgebra.polynomial(m, D)
    out = []
    for i in range(m):
        row = []
        for k in range(r):
            p = A.zero()
            for e in A.monomials:
                if sum(e) <= max_deg:
                    p = p + A.monomial(e, rng.randint(-2, 2))
            row.append(p)
        out.append(row)
    return out


def test_build_model_canonical():
    model = LocalModel(1, 1, 3)
    b = model.psi(model.C.gen(1))  # the y generator
    assert b == model.j_class(0)
    a = model.psi(model.C.gen(0))
    i_part, a_part = model.ext.split(a)
    assert i_part.is_zero()
    assert a_part.coeff(()) == model.A.gen(0)


def test_build_model_with_splitting():
    A = CoeffAlgebra.polynomial(1, 3)
    model = LocalModel(1, 2, 3, chi=[[A.gen(0), A.zero()]])
    b = model.psi(model.C.gen(0))
    i_part, a_part = model.ext.split(b)
    assert a_part.coeff(()) == model.A.gen(0)
    assert i_part == model.ext.lam_i(1).basis_vec((0,), -A.gen(0))


@pytest.fixture(scope="module")
def twisted_model():
    return LocalModel(2, 2, 3, chi=PSI_CHI)


def psi_golden_text(model):
    """psi of every monomial of C, as {monomial: coefficient strings in the
    order of the labels of B}."""
    B = model.ext.B
    images = {}
    for e in model.C.monomials:
        mono = model.C.monomial(e)
        img = model.psi(mono)
        images[poly_to_string(mono)] = [poly_to_string(img.coeff(lab)) for lab in B.labels]
    return json.dumps({"labels": B.labels, "psi": images}, sort_keys=True, indent=1) + "\n"


def test_psi_matches_golden_values(twisted_model):
    got = psi_golden_text(twisted_model)
    assert got.encode() == (GOLDEN / "psi_model_2_2_3.json").read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_psi_is_the_product_of_generator_images(twisted_model, data):
    # reference: x_i |-> (-sum_k chi_ik y_k, x_i), y_k |-> (y_k, 0), multiplied
    # out term by term, last variable first
    model = twisted_model
    ext = model.ext
    gens = [ext.b_elem([-e for e in model.chi[i]], model.A.gen(i)) for i in range(model.m)]
    gens += [model.j_class(k) for k in range(model.r)]
    # a monomial may be drawn twice, so its coefficients can cancel
    terms = data.draw(st.lists(st.tuples(st.sampled_from(model.C.monomials), st.integers(-3, 3)), max_size=6))
    c = sum((model.C.monomial(e, v) for e, v in terms), model.C.zero())
    want = ext.B.zero()
    for e, v in c.terms.items():
        term = ext.unit().scale(v)
        for i in reversed(range(len(e))):
            for _ in range(e[i]):
                term = ext.b_mul(term, gens[i])
        want = want + term
    assert model.psi(c) == want


def test_validate_rejects_a_non_multiplicative_psi(monkeypatch):
    table = LocalModel._psi_monomial_table

    def perturbed(self):
        out = table(self)
        out[(1, 1)] = out[(1, 1)] + self.j_class(0)  # psi(x1*y1) gains y1
        return out

    monkeypatch.setattr(LocalModel, "_psi_monomial_table", perturbed)
    with pytest.raises(ModelError, match="psi is not multiplicative"):
        LocalModel(1, 1, 3)


@pytest.mark.parametrize("shape", [(1, 1, 3), (2, 2, 3), (1, 2, 4)], ids=str)
def test_validate_visits_exactly_the_pairs_inside_the_window(shape, monkeypatch):
    m, r, D = shape
    model = LocalModel(m, r, D, chi=PSI_CHI) if shape == (2, 2, 3) else LocalModel(m, r, D)
    table = model._psi_mono
    # the table is degree-ordered, which lets validate stop at the window's edge
    assert list(table) == model.C.monomials
    degrees = [sum(e) for e in table]
    assert degrees == sorted(degrees)
    seen, b_mul = [], TrivialExtension.b_mul

    def recording(ext, x, y):
        seen.append((id(x), id(y)))
        return b_mul(ext, x, y)

    monkeypatch.setattr(TrivialExtension, "b_mul", recording)
    model.validate()
    # psi(1) is compared with 1_B, and B's product is commutative, so each
    # unordered pair of non-constant monomials is multiplied once
    mons = [(sum(e), pe) for e, pe in table.items() if any(e)]
    assert seen == [(id(pe), id(pf)) for i, (de, pe) in enumerate(mons) for df, pf in mons[i:] if de + df <= D]


def test_validate_rejects_a_non_multiplicative_psi_at_the_top_degree(monkeypatch):
    table = LocalModel._psi_monomial_table

    def perturbed(self):
        out = table(self)
        out[(2, 1)] = out[(2, 1)] + self.j_class(0)  # psi(x1^2*y1), of degree D = 3, gains y1
        return out

    monkeypatch.setattr(LocalModel, "_psi_monomial_table", perturbed)
    with pytest.raises(ModelError, match="psi is not multiplicative"):
        LocalModel(1, 1, 3)


def test_validate_rejects_a_psi_of_one_that_is_not_the_unit(monkeypatch):
    table = LocalModel._psi_monomial_table

    def perturbed(self):
        out = table(self)
        out[(0, 0)] = out[(0, 0)] + self.j_class(0)  # psi(1) = 1_B + y1
        return out

    monkeypatch.setattr(LocalModel, "_psi_monomial_table", perturbed)
    with pytest.raises(ModelError):
        LocalModel(1, 1, 3)


def test_validate_rejects_a_non_multiplicative_psi_on_a_mixed_monomial(monkeypatch):
    table = LocalModel._psi_monomial_table

    def perturbed(self):
        out = table(self)
        out[(1, 0, 0, 1)] = out[(1, 0, 0, 1)] + self.j_class(0)  # psi(x1*y2) gains y1
        return out

    monkeypatch.setattr(LocalModel, "_psi_monomial_table", perturbed)
    with pytest.raises(ModelError, match="psi is not multiplicative"):
        LocalModel(2, 2, 3, chi=PSI_CHI)


def test_validate_rejects_a_splitting_that_is_not_a_section(monkeypatch):
    table = LocalModel._psi_monomial_table

    def perturbed(self):
        out = table(self)
        out[(1, 0)] = out[(1, 0)] + self.ext.unit()  # psi(x1) maps to x1 + 1 in A
        return out

    monkeypatch.setattr(LocalModel, "_psi_monomial_table", perturbed)
    with pytest.raises(ModelError, match="splitting is not a section"):
        LocalModel(1, 1, 3)


def test_build_model_rejects_overflowing_chi():
    A = CoeffAlgebra.polynomial(1, 3)
    x3 = A.monomial((3,))
    with pytest.raises(ModelError):
        LocalModel(1, 1, 3, chi=[[x3]])


def test_model_rejects_string_chi_entry_of_degree_D():
    with pytest.raises(ModelError, match="splitting entry of degree >= D"):
        LocalModel(1, 2, 3, chi=[["x1", "x1^3"]])


def test_model_accepts_string_chi():
    model = LocalModel(2, 2, 3, chi=[["x1", "0"], ["1+x2", "2"]])
    assert model.chi[1][0] == model.A.parse("1+x2")


def test_koszul_L_resolution():
    model = LocalModel(1, 2, 3)
    L = model.L
    assert homology(L, 0).dim == model.A.dimension()
    for p in (1, 2):
        assert homology(L, -p).dim == 0


def test_koszul_L_rank_one_shape():
    model = LocalModel(1, 1, 2)
    L = model.L
    d = L.diff(-1)
    img = d.apply(L.module(-1).basis_vec((0,)))
    assert img == L.module(0).basis_vec((), model.C.gen(1))


@pytest.mark.parametrize("m,r,D", [(1, 1, 3), (1, 2, 3), (2, 2, 3), (1, 3, 3)])
def test_gamma_untwisted(m, r, D):
    model = LocalModel(m, r, D)
    checks = model.gamma_checks()
    assert all(checks.values()), checks


def test_gamma_twisted_small():
    A = CoeffAlgebra.polynomial(1, 3)
    model = LocalModel(1, 2, 3, chi=[[A.gen(0), A.one()]])
    checks = model.gamma_checks()
    assert all(checks.values()), checks


def test_hkr_matrix_gamma_rank1():
    model = LocalModel(1, 1, 3)
    ok, mats = model.hkr_matrix_gamma()
    assert ok
    # each degree's matrix is an identity: column j is the j-th basis vector
    for cols in mats.values():
        for j, col in enumerate(cols):
            assert col == {j: 1}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_zeta_battery(r):
    ext = build_extension(QQ, r)
    checks = zeta_checks(ext)
    assert all(checks.values()), checks


def test_zeta_battery_polynomial():
    ext = build_extension(CoeffAlgebra.polynomial(1, 2), 2)
    checks = zeta_checks(ext)
    assert all(checks.values()), checks


def test_zeta_battery_at_rank_four():
    checks = zeta_checks(LocalModel(1, 4, 4).ext, window=4)
    assert checks == {
        "chain_map": True,
        "quasi_iso": True,
        "b_linear": True,
        "augmentation": True,
        "short_exact": True,
    }


def test_zeta_checks_run_once_per_window_and_return_fresh_copies(monkeypatch):
    runs = []
    b_action_checks = hkr_local.b_action_checks

    def counting(ext):
        runs.append(ext)
        return b_action_checks(ext)

    monkeypatch.setattr(hkr_local, "b_action_checks", counting)
    ext = build_extension(QQ, 2)
    first = zeta_checks(ext, window=3)
    second = zeta_checks(ext, window=3)
    assert first == second and first is not second
    first["chain_map"] = False
    assert all(second.values()) and all(zeta_checks(ext, window=3).values())
    assert len(runs) == 1
    assert all(zeta_checks(ext, window=4).values())
    assert len(runs) == 2


def test_zeta_checks_on_a_fresh_extension_see_a_wrong_sign(monkeypatch):
    zeta = hkr_local.zeta

    def wrong_sign(ext, K, P):
        # negate the degree -1 component
        z = zeta(ext, K, P)
        return ComplexMap(K, P, {**z.cols, -1: [{t: -c for t, c in col.items()} for col in z.cols[-1]]})

    assert zeta_checks(build_extension(QQ, 2), window=3)["chain_map"]
    monkeypatch.setattr(hkr_local, "zeta", wrong_sign)
    assert zeta_checks(build_extension(QQ, 2), window=3)["chain_map"] is False


@pytest.fixture
def fresh_bases(monkeypatch):
    """Models built in the test get their own bases, with nothing kept yet."""
    monkeypatch.setattr(hkr_local, "_BASES", weakref.WeakValueDictionary())


def test_zeta_checks_see_the_rule_without_its_sign_on_the_i_part(monkeypatch, fresh_bases):
    def unsigned_on_i(ext, p, v):
        return ext.lam_b(p + 1).element(
            ((tag, s[1]), c if tag == "i" else c * s[0])
            for (tag, T), c in v.data.items()
            if (s := sort_sign(T)) is not None
        )

    monkeypatch.setattr(hkr_local, "antisymmetrize", unsigned_on_i)
    assert zeta_checks(LocalModel(1, 3, 3).ext, window=3) == {
        "chain_map": False,
        "quasi_iso": True,
        "b_linear": False,
        "augmentation": True,
        "short_exact": True,
    }


def test_zeta_checks_see_a_doubled_j_part_of_the_action(monkeypatch, fresh_bases):
    k_b_action = hkr_local.k_b_action

    def doubled_j(ext, p, b, x):
        out = k_b_action(ext, p, b, x)
        return out + out.module.element((lab, c) for lab, c in out.data.items() if lab[0] == "j")

    monkeypatch.setattr(hkr_local, "k_b_action", doubled_j)
    model = LocalModel(1, 2, 3)
    assert zeta_checks(model.ext, window=3) == {
        "chain_map": True,
        "quasi_iso": True,
        "b_linear": False,
        "augmentation": True,
        "short_exact": False,
    }
    # kappa acts through the same action, so the two routes part
    assert compare_hkr_ac(model) is False


def test_zeta_checks_compute_each_b_action_product_once(monkeypatch, fresh_bases):
    calls = [0]
    k_b_action = hkr_local.k_b_action

    def counted(ext, p, b, x):
        calls[0] += 1
        return k_b_action(ext, p, b, x)

    monkeypatch.setattr(hkr_local, "k_b_action", counted)
    assert all(zeta_checks(LocalModel(1, 3, 3).ext, window=3).values())
    # 4 basis elements of B times 4 + 12 + 36 + 108 basis vectors of the
    # tensor powers (b_linear and short_exact each computing them made 1280)
    assert calls[0] == 640


def test_gamma_checks_and_the_route_apply_gamma_once_per_basis_vector(monkeypatch):
    model = LocalModel(1, 3, 3)
    applied = []
    apply = ComplexMap.apply

    def recording(self, n, vec):
        if self is model.gamma:
            applied.append(n)
        return apply(self, n, vec)

    monkeypatch.setattr(ComplexMap, "apply", recording)
    assert all(model.gamma_checks().values())
    assert compare_hkr_ac(model)
    # 8 basis vectors e_K, plus one homology representative per degree for
    # the quasi-isomorphism (each check applying gamma itself made 28)
    assert len(applied) == 12


def test_gamma_checks_see_a_negated_product_of_positive_degrees(monkeypatch):
    star = TrivialExtension.star

    def negated(self, k, l, x, y):
        out = star(self, k, l, x, y)
        return -out if k >= 1 and l >= 1 else out

    monkeypatch.setattr(TrivialExtension, "star", negated)
    gamma = {
        "chain_map": True,
        "quasi_iso": True,
        "augmentation": True,
        "reduced_is_canonical": True,
        "wedge_compatible": False,
    }
    assert LocalModel(1, 2, 3).gamma_checks() == gamma
    # rank 1 has no product of two positive degrees, so (1, 2, 3) fails first
    (record,) = run_suite(SuiteConfig(suite="hkr")).records
    assert record["status"] == "fail"
    assert record["detail"] == {"model": (1, 2, 3), "gamma": gamma}


@pytest.mark.parametrize("m,r,D", sorted(set(DESK_MODELS) | set(COMPARISON_MODELS)))
def test_k_built_at_a_window_is_the_unwindowed_k_read_there(m, r, D):
    ext = TrivialExtension(CoeffAlgebra.polynomial(m, D), r)
    got, want = build_k_complex(ext, D), build_k_complex(ext).with_window(D)
    assert got is build_k_complex(ext, D) and got is not want and got.window == D
    # no term deeper than the window reaches: the degree -p labels have grade p or p + 1
    assert got.degrees() == list(range(-min(r + 1, D), 1))
    for n in range(-r, 1):
        assert got.flat(n).pairs == want.flat(n).pairs
        assert got.qdiff(n) == want.qdiff(n)
        assert homology(got, n).dim == homology(want, n).dim


def test_a_model_and_zeta_checks_share_the_extensions_complexes(monkeypatch, fresh_bases):
    seen = []
    zeta = hkr_local.zeta

    def recording(ext, K, P):
        seen.append((K, P))
        return zeta(ext, K, P)

    calls = [0]
    compute = chain_core._homology

    def counted(C, degree, grade):
        calls[0] += 1
        return compute(C, degree, grade)

    monkeypatch.setattr(hkr_local, "zeta", recording)
    monkeypatch.setattr(chain_core, "_homology", counted)
    model = LocalModel(1, 2, 3)
    ext = model.ext
    assert model.P is build_p_complex(ext).with_window(3)
    assert model.K is build_k_complex(ext, 3)
    assert build_p_complex(ext).with_window(None) is build_p_complex(ext)
    assert all(model.gamma_checks().values())
    assert all(zeta_checks(ext, window=3).values())
    (pair,) = seen
    assert pair[0] is model.K and pair[1] is model.P
    # L and P in degrees -2..0 for gamma, then K alone for zeta: P's homology
    # is shared (a separate P for zeta made this 12)
    assert calls[0] == 9


def test_kappa_chain_map():
    model = LocalModel(1, 2, 3)
    assert model.kappa.is_chain_map()


def test_one_model_builds_each_comparison_map_once(monkeypatch):
    # every map is built by ComplexMap.from_functions or, for gamma and
    # kappa, by LocalModel._psi_columns
    built = []
    from_functions = ComplexMap.from_functions.__func__
    psi_columns = LocalModel._psi_columns

    def record(f):
        built.append(tuple(
            (n, tuple(f.source.flat(n).pairs), tuple(f.target.flat(n).pairs), tuple(tuple(sorted(c.items())) for c in cols))
            for n, cols in sorted(f.cols.items())
        ))
        return f

    def recording(cls, source, target, fns):
        return record(from_functions(cls, source, target, fns))

    def recording_psi_columns(self, target, image, act):
        return record(psi_columns(self, target, image, act))

    def run_checks(model):
        assert all(model.gamma_checks().values())
        assert model.hkr_matrix_gamma()[0]
        assert compare_hkr_ac(model)

    monkeypatch.setattr(ComplexMap, "from_functions", classmethod(recording))
    monkeypatch.setattr(LocalModel, "_psi_columns", recording_psi_columns)
    model = LocalModel(1, 2, 3, chi=[["1+x1", "-2"]])
    run_checks(model)
    # gamma, kappa, the two augmentations and red_p
    assert len(built) == 5
    # a second splitting while the first model lives shares its base, so
    # only its own gamma and kappa are built
    other = LocalModel(1, 2, 3, chi=[["x1", "1"]])
    run_checks(other)
    assert len(built) == 7
    assert len(set(built)) == len(built)
    # the base goes with the last model, by reference counting alone
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        del model, other
        assert (1, 2, 3) not in hkr_local._BASES
    finally:
        if gc_was_enabled:
            gc.enable()
    run_checks(LocalModel(1, 2, 3))
    assert len(built) == 12


@pytest.mark.parametrize("m,r,D", [(1, 1, 3), (1, 2, 3), (1, 3, 3)])
def test_compare_hkr_ac_untwisted(m, r, D):
    assert compare_hkr_ac(LocalModel(m, r, D))


def test_compare_hkr_ac_twisted():
    rng = random.Random(17)
    for _ in range(2):
        model = LocalModel(1, 2, 3, chi=random_chi(1, 2, 3, rng))
        assert compare_hkr_ac(model)


@pytest.mark.parametrize(
    "r,expected",
    [
        (1, [1, 1]),
        (2, [-1, 1, 1]),
        (3, [-1, -1, 1, 1]),
    ],
)
def test_dual_hkr_sign(r, expected):
    out = dual_hkr_sign(r)
    assert out["ok"], out["claims"]
    assert out["signs"] == expected


def test_dual_twist_signs_start_positive():
    for r in (1, 2, 3, 4):
        assert dual_twist_signs(r)[0] == 1


@pytest.mark.parametrize("m,r,D", [(1, 1, 3), (1, 2, 3)])
def test_cycle_class_local(m, r, D):
    qs = cycle_class_local(LocalModel(m, r, D), dual_hkr_sign)
    assert qs[0] == 1
    assert all(q == 0 for q in qs[1:])


def test_cycle_class_local_twisted():
    A = CoeffAlgebra.polynomial(1, 3)
    model = LocalModel(1, 2, 3, chi=[[A.gen(0), A.zero()]])
    qs = cycle_class_local(model, dual_hkr_sign)
    assert qs[0] == 1 and all(q == 0 for q in qs[1:])


def test_cycle_class_local_checks_its_twist_signs_at_every_rank():
    # rank 4 asks the chase too, and above dual_hkr_sign's cap the chase's error
    # surfaces instead of a rank passing unchecked
    asked = []

    def spy(r):
        asked.append(r)
        return dual_hkr_sign(r)

    qs = cycle_class_local(LocalModel(1, 4, 4), spy)
    assert asked == [4]
    assert qs[0] == 1 and all(q == 0 for q in qs[1:])
    with pytest.raises(ValueError, match="r <= 4"):
        cycle_class_local(LocalModel(1, 5, 2), dual_hkr_sign)


def test_gamma_at_degree_bound_four():
    model = LocalModel(1, 2, 4)
    checks = model.gamma_checks()
    assert all(checks.values()), checks
    assert all(zeta_checks(model.ext, window=4).values())


def test_dual_hkr_sign_rank_four():
    # the desk-scale cap; signs follow the triangular-number formula
    out = dual_hkr_sign(4)
    assert out["ok"], out["claims"]
    assert out["signs"] == [1, -1, -1, 1, 1]


def test_the_chase_asks_one_solver_per_degree(monkeypatch):
    calls = [0]
    rref = ql.rref

    def counted(*args):
        calls[0] += 1
        return rref(*args)

    monkeypatch.setattr(ql, "rref", counted)
    assert dual_hkr_sign(3)["ok"]
    # two per homology of the four chase degrees, eleven for the kernel and
    # projector claims, and one boundary solver per chase degree; solving
    # each system by stacking its right-hand side made 34
    assert calls[0] == 23


def test_dual_hkr_sign_rejects_rank_five():
    with pytest.raises(ValueError):
        dual_hkr_sign(5)


def test_tensor_power_module_is_built_once_per_extension_and_power():
    ext = build_extension(QQ, 2)
    M = tensor_power_module(ext, 2)
    assert len(M.labels) == 2**3 + 2**2
    assert tensor_power_module(ext, 2) is M
    assert tensor_power_module(ext, 1) is not M
    other = tensor_power_module(build_extension(QQ, 2), 2)
    assert other is not M and other == M
