"""Every complex assembled from labelled blocks goes through
chain_core.total_complex: Hom, tensor, Cech, and the totals of double
complexes, twisted Cech totals included.  Each builder is compared with the
hand-written loop it replaced (tests/reference_complexes.py) on random
small complexes: the same modules (labels, grades, names), the same
differential columns with their terms in the same order, and the same
inputs rejected.  A twisted Cech total copies the nerve's cached untwisted
rows and builds no complex but the total."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrlab import rational as ql
from hkrlab.cech_twist import (
    NERVE_LIBRARY,
    TwistFamily,
    build_cochain,
    cech_complex,
    cech_total_complex,
    cochain_value,
    random_hom_twist,
    random_wedge_cochains,
    sphere_nerve,
    twisted_total_complex,
)
from hkrlab.chain_core import CochainComplex, hom_complex, tensor_complex, tensor_module, totalize
from hkrlab.coeff import CoeffAlgebra
from hkrlab.extension_dg import build_extension
from hkrlab.modules import BasedModule, LinMap, QBasis, StructuralError

from reference_complexes import (
    reference_cech_complex,
    reference_cech_total_complex,
    reference_hom_complex,
    reference_tensor_complex,
    reference_totalize,
)

QQ = CoeffAlgebra.rationals()


def assert_same_complex(A, B):
    assert A.degrees() == B.degrees()
    for n in A.degrees():
        M, N = A.module(n), B.module(n)
        assert (M.labels, M.grades, M.name) == (N.labels, N.grades, N.name)
        assert [(lab, list(v.data.items())) for lab, v in A.diff(n).cols.items()] == [
            (lab, list(v.data.items())) for lab, v in B.diff(n).cols.items()
        ]


@st.composite
def complexes(draw, name):
    """A bounded complex over Q in one to four consecutive degrees, with
    ranks up to 3 and random label grades: the top differential is random
    and sparse, and each one below it is a random integer combination of a
    kernel basis of the one above."""
    lo = draw(st.integers(-2, 1))
    ranks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    modules = {
        lo + k: BasedModule(QQ, tuple(range(r)), f"{name}{k}", tuple(draw(st.integers(-1, 2)) for _ in range(r)))
        for k, r in enumerate(ranks)
    }
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    diffs = {}
    below = None  # the columns of the differential out of the degree above
    for n in sorted(modules, reverse=True)[1:]:
        src, tgt = modules[n], modules[n + 1]
        if below is None:
            cols = [{i: Fraction(x) for i in range(tgt.rank) if (x := draw(entry))} for _ in range(src.rank)]
        else:
            kernel = ql.nullspace(below, modules[n + 2].rank)
            cols = []
            for _ in range(src.rank):
                col = {}
                for k in kernel:
                    if t := draw(st.integers(-2, 2)):
                        ql.add_scaled(col, t, k)
                cols.append(col)
        diffs[n] = LinMap(src, tgt, {j: tgt.element(col.items()) for j, col in zip(src.labels, cols)})
        below = cols
    return CochainComplex(QQ, modules, diffs)


def factor_map(M, T, d, first):
    """d (x) 1 (first) or 1 (x) d on the tensor basis of M, into T."""
    cols = {}
    for a, b in M.labels:
        img = d.cols.get(a if first else b)
        if img is not None:
            cols[(a, b)] = T.element((((x, b) if first else (a, x)), c) for x, c in img.data.items())
    return LinMap(M, T, cols)


def tensor_double_complex(C, D):
    """The double complex C^i (x) D^j with d_C (x) 1 and 1 (x) d_D."""
    modules = {(i, j): tensor_module(C.module(i), D.module(j)) for i in C.degrees() for j in D.degrees()}
    horiz, vert = {}, {}
    for (i, j), M in modules.items():
        if (i + 1, j) in modules:
            horiz[(i, j)] = factor_map(M, modules[(i + 1, j)], C.diff(i), True)
        if (i, j + 1) in modules:
            vert[(i, j)] = factor_map(M, modules[(i, j + 1)], D.diff(j), False)
    return modules, horiz, vert


@settings(max_examples=100, deadline=None)
@given(complexes("C"), complexes("D"))
def test_hom_and_tensor_complexes_match_the_reference_loops(C, D):
    assert_same_complex(hom_complex(C, D), reference_hom_complex(C, D))
    assert_same_complex(tensor_complex(C, D), reference_tensor_complex(C, D))


@settings(max_examples=100, deadline=None)
@given(complexes("C"), complexes("D"), st.data())
def test_totalize_matches_the_reference_and_rejects_what_it_rejects(C, D, data):
    modules, horiz, vert = tensor_double_complex(C, D)
    # perturbing one map by a scalar may break its square, and must break
    # the total exactly when one of the reference's separate checks fails
    maps = sorted((name, ij) for name, table in (("h", horiz), ("v", vert)) for ij in table)
    if maps and data.draw(st.booleans()):
        name, ij = data.draw(st.sampled_from(maps))
        table = horiz if name == "h" else vert
        table[ij] = table[ij].scale(data.draw(st.sampled_from([-1, 2])))
    try:
        ref = reference_totalize(QQ, modules, horiz, vert)
    except ValueError:
        with pytest.raises(ValueError, match="d o d"):
            totalize(QQ, modules, horiz, vert)
        return
    assert_same_complex(totalize(QQ, modules, horiz, vert), ref)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_twisted_cech_complexes_and_totals_match_the_reference(seed, r):
    ext = build_extension(QQ, r)
    nerve = sphere_nerve(2)
    rng = random.Random(seed)
    fam = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(r)])
    for n in range(r + 1):
        M = ext.lam_b(n + 1)
        assert_same_complex(cech_complex(nerve, M), reference_cech_complex(nerve, M))
        # one twisted local system is the total of a single column
        tr = (nerve, {0: M}, {}, lambda j, a, b: fam.transition_columns(n, a, b))
        assert_same_complex(cech_total_complex(*tr), reference_cech_total_complex(*tr))
    args = resolution_total_args(ext, fam)
    assert_same_complex(cech_total_complex(*args), reference_cech_total_complex(*args))


def resolution_total_args(ext, fam):
    """The arguments of cech_total_complex that twisted_total_complex passes."""
    r = ext.rank
    return (
        fam.nerve,
        {-n: ext.lam_b(n + 1) for n in range(r + 1)},
        {-n: ext.hat_d(n) for n in range(1, r + 1)},
        lambda j, a, b: fam.transition_columns(-j, a, b),
    )


@pytest.mark.parametrize("name", ["sphere2", "torus"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_twisted_total_complexes_match_the_reference(name, r):
    ext = build_extension(QQ, r)
    nerve = NERVE_LIBRARY[name]()
    rng = random.Random(f"total:{name}:{r}")
    wedge = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, rng))
    hom = TwistFamily(ext, nerve, [random_hom_twist(ext, nerve, n, rng) for n in range(r)])
    for fam in (wedge, hom):
        reference = reference_cech_total_complex(*resolution_total_args(ext, fam))
        assert_same_complex(twisted_total_complex(ext, fam), reference)


def divisor_shapes(nerve, delta):
    """The arguments of cech_total_complex for the three totals that
    divisor_class builds from the I-valued 1-cochain delta: W1 = [N* -> B]
    untwisted, W2 = [L -> O + O] with L's chart changes twisted by delta, and
    W3 = [N* -> O] with the zero differential."""
    ext = build_extension(QQ, 1)
    N, O, B = ext.lam_i(1), ext.lam_i(0), ext.lam_b(1)
    OO = BasedModule(QQ, ("o1", "o2"), "O+O")
    unit = ("j", ())
    s_prime = LinMap(N, B, {K: B.basis_vec(("i", K)) for K in N.labels})
    flat = QBasis(B)

    def w2_tr(j, a, b):
        if j == 0:
            return ql.identity(QBasis(OO).dim)
        dval = cochain_value(nerve, delta, (a, b))
        cols = ql.identity(flat.dim)
        cols[flat.index[(unit, ())]] = flat.flatten(
            B.element([(unit, 1)] + [(("i", K), -c) for K, c in dval.data.items()])
        )
        return cols

    w2_v = LinMap(B, OO, {unit: OO.element([("o1", -1), ("o2", -1)])})
    return {
        "W1": (nerve, {-1: N, 0: B}, {-1: s_prime.scale(-1)}),
        "W2": (nerve, {-1: B, 0: OO}, {-1: w2_v}, w2_tr),
        "W3": (nerve, {-1: N, 0: O}, {}),
    }


@pytest.mark.parametrize("name", ["circle", "sphere2", "torus"])
def test_divisor_class_totals_match_the_reference(name):
    nerve = NERVE_LIBRARY[name]()
    ext = build_extension(QQ, 1)
    rng = random.Random(f"divisor:{name}")
    (delta,) = random_wedge_cochains(ext, nerve, rng)
    for args in divisor_shapes(nerve, delta).values():
        assert_same_complex(cech_total_complex(*args), reference_cech_total_complex(*args))


def test_divisor_chart_changes_off_a_cocycle_are_rejected_as_the_reference_rejects_them():
    # a 1-cochain on a single edge of sphere2 is no cocycle, so W2's chart
    # changes break the cocycle law and its twisted row has d o d != 0
    nerve = sphere_nerve(2)
    ext = build_extension(QQ, 1)
    delta = build_cochain(nerve, 1, ext.lam_i(1), {(0, 1): ext.lam_i(1).basis_vec((0,))})
    args = divisor_shapes(nerve, delta)["W2"]
    with pytest.raises(ValueError, match="d o d"):
        reference_cech_total_complex(*args)
    with pytest.raises(ValueError, match="d o d"):
        cech_total_complex(*args)


def test_a_chart_change_with_the_wrong_number_of_columns_names_its_key():
    ext = build_extension(QQ, 1)
    M = ext.lam_b(1)

    def transitions(j, a, b):
        return ql.identity(3 if (j, a, b) == (0, 0, 1) else 2)

    with pytest.raises(StructuralError, match=re.escape("chart change (0, 0, 1) has 3 columns, not 2")):
        cech_total_complex(sphere_nerve(2), {0: M}, {}, transitions)


def test_a_total_builds_one_complex_once_the_nerve_has_its_rows(monkeypatch):
    ext = build_extension(QQ, 2)
    nerve = sphere_nerve(2)
    fam = TwistFamily.from_wedge_cochains(ext, nerve, random_wedge_cochains(ext, nerve, random.Random(3)))
    args = resolution_total_args(ext, fam)
    cech_total_complex(*args)  # the nerve now keeps the untwisted rows
    built = []
    init = CochainComplex.__init__

    def counted(self, *a, **kw):
        built.append(self)
        init(self, *a, **kw)

    monkeypatch.setattr(CochainComplex, "__init__", counted)
    for tr in (None, args[3]):
        built.clear()
        tot = cech_total_complex(*args[:3], tr)
        assert built == [tot]
