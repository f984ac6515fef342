"""Integer-first coefficients against an all-Fraction reference.

A Poly stores each value as an int when its denominator is 1, else as a
Fraction.  Its arithmetic (+, -, *, scalar *, negation) is compared with a
reference that keeps every value as a Fraction, computed from the
definition of the truncated product, over Q and over truncated algebras
with degree bound at most 3.  Values are drawn with denominators 1, 2 and 3,
so that products and sums of non-integral values can come out integral.
The polynomial-string parser rejects malformed input and terms beyond the
degree bound.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkrlab import rational as ql
from hkrlab.coeff import CoeffAlgebra, Poly, poly_to_string
from hkrlab.modules import BasedModule, LinMap, QBasis, flatten_map

ALGEBRAS = [CoeffAlgebra.rationals(), CoeffAlgebra.polynomial(2, 2), CoeffAlgebra.polynomial(1, 3)]

VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(algebra, a, b):
    """The truncated product, term by term from its definition."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if sum(e1) + sum(e2) <= algebra.degree_bound:
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_scale(c, a):
    return ref_clean({e: Fraction(c) * v for e, v in a.items()})


def ref_string(algebra, terms):
    return poly_to_string(SimpleNamespace(algebra=algebra, terms=terms))


def assert_integer_first(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        assert c != 0
        assert (type(c) is int) == (c.denominator == 1)


def assert_matches(algebra, p, ref):
    assert_integer_first(p)
    assert p.terms == ref
    assert poly_to_string(p) == ref_string(algebra, ref)
    module = BasedModule(algebra, ("a", "b"), "M")
    v = module.element([("a", p), ("b", 1)])
    assert v.coeff("a").terms == ref
    assert v.coeff("b") == algebra.one()


@st.composite
def algebra_and_terms(draw, count):
    algebra = draw(st.sampled_from(ALGEBRAS))
    monomials = st.sampled_from(algebra.monomials)
    terms = [draw(st.dictionaries(monomials, VALUES, max_size=3)) for _ in range(count)]
    return algebra, terms


@settings(max_examples=200, deadline=None)
@given(algebra_and_terms(2), VALUES)
def test_arithmetic_matches_fraction_reference(drawn, c):
    algebra, (ta, tb) = drawn
    p, q = Poly(algebra, ta), Poly(algebra, tb)
    a, b = ref_clean(ta), ref_clean(tb)
    assert_matches(algebra, p, a)
    assert_matches(algebra, p + q, ref_add(a, b))
    assert_matches(algebra, p - q, ref_add(a, ref_scale(-1, b)))
    assert_matches(algebra, -p, ref_scale(-1, a))
    assert_matches(algebra, p * q, ref_mul(algebra, a, b))
    assert_matches(algebra, q * p, ref_mul(algebra, a, b))
    for s in (c, -c, 1, -1, 0, 2):
        assert_matches(algebra, p * s, ref_scale(s, a))
        assert_matches(algebra, s * p, ref_scale(s, a))
        assert_matches(algebra, p + s, ref_add(a, ref_clean({algebra.monomials[0]: s})))
    for unit in (algebra.one(), algebra.const(1), algebra.const(Fraction(2, 2))):
        assert p * unit is p
        assert unit * p is (unit if p == unit else p)
    assert_matches(algebra, p * algebra.const(-1), ref_scale(-1, a))


@settings(max_examples=100, deadline=None)
@given(algebra_and_terms(1), VALUES)
def test_vec_scale_and_sum_match_fraction_reference(drawn, c):
    algebra, (ta,) = drawn
    p, a = Poly(algebra, ta), ref_clean(ta)
    module = BasedModule(algebra, ("a", "b"), "M")
    v = module.element([("a", p), ("b", p * 2)])
    w = v.scale(c) + v
    assert w.coeff("a").terms == ref_add(ref_scale(c, a), a)
    assert w.coeff("b").terms == ref_add(ref_scale(2 * c, a), ref_scale(2, a))
    for lab in ("a", "b"):
        assert_integer_first(w.coeff(lab))


def test_constructors_store_integral_values_as_int():
    for algebra in ALGEBRAS:
        made = [
            algebra.one(),
            algebra.const(3),
            algebra.const(Fraction(6, 2)),
            algebra.monomial(algebra.monomials[-1], Fraction(-4, 2)),
            Poly(algebra, {e: Fraction(2, 1) for e in algebra.monomials}),
            algebra.parse("4/2"),
            *algebra.basis(),
            *(algebra.gen(i) for i in range(algebra.num_vars)),
        ]
        for p in made:
            assert p.terms
            assert all(type(c) is int for c in p.terms.values()), p.terms
        half = algebra.const(Fraction(1, 2))
        assert half.terms == {algebra.monomials[0]: Fraction(1, 2)}
        assert_integer_first(half * 2)
        assert_integer_first(half + half)


def test_flattened_integer_entry_solves_to_an_exact_half():
    algebra = CoeffAlgebra.rationals()
    M = BasedModule(algebra, ("e",), "M")
    double = LinMap.from_function(M, M, lambda v: v.scale(2))
    basis = QBasis(M)
    cols = flatten_map(double.apply, basis, basis)
    assert cols == [{0: 2}] and type(cols[0][0]) is int
    b = basis.flatten(M.basis_vec("e"))
    x = ql.Solver(cols, basis.dim).solve(b)
    assert x == {0: Fraction(1, 2)} and type(x[0]) is Fraction
    assert basis.unflatten(x).coeff("e") == algebra.const(Fraction(1, 2))


def test_unit_constants_are_shared_and_never_change():
    for algebra in ALGEBRAS:
        one, minus_one, zero = algebra.one(), algebra.const(-1), algebra.zero()
        assert algebra.const(1) is one and algebra.const(Fraction(2, 2)) is one
        assert algebra.const(Fraction(-3, 3)) is minus_one and algebra.const(0) is zero
        assert algebra.one() is one and algebra.zero() is zero
        # an equal algebra object keeps constants of its own
        twin = CoeffAlgebra(algebra.num_vars, algebra.degree_bound, algebra.var_names)
        assert twin == algebra and twin.one() is not one and twin.one() == one
        before = {name: dict(p.terms) for name, p in (("1", one), ("-1", minus_one), ("0", zero))}
        x = algebra.gen(0) if algebra.num_vars else algebra.const(Fraction(1, 2))
        M = BasedModule(algebra, ("a", "b"), "M")
        results = [
            one + one, one + minus_one, minus_one - one, zero - one, one - one,
            one * minus_one, minus_one * minus_one, one * x, x * one, zero * x,
            one * 3, minus_one * Fraction(1, 2), -one, -minus_one, x + one, x - minus_one,
        ]
        v = M.element([("a", one), ("b", minus_one), ("a", x), ("b", 1), ("a", -1), ("b", zero)])
        results += [
            M.element([("a", 1), ("b", -1), ("a", 1)]).scale(minus_one),
            v.scale(one), v.scale(-1), v.scale(0), v + v, v - v, v.scale(x),
        ]
        assert v.data == {"a": x}
        assert results[1].is_zero() and results[5] == minus_one and results[6] == one
        assert {name: p.terms for name, p in (("1", one), ("-1", minus_one), ("0", zero))} == before
        assert before == {"1": {algebra.constant_exps: 1}, "-1": {algebra.constant_exps: -1}, "0": {}}
        assert algebra.one() is one and algebra.const(-1) is minus_one and algebra.zero() is zero


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("x9", ValueError, "unknown variable 'x9'"),
        ("1+", ValueError, "cannot parse"),
        ("", ValueError, "empty"),
        ("1/0", ZeroDivisionError, ""),
        ("x1^4", ValueError, "term 'x1^4' exceeds the degree bound 3"),
        ("x1^2*x1^2", ValueError, "term 'x1^2*x1^2' exceeds the degree bound 3"),
    ],
    ids=["unknown-variable", "dangling-operator", "empty", "zero-denominator", "power-over-bound", "product-over-bound"],
)
def test_parse_rejects_malformed_or_over_degree_input(text, error, message):
    with pytest.raises(error) as err:
        CoeffAlgebra.polynomial(1, 3).parse(text)
    assert message in str(err.value)
