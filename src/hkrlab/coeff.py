"""Coefficient algebras: the rationals and truncated graded polynomial rings.

A truncated polynomial algebra Q[x_1..x_m] with degree bound D is the
quotient of the polynomial ring by the span of all monomials of total
degree > D.  Multiplication silently drops overflowing monomials; since
this is an algebra quotient, every ring identity (associativity,
distributivity) holds exactly on what is kept.  The rationals are the
m = 0, D = 0 case, so a single element type covers both.

A coefficient value is an ``int`` when its denominator is 1, else a
``Fraction``.  Nearly every value met in practice is a small integer and
nearly every product has the constant 1 or -1 as a factor, so ``Poly``
arithmetic keeps integers as ``int`` and returns an operand unchanged when
the other is the constant 1.  ``Poly`` values are never changed in place,
so returning an operand is safe.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement


def _number(c):
    """c as an int when its denominator is 1, else as a Fraction."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _monomials_up_to(num_vars, degree_bound):
    out = []
    for d in range(degree_bound + 1):
        for combo in combinations_with_replacement(range(num_vars), d):
            exps = [0] * num_vars
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    # canonical order: by degree, then lexicographically
    out = sorted(set(out), key=lambda e: (sum(e), e))
    if not out:
        out = [()]
    return out


class CoeffAlgebra:
    """A commutative coefficient algebra with a finite monomial basis."""

    def __init__(self, num_vars, degree_bound, var_names=None):
        if num_vars < 0 or degree_bound < 0:
            raise ValueError("need num_vars >= 0 and degree_bound >= 0")
        self.num_vars = num_vars
        self.degree_bound = degree_bound
        if var_names is None:
            var_names = tuple(f"x{i+1}" for i in range(num_vars))
        if len(var_names) != num_vars:
            raise ValueError("var_names length mismatch")
        self.var_names = tuple(var_names)
        self.monomials = _monomials_up_to(num_vars, degree_bound)
        self.constant_exps = (0,) * num_vars
        self.monomial_index = {m: i for i, m in enumerate(self.monomials)}

    @classmethod
    def rationals(cls):
        return cls(0, 0)

    @classmethod
    def polynomial(cls, num_vars, degree_bound, var_names=None):
        return cls(num_vars, degree_bound, var_names)

    @property
    def is_rational(self):
        return self.num_vars == 0

    def dimension(self):
        return len(self.monomials)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, CoeffAlgebra)
            and self.num_vars == other.num_vars
            and self.degree_bound == other.degree_bound
            and self.var_names == other.var_names
        )

    def __hash__(self):
        return hash((self.num_vars, self.degree_bound, self.var_names))

    def __repr__(self):
        if self.is_rational:
            return "Q"
        return f"Q[{','.join(self.var_names)}]<={self.degree_bound}"

    # -- element constructors ------------------------------------------

    def zero(self):
        return Poly(self, {})

    def one(self):
        return _poly(self, {self.constant_exps: 1})

    def const(self, c):
        c = _number(c)
        if not c:
            return self.zero()
        return _poly(self, {self.constant_exps: c})

    def gen(self, i):
        if not 0 <= i < self.num_vars:
            raise IndexError("no such variable")
        if self.degree_bound < 1:
            return self.zero()
        e = [0] * self.num_vars
        e[i] = 1
        return _poly(self, {tuple(e): 1})

    def monomial(self, exps, c=1):
        exps = tuple(exps)
        if sum(exps) > self.degree_bound:
            return self.zero()
        c = _number(c)
        return _poly(self, {exps: c}) if c else self.zero()

    def basis(self):
        return [_poly(self, {m: 1}) for m in self.monomials]

    def parse(self, text):
        return _parse_poly(self, text)


class Poly:
    """Sparse element of a CoeffAlgebra: {exponent tuple: value}, each value
    nonzero, an int when its denominator is 1, else a Fraction."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {e: _number(c) for e, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self):
        return self.terms.get(self.algebra.constant_exps, 0)

    def is_unit(self):
        # the truncated ring is local: units have nonzero constant term
        return bool(self.constant_term())

    def __add__(self, other):
        if other.__class__ is not Poly or other.algebra is not self.algebra:
            other = self._coerce(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        algebra = self.algebra
        if not algebra.num_vars:
            # over Q the only monomial is the empty one
            s = _number(self.terms[()] + other.terms[()])
            return _poly(algebra, {(): s} if s else {})
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = _number(s + c)
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _poly(algebra, out)

    def __neg__(self):
        return _poly(self.algebra, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        algebra = self.algebra
        if other.__class__ is not Poly:
            if not isinstance(other, (int, Fraction)):
                raise TypeError(f"cannot coerce {other!r}")
            c = _number(other)
            if c == 1:
                return self
            if c == -1:
                return -self
            if not c:
                return algebra.zero()
            return _poly(algebra, {e: _number(c * v) for e, v in self.terms.items()})
        if other.algebra is not algebra:
            self._coerce(other)
        a, b = self.terms, other.terms
        one = algebra.constant_exps
        if not a or (len(b) == 1 and b.get(one) == 1):
            return self
        if not b or (len(a) == 1 and a.get(one) == 1):
            return other
        if not algebra.num_vars:
            # over Q the only monomial is the empty one
            return _poly(algebra, {(): _number(a[()] * b[()])})
        D = algebra.degree_bound
        out = {}
        for e1, c1 in a.items():
            d1 = sum(e1)
            for e2, c2 in b.items():
                if d1 + sum(e2) > D:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = _number(c1 * c2)
                else:
                    s = _number(s + c1 * c2)
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return _poly(algebra, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("mixed coefficient algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return self.algebra.const(other)
        raise TypeError(f"cannot coerce {other!r}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.const(other)
        return isinstance(other, Poly) and self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return poly_to_string(self)


def _poly(algebra, terms):
    """The Poly holding terms as is; every value must be nonzero, and an int
    when its denominator is 1."""
    p = object.__new__(Poly)
    p.algebra = algebra
    p.terms = terms
    return p


def poly_to_string(p):
    if not p.terms:
        return "0"
    names = p.algebra.var_names
    parts = []
    for e in sorted(p.terms, key=lambda t: (sum(t), t)):
        c = p.terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    out = parts[0]
    for t in parts[1:]:
        out += ("+" + t) if not t.startswith("-") else t
    return out


_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?\*?((?:[A-Za-z]\w*(?:\^\d+)?\*?)*)$")


def _parse_poly(algebra, text):
    """Parse strings like '1 + 2*x1^2*x2 - 3/4*x2' into a Poly."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial string")
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise ValueError(f"cannot parse polynomial {text!r}")
    result = algebra.zero()
    name_to_idx = {n: i for i, n in enumerate(algebra.var_names)}
    for chunk in chunks:
        sign = 1
        body = chunk
        if body and body[0] in "+-":
            if body[0] == "-":
                sign = -1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or not body:
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff_s, vars_s = m.groups()
        if coeff_s:
            sign *= Fraction(coeff_s)
        elif not vars_s:
            raise ValueError(f"cannot parse term {chunk!r}")
        exps = [0] * algebra.num_vars
        if vars_s:
            for factor in filter(None, vars_s.split("*")):
                if "^" in factor:
                    name, k = factor.split("^")
                    k = int(k)
                else:
                    name, k = factor, 1
                if name not in name_to_idx:
                    raise ValueError(f"unknown variable {name!r}")
                exps[name_to_idx[name]] += k
        if sum(exps) > algebra.degree_bound:
            raise ValueError(f"term {chunk!r} exceeds the degree bound {algebra.degree_bound}")
        result = result + algebra.monomial(exps, sign)
    return result
