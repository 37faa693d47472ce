"""Exact coefficient arithmetic: sparse multivariate polynomials and
rational functions over Q.

The variable universe of a session is fixed up front: the torus weights
lam0..lamN, the loop-rotation weight alpha, the ambient hyperplane class
kappa, and an inert extension variable x.  Values are immutable after
construction and all operations are pure, so they are safe to share
between workers.

Rational functions are stored as unreduced pairs; only the integer
content of the denominator is normalized (no multivariate gcd), and
equality is decided by cross-multiplication.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

NEG_INF = float("-inf")  # degree of the zero polynomial


class AlgebraError(ValueError):
    pass


class SubstitutionError(ZeroDivisionError):
    """A substitution drove a denominator to zero; carries the symbol name."""

    def __init__(self, symbol, message=None):
        self.symbol = symbol
        super().__init__(message or f"substitution for '{symbol}' produced a zero denominator")


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise AlgebraError(f"cannot coerce {value!r} into an exact rational")


def nonzero(terms):
    """The entries of a sparse coefficient dict whose value is nonzero.

    Sparse sums accumulate with ``d[k] = d.get(k, 0) + c`` and prune the
    cancelled entries once, through this, when they return.
    """
    return {k: c for k, c in terms.items() if c}


class PolyRing:
    """A polynomial ring Q[names] with a fixed, ordered variable set.

    Monomials are exponent tuples aligned with ``names``; the graded
    lexicographic order on these tuples fixes a canonical term order, so
    equal polynomials always have identical stored representations.
    Substitutions may not introduce symbols outside the ring.
    """

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate variable names")
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}
        self.nvars = len(names)
        self._unit_exp = (0,) * self.nvars
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {self._unit_exp: Fraction(1)})

    def var(self, name):
        if name not in self.index:
            raise AlgebraError(f"unknown variable '{name}'")
        exp = [0] * self.nvars
        exp[self.index[name]] = 1
        return Polynomial(self, {tuple(exp): Fraction(1)})

    def const(self, value):
        value = _as_fraction(value)
        if value == 0:
            return self.zero
        return Polynomial(self, {self._unit_exp: value})

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"


def weight_ring(n):
    """The session ring Q[lam0..lam<n>, alpha, kappa, x] for P^n."""
    names = tuple(f"lam{i}" for i in range(n + 1)) + ("alpha", "kappa", "x")
    return PolyRing(names)


def _grlex_key(exp):
    return (sum(exp), exp)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero Fractions.  Instances are
    treated as immutable; do not mutate ``terms`` after construction.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- constructors / coercion ------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise AlgebraError("mixed polynomial rings")
            return other
        return self.ring.const(other)

    # -- structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def leading_coefficient(self):
        if not self.terms:
            return Fraction(0)
        exp = max(self.terms, key=_grlex_key)
        return self.terms[exp]

    def content_with_sign(self):
        """Rational content carrying the sign of the leading coefficient.

        Dividing by this makes the coefficients coprime integers with a
        positive leading coefficient.  Content of 0 is 0.
        """
        if not self.terms:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        if self.leading_coefficient() < 0:
            content = -content
        return content

    def degree(self, name):
        """Degree in one variable; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        i = self.ring.index[name]
        return max(exp[i] for exp in self.terms)

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(exp) for exp in self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return Polynomial(self.ring, nonzero(terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_fraction(other)
            if other == 0:
                return self.ring.zero
            return Polynomial(self.ring, {exp: c * other for exp, c in self.terms.items()})
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return self.ring.zero
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(operator.add, e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return Polynomial(self.ring, nonzero(terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise AlgebraError("polynomial powers must be nonnegative integers")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == self.ring.const(other).terms
        return NotImplemented

    # -- substitution ---------------------------------------------------

    def substitute(self, bindings):
        """Simultaneous substitution with polynomial (or constant) values.

        Unbound variables pass through unchanged.
        """
        ring = self.ring
        idx_bindings = {}
        for name, val in bindings.items():
            if name not in ring.index:
                raise AlgebraError(f"unknown variable '{name}'")
            if isinstance(val, (int, Fraction)):
                val = ring.const(val)
            if val.ring != ring:
                raise AlgebraError("binding from a different ring")
            idx_bindings[ring.index[name]] = val
        if not idx_bindings:
            return self
        powers = {i: [ring.one] for i in idx_bindings}
        terms = {}
        for exp, c in self.terms.items():
            rest = list(exp)
            factor = None
            for i, val in idx_bindings.items():
                e = exp[i]
                if e == 0:
                    continue
                rest[i] = 0
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(cache[-1] * val)
                factor = cache[e] if factor is None else factor * cache[e]
            if factor is None:
                factor = ring.one
            shift = any(rest)
            for fe, fc in factor.terms.items():
                key = tuple(map(operator.add, fe, rest)) if shift else fe
                terms[key] = terms.get(key, 0) + c * fc
        return Polynomial(ring, nonzero(terms))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


class RationalFunction:
    """Quotient of two polynomials; den != 0 and its content is 1.

    No polynomial gcd is taken: only the integer content of the
    denominator is cleared (leading coefficient positive), and equality
    is by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.ring.one
        if num.ring != den.ring:
            raise AlgebraError("numerator and denominator from different rings")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            den = num.ring.one
        else:
            content = den.content_with_sign()
            if content != 1:
                inv = 1 / content
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @property
    def ring(self):
        return self.num.ring

    @staticmethod
    def promote(ring, value):
        if isinstance(value, RationalFunction):
            if value.ring != ring:
                raise AlgebraError("mixed rings")
            return value
        if isinstance(value, Polynomial):
            return RationalFunction(value)
        return RationalFunction(ring.const(value))

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        return RationalFunction.promote(self.ring, other)

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
            return rf_equal(self, self._coerce(other))
        return NotImplemented

    def substitute(self, bindings):
        """Substitute polynomials/constants into num and den.

        Raises SubstitutionError when the denominator collapses to zero.
        """
        num = self.num.substitute(bindings)
        den = self.den.substitute(bindings)
        if den.is_zero():
            offender = ", ".join(sorted(bindings))
            raise SubstitutionError(offender)
        return RationalFunction(num, den)

    def __str__(self):
        if self.den == self.ring.one:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


# -- module operations -------------------------------------------------


def bar_involution(p):
    """The involution alpha -> -alpha, every other variable fixed; on
    fixed-point restrictions, which are kappa-free, this is the bar
    involution.  Applying it twice is the identity."""
    if isinstance(p, RationalFunction):
        return RationalFunction(bar_involution(p.num), bar_involution(p.den))
    ia = p.ring.index.get("alpha")
    if ia is None:
        raise AlgebraError("ring has no alpha variable")
    return Polynomial(p.ring, {exp: -c if exp[ia] % 2 else c for exp, c in p.terms.items()})


def alpha_degree(p):
    """Maximal alpha-exponent of a polynomial; NEG_INF for zero."""
    return p.degree("alpha")


def rf_equal(f, g):
    """Exact equality of rational functions via cross-multiplication."""
    return (f.num * g.den - g.num * f.den).is_zero()
