"""Truncated exact power series in q, and q-series with polynomial
t-coefficients.

Every series carries an explicit truncation order D and exact rational
coefficients; binary operations require matching orders so that no
silent precision loss can occur.
"""

from __future__ import annotations

import math
from fractions import Fraction


class SeriesError(ValueError):
    pass


def _frac(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise SeriesError(f"cannot coerce {value!r} into an exact rational")


def _over_common_denominator(coeffs):
    """(ints, den) with coeffs[i] == ints[i] / den, den the lcm of the
    denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _int_product(a, b):
    """The first len(a) coefficients of the product of the int
    polynomials a and b (len(b) == len(a)), by Kronecker substitution:
    evaluate both at 2^w, multiply once (CPython's Karatsuba), and read
    the signed w-bit slots back.  A leading run of zeros (the q-adic
    valuation) is split off first, so a product of q^i- and q^j-led
    series costs one product of length len(a) - i - j.

    With w = 8 * width, each output slot is bounded by
    need * max|a| * max|b| < 2^(w-2), so biasing every slot by 2^(w-1)
    keeps it inside [0, 2^w) and the slots unpack without carries.
    """
    count = len(a)
    va = next((i for i, c in enumerate(a) if c), count)
    vb = next((i for i, c in enumerate(b) if c), count)
    need = count - va - vb
    if need <= 0:
        return [0] * count
    a, b = a[va:va + need], b[vb:vb + need]
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + need.bit_length() + 2)
    width = (bits + 7) // 8  # slot width in bytes
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * need, "little")
    low = (_pack(a, width) * _pack(b, width) + bias) & ((1 << (8 * width * need)) - 1)
    raw = low.to_bytes(width * need, "little")
    half = 1 << (8 * width - 1)
    return [0] * (va + vb) + [int.from_bytes(raw[k * width:(k + 1) * width], "little") - half
                              for k in range(need)]


def _pack(ints, width):
    """sum ints[k] * 2^(8*width*k), every |ints[k]| < 2^(8*width)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in ints)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in ints)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


class ScalarQSeries:
    """A power series sum c_d q^d truncated at order D, coefficients in Q."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=()):
        if order < 0:
            raise SeriesError("order must be >= 0")
        cs = [Fraction(0)] * (order + 1)
        for d, c in enumerate(coeffs):
            if d > order:
                break
            cs[d] = _frac(c)
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order):
        return cls(order)

    @classmethod
    def one(cls, order):
        return cls(order, (1,))

    @classmethod
    def q(cls, order):
        return cls(order, (0, 1))

    @classmethod
    def from_function(cls, order, fn):
        return cls(order, [fn(d) for d in range(order + 1)])

    def __getitem__(self, d):
        if 0 <= d <= self.order:
            return self.coeffs[d]
        raise IndexError(f"coefficient {d} beyond truncation order {self.order}")

    def _coerce(self, other):
        if isinstance(other, ScalarQSeries):
            if other.order != self.order:
                raise SeriesError(f"order mismatch: {self.order} vs {other.order}")
            return other
        return ScalarQSeries(self.order, (_frac(other),))

    def __eq__(self, other):
        if isinstance(other, (ScalarQSeries, int, Fraction)):
            return self.coeffs == self._coerce(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        return ScalarQSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return ScalarQSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return ScalarQSeries(self.order, [a * c for a in self.coeffs])
        other = self._coerce(other)
        a, den_a = _over_common_denominator(self.coeffs)
        b, den_b = _over_common_denominator(other.coeffs)
        den = den_a * den_b
        return ScalarQSeries(self.order, [Fraction(c, den) for c in _int_product(a, b)])

    __rmul__ = __mul__

    def truncate(self, order):
        return ScalarQSeries(order, self.coeffs[: order + 1])

    def shift(self, s):
        """Multiply by q^s."""
        return ScalarQSeries(self.order, [Fraction(0)] * s + list(self.coeffs))

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        if self.coeffs[0] == 0:
            raise SeriesError("cannot invert a series with zero constant term")
        c0 = self.coeffs[0]
        out = [Fraction(0)] * (self.order + 1)
        out[0] = 1 / c0
        for d in range(1, self.order + 1):
            s = Fraction(0)
            for j in range(1, d + 1):
                s += self.coeffs[j] * out[d - j]
            out[d] = -s / c0
        return ScalarQSeries(self.order, out)

    def exp(self):
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise SeriesError("exp requires zero constant term")
        out = [Fraction(0)] * (self.order + 1)
        out[0] = Fraction(1)
        # e' = g' e  =>  d*out[d] = sum_j j*g[j]*out[d-j]
        for d in range(1, self.order + 1):
            s = Fraction(0)
            for j in range(1, d + 1):
                if self.coeffs[j]:
                    s += j * self.coeffs[j] * out[d - j]
            out[d] = s / d
        return ScalarQSeries(self.order, out)

    def compose(self, inner):
        """self(inner(q)); inner must have zero constant term."""
        inner = self._coerce(inner)
        if inner.coeffs[0] != 0:
            raise SeriesError("composition requires zero constant term")
        result = ScalarQSeries(self.order, (self.coeffs[-1],))
        for d in range(self.order - 1, -1, -1):
            result = result * inner + self.coeffs[d]
        return result

    def __str__(self):
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append(f"{c}*q")
            else:
                parts.append(f"{c}*q^{d}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"ScalarQSeries({self})"


def mirror_powers(g):
    """[Q^d for d = 0..D] in the mirror coordinate Q = q*e^g, g with zero
    constant term: Q^d = q^d e^(dg) is what a shift t -> t + g makes of
    the q^d block (q = e^t).  Row d starts at q^d."""
    base = g.exp().shift(1)
    powers = [ScalarQSeries.one(g.order)]
    for _ in range(g.order):
        powers.append(powers[-1] * base)
    return powers


def qseries_reversion(series):
    """Compositional inverse of q + O(q^2)-shaped series.

    Solves series(g(Q)) = Q coefficient by coefficient; the linear
    coefficient must be nonzero (it is a unit over Q).
    """
    if series.coeffs[0] != 0:
        raise SeriesError("reversion requires zero constant term")
    c1 = series.coeffs[1]
    if c1 == 0:
        raise SeriesError("reversion requires an invertible linear coefficient")
    order = series.order
    g = [Fraction(0)] * (order + 1)
    g[1] = 1 / c1
    for m in range(2, order + 1):
        partial = ScalarQSeries(m, g[: m + 1])
        val = series.truncate(m).compose(partial).coeffs[m]
        g[m] = -val / c1
    return ScalarQSeries(order, g)


class TSeries:
    """A q-series whose coefficients are polynomials in t.

    Terms map (d, j) -> coefficient of t^j q^d.  These house objects like
    the solution basis of the hypergeometric equation, where q = e^t and
    t also appears polynomially.  The constructor drops zero
    coefficients, so the arithmetic below only accumulates.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order, terms=None):
        self.order = order
        clean = {}
        if terms:
            for (d, j), c in terms.items():
                c = _frac(c)
                if c and d <= order:
                    clean[(d, j)] = c
        self.terms = clean

    @classmethod
    def from_scalar(cls, s):
        return cls(s.order, {(d, 0): c for d, c in enumerate(s.coeffs) if c})

    @classmethod
    def t_monomial(cls, order, j=1, coeff=1):
        return cls(order, {(0, j): _frac(coeff)})

    def _coerce(self, other):
        if isinstance(other, TSeries):
            if other.order != self.order:
                raise SeriesError("order mismatch")
            return other
        if isinstance(other, ScalarQSeries):
            if other.order != self.order:
                raise SeriesError("order mismatch")
            return TSeries.from_scalar(other)
        return TSeries(self.order, {(0, 0): _frac(other)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (TSeries, ScalarQSeries, int, Fraction)):
            return self.terms == self._coerce(other).terms
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return TSeries(self.order, terms)

    __radd__ = __add__

    def __neg__(self):
        return TSeries(self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return TSeries(self.order, {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        rows_a, den_a = self._int_rows()
        rows_b, den_b = other._int_rows()
        sums = {}
        for j1, a in rows_a.items():
            for j2, b in rows_b.items():
                row = _int_product(a, b)
                if j1 + j2 in sums:
                    row = [x + y for x, y in zip(sums[j1 + j2], row)]
                sums[j1 + j2] = row
        den = den_a * den_b
        return TSeries(self.order, {(d, j): Fraction(c, den)
                                    for j, row in sums.items() for d, c in enumerate(row) if c})

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("powers must be nonnegative integers")
        result = TSeries(self.order, {(0, 0): Fraction(1)})
        for _ in range(k):
            result = result * self
        return result

    def _int_rows(self):
        """({t-power j: the q-coefficients of t^j as ints}, den) over one
        common denominator of every term."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        rows = {}
        for (d, j), c in self.terms.items():
            rows.setdefault(j, [0] * (self.order + 1))[d] = c.numerator * (den // c.denominator)
        return rows, den

    def t_coefficient(self, j):
        out = [Fraction(0)] * (self.order + 1)
        for (d, jj), c in self.terms.items():
            if jj == j:
                out[d] = c
        return ScalarQSeries(self.order, out)

    def t_degree(self):
        if not self.terms:
            return -1
        return max(j for (_, j) in self.terms)

    def ddt(self):
        """Total t-derivative with q = e^t: acts as q d/dq + d/dt."""
        terms = {}
        for (d, j), c in self.terms.items():
            if d:
                terms[(d, j)] = terms.get((d, j), 0) + d * c
            if j:
                terms[(d, j - 1)] = terms.get((d, j - 1), 0) + j * c
        return TSeries(self.order, terms)

    def mul_q(self):
        """Multiply by q = e^t (degree shift)."""
        return TSeries(self.order,
                       {(d + 1, j): c for (d, j), c in self.terms.items() if d + 1 <= self.order})

    def truncate(self, order):
        return TSeries(order, {k: c for k, c in self.terms.items() if k[0] <= order})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (d, j) in sorted(self.terms):
            c = self.terms[(d, j)]
            factors = []
            if j == 1:
                factors.append("t")
            elif j > 1:
                factors.append(f"t^{j}")
            if d == 1:
                factors.append("q")
            elif d > 1:
                factors.append(f"q^{d}")
            mono = "*".join(factors)
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)

    def __repr__(self):
        return f"TSeries({self})"


def harmonic_sum(a, b):
    """sum_{m=a}^{b} 1/m as an exact rational (0 when the range is empty)."""
    return sum((Fraction(1, m) for m in range(a, b + 1)), Fraction(0))
