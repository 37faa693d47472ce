"""Truncated exact power series in q, and q-series with polynomial
t-coefficients, stored as one q-series per power of t.

Every series carries an explicit truncation order D and exact rational
coefficients, stored as integers over one denominator (as FLINT's
fmpq_poly does; coeffs is the derived Fraction view); binary operations
require matching orders so that no silent precision loss can occur.
Every series product, scalar or t-graded, runs through
ScalarQSeries.__mul__: a truncated product of the stored integers.
"""

import itertools
import math
import operator
from fractions import Fraction

NEG_INF = float("-inf")  # the degree of zero, in every layer


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
    polynomials a and b (len(b) == len(a)): coefficient k is the dot
    product of a[:k+1] with b[:k+1] reversed, so only the coefficients
    returned are computed.  A leading run of zeros (the q-adic valuation)
    is split off first, so a product of q^i- and q^j-led series costs one
    truncated product of length len(a) - i - j.
    """
    count = len(a)
    va = next((i for i, c in enumerate(a) if c), count)
    vb = next((i for i, c in enumerate(b) if c), count)
    need = count - va - vb
    if need <= 0:
        return [0] * count
    a, rb = a[va:va + need], b[vb:vb + need][::-1]
    return [0] * (va + vb) + [sum(map(operator.mul, a, rb[need - 1 - k:]))
                              for k in range(need)]


def _append_over(nums, den, value):
    """Append the rational value to the ints nums over den, which stays the
    lcm of the reduced denominators (so gcd(den, *nums) == 1); the new den."""
    scale = value.denominator // math.gcd(den, value.denominator)
    if scale != 1:
        nums[:] = [c * scale for c in nums]
        den *= scale
    nums.append(value.numerator * (den // value.denominator))
    return den


class ExactValue:
    """Subtraction and repr derived from ``+``, unary ``-``, ``_coerce``
    and ``str``, shared by the exact value types (the q-series here, the
    polynomials and rational functions of ``algebra``)."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class ScalarQSeries(ExactValue):
    """A power series sum c_d q^d truncated at order D, coefficients in Q:
    c_d = ints[d] / den, in canonical form (den > 0, gcd(den, *ints) == 1)."""

    __slots__ = ("order", "ints", "den")

    def __init__(self, order, coeffs=()):
        if order < 0:
            raise SeriesError("order must be >= 0")
        cs = [_frac(c) for c in itertools.islice(coeffs, order + 1)]
        ints, den = _over_common_denominator(cs + [Fraction(0)] * (order + 1 - len(cs)))
        self.order, self.ints, self.den = order, tuple(ints), den

    @classmethod
    def _reduced(cls, order, ints, den):
        """The series ints[d] / den (len(ints) == order + 1, den != 0) in
        canonical form: one gcd for the whole series."""
        g = math.gcd(den, *ints) if den > 0 else -math.gcd(den, *ints)
        out = cls.__new__(cls)
        out.order, out.den = order, den // g
        out.ints = tuple(ints) if g == 1 else tuple(c // g for c in ints)
        return out

    @classmethod
    def zero(cls, order):
        return cls(order)

    @classmethod
    def one(cls, order):
        return cls(order, (1,))

    @classmethod
    def q(cls, order):
        return cls(order, (0, 1))

    @property
    def coeffs(self):
        """The derived, read-only tuple of Fraction coefficients."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    def __getitem__(self, d):
        if 0 <= d <= self.order:
            return Fraction(self.ints[d], self.den)
        raise IndexError(f"coefficient {d} beyond truncation order {self.order}")

    def _coerce(self, other):
        if isinstance(other, ScalarQSeries):
            if other.order != self.order:
                raise SeriesError(f"order mismatch: {self.order} vs {other.order}")
            return other
        return ScalarQSeries(self.order, (_frac(other),))

    def __eq__(self, other):
        if isinstance(other, (ScalarQSeries, int, Fraction)):
            other = self._coerce(other)
            return self.den == other.den and self.ints == other.ints
        return NotImplemented

    def __hash__(self):
        return hash((self.ints, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return ScalarQSeries._reduced(self.order, [a * sa + b * sb for a, b in
                                                   zip(self.ints, other.ints)], den)

    __radd__ = __add__

    def __neg__(self):
        return ScalarQSeries._reduced(self.order, [-a for a in self.ints], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return ScalarQSeries._reduced(self.order, [a * c.numerator for a in self.ints],
                                          self.den * c.denominator)
        other = self._coerce(other)
        return ScalarQSeries._reduced(self.order, _int_product(self.ints, other.ints),
                                      self.den * other.den)

    __rmul__ = __mul__

    def truncate(self, order):
        return ScalarQSeries._reduced(order, self.ints[: order + 1] + (0,) * (order - self.order),
                                      self.den)

    def shift(self, s):
        """Multiply by q^s."""
        return ScalarQSeries._reduced(self.order, ((0,) * s + self.ints)[: self.order + 1],
                                      self.den)

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term.
        out[d] = -sum_j ints[j] out[d-j] / ints[0], over one denominator."""
        a = self.ints
        if not a[0]:
            raise SeriesError("cannot invert a series with zero constant term")
        out = []
        den = _append_over(out, 1, Fraction(self.den, a[0]))
        for d in range(1, self.order + 1):
            dot = sum(map(operator.mul, a[d:0:-1], out))
            den = _append_over(out, den, Fraction(-dot, a[0] * den))
        return ScalarQSeries._reduced(self.order, out, den)

    def exp(self):
        """exp of a series with zero constant term: e' = g' e gives
        d*out[d] = sum_j j*g[j]*out[d-j], over one denominator."""
        if self.ints[0]:
            raise SeriesError("exp requires zero constant term")
        weights = [j * c for j, c in enumerate(self.ints)]
        out, den = [1], 1
        for d in range(1, self.order + 1):
            dot = sum(map(operator.mul, weights[d:0:-1], out))
            den = _append_over(out, den, Fraction(dot, d * self.den * den))
        return ScalarQSeries._reduced(self.order, out, den)

    def compose(self, inner):
        """self(inner(q)); inner must have zero constant term."""
        inner = self._coerce(inner)
        if inner.ints[0]:
            raise SeriesError("composition requires zero constant term")
        result = ScalarQSeries(self.order, (self[self.order],))
        for d in range(self.order - 1, -1, -1):
            result = result * inner + self[d]
        return result

    def __str__(self):
        return str(TSeries.from_scalar(self))


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
    if series.ints[0]:
        raise SeriesError("reversion requires zero constant term")
    c1 = series[1]
    if c1 == 0:
        raise SeriesError("reversion requires an invertible linear coefficient")
    order = series.order
    g = [Fraction(0)] * (order + 1)
    g[1] = 1 / c1
    for m in range(2, order + 1):
        partial = ScalarQSeries(m, g[: m + 1])
        val = series.truncate(m).compose(partial)[m]
        g[m] = -val / c1
    return ScalarQSeries(order, g)


class TSeries(ExactValue):
    """A q-series whose coefficients are polynomials in t.

    rows[j] is the ScalarQSeries coefficient of t^j, with no trailing
    zero row; terms is the derived view (d, j) -> nonzero coefficient of
    t^j q^d.  These house objects like the solution basis of the
    hypergeometric equation, where q = e^t and t also appears
    polynomially; the library multiplies them by rationals only.
    """

    __slots__ = ("order", "rows")

    def __init__(self, order, terms=None):
        grid = {}
        for (d, j), c in (terms or {}).items():
            if min(d, j) < 0:
                raise SeriesError("q- and t-powers must be >= 0")
            if _frac(c) and d <= order:
                grid.setdefault(j, [0] * (order + 1))[d] = c
        self.order = order
        self.rows = tuple(ScalarQSeries(order, grid.get(j, ()))
                          for j in range(max(grid, default=-1) + 1))

    @classmethod
    def from_rows(cls, order, rows):
        """sum_j rows[j] t^j, every row a ScalarQSeries of this order."""
        rows = list(rows)
        while rows and not any(rows[-1].ints):
            rows.pop()
        out = cls(order)
        out.rows = tuple(rows)
        return out

    @classmethod
    def from_scalar(cls, s):
        return cls.from_rows(s.order, [s])

    @classmethod
    def t_monomial(cls, order, j=1, coeff=1):
        return cls(order, {(0, j): coeff})

    @property
    def terms(self):
        return {(d, j): c for j, row in enumerate(self.rows)
                for d, c in enumerate(row.coeffs) if c}

    def _coerce(self, other):
        if isinstance(other, (TSeries, ScalarQSeries)):
            if other.order != self.order:
                raise SeriesError("order mismatch")
            return other if isinstance(other, TSeries) else TSeries.from_scalar(other)
        return TSeries(self.order, {(0, 0): _frac(other)})

    def is_zero(self):
        return not self.rows

    def __eq__(self, other):
        if isinstance(other, (TSeries, ScalarQSeries, int, Fraction)):
            return self.rows == self._coerce(other).rows
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        zero = ScalarQSeries.zero(self.order)
        return TSeries.from_rows(self.order, [a + b for a, b in itertools.zip_longest(
            self.rows, other.rows, fillvalue=zero)])

    __radd__ = __add__

    def __neg__(self):
        return TSeries.from_rows(self.order, [-row for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TSeries.from_rows(self.order, [row * other for row in self.rows])
        return NotImplemented

    __rmul__ = __mul__

    def t_coefficient(self, j):
        return self.rows[j] if 0 <= j < len(self.rows) else ScalarQSeries.zero(self.order)

    def t_degree(self):
        return len(self.rows) - 1

    def ddt(self):
        """Total t-derivative with q = e^t: acts as q d/dq + d/dt."""
        rows = [ScalarQSeries._reduced(self.order, [d * c for d, c in enumerate(row.ints)],
                                       row.den) for row in self.rows]
        for j in range(1, len(rows)):
            rows[j - 1] = rows[j - 1] + self.rows[j] * j
        return TSeries.from_rows(self.order, rows)

    def mul_q(self):
        """Multiply by q = e^t (degree shift)."""
        return TSeries.from_rows(self.order, [row.shift(1) for row in self.rows])

    def truncate(self, order):
        return TSeries.from_rows(order, [row.truncate(order) for row in self.rows])

    def __str__(self):
        parts = []
        for (d, j), c in sorted(self.terms.items()):
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
        return " + ".join(parts) or "0"
