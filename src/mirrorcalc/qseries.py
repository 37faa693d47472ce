"""Truncated exact power series in q, and q-series with polynomial
t-coefficients.

Every series carries an explicit truncation order D and exact rational
coefficients; binary operations require matching orders so that no
silent precision loss can occur.
"""

from __future__ import annotations

from fractions import Fraction


class SeriesError(ValueError):
    pass


def _frac(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise SeriesError(f"cannot coerce {value!r} into an exact rational")


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
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return ScalarQSeries(self.order, out)

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


def exp_multiples(g):
    """[e^(d*g) for d = 0..D]: the factors a shift t -> t + g puts on
    the q^d blocks (q = e^t); g has zero constant term."""
    base = g.exp()
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
        terms = {}
        for (d1, j1), c1 in self.terms.items():
            for (d2, j2), c2 in other.terms.items():
                if d1 + d2 > self.order:
                    continue
                key = (d1 + d2, j1 + j2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return TSeries(self.order, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("powers must be nonnegative integers")
        result = TSeries(self.order, {(0, 0): Fraction(1)})
        for _ in range(k):
            result = result * self
        return result

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
