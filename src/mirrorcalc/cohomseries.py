"""The hypergeometric cohomology series e^(-Ht/alpha) * (Omega + Sigma).

A CohomSeries stores Sigma = sum_d q^d Sigma_d once: cells map
(d, i, k) -> coefficient of q^d H^i alpha^k, with the nilpotency bound
i <= n enforced throughout.  The tagged omega summand (scalar * H^h,
where h may be negative) is kept in closed form beside the cells.

All t-dependence sits in the prefactor e^(-Ht/alpha), which is never
expanded into stored cells: ``h_coefficient`` applies it in closed form
where a caller reads the series at one H-power.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .qseries import ScalarQSeries, SeriesError, TSeries, _frac


class CohomSeries:
    __slots__ = ("n", "order", "cells", "omega")

    def __init__(self, n, order, cells=None, omega=None):
        self.n = n
        self.order = order
        clean = {}
        if cells:
            for (d, i, k), c in cells.items():
                c = _frac(c)
                if c == 0 or d > order or i > n:
                    continue
                if d < 0 or i < 0:
                    raise SeriesError(f"bad cell index {(d, i, k)}")
                clean[(d, i, k)] = c
        self.cells = clean
        self.omega = omega

    def __eq__(self, other):
        if not isinstance(other, CohomSeries):
            return NotImplemented
        return (self.n == other.n and self.order == other.order
                and self.cells == other.cells and self.omega == other.omega)

    def without_omega(self):
        return CohomSeries(self.n, self.order, self.cells)

    def blocks(self):
        """Sigma by q-degree: d -> {(i, k): coefficient} for d = 0..order."""
        out = {d: {} for d in range(self.order + 1)}
        for (d, i, k), c in self.cells.items():
            out[d][(i, k)] = c
        return out

    def h_coefficient(self, i):
        """The H^i coefficient of e^(-Ht/alpha) * Sigma, as
        (d, j, k) -> coefficient of q^d t^j alpha^k.

        e^(-Ht/alpha) = sum_j (-1)^j/j! t^j H^j alpha^(-j), so the cell
        (d, i - j, k + j) of Sigma feeds (d, j, k); i + k is unchanged.
        """
        if not 0 <= i <= self.n:
            return {}
        out = {}
        for (d, ii, k), c in self.cells.items():
            j = i - ii
            if j >= 0:
                out[(d, j, k - j)] = c * Fraction((-1) ** j, math.factorial(j))
        return out

    def coefficient(self, d, j, i, k):
        """Coefficient of q^d t^j H^i alpha^k in e^(-Ht/alpha) * Sigma."""
        return self.h_coefficient(i).get((d, j, k), Fraction(0))

    def __str__(self):
        bits = []
        if self.omega is not None:
            bits.append(f"({self.omega.scalar})*H^{self.omega.h_exponent}")
        for (d, i, k) in sorted(self.cells):
            bits.append(f"{self.cells[(d, i, k)]}*q^{d}*H^{i}*a^{k}")
        return f"e^(-Ht/a)*({' + '.join(bits)})" if bits else "0"

    __repr__ = __str__


def _require_no_omega(a):
    if a.omega is not None:
        raise SeriesError("the tagged omega summand is handled in closed form; "
                          "pass series.without_omega()")


def scale_by(a, s):
    """Multiply Sigma by a scalar q-series (t- and H-free)."""
    _require_no_omega(a)
    if not isinstance(s, ScalarQSeries):
        s = ScalarQSeries(a.order, (_frac(s),))
    if s.order != a.order:
        raise SeriesError("scalar series order differs from the CohomSeries order")
    cells = {}
    for (d, i, k), c in a.cells.items():
        for e, sc in enumerate(s.coeffs[: a.order - d + 1]):
            if sc:
                key = (d + e, i, k)
                cells[key] = cells.get(key, 0) + c * sc
    return CohomSeries(a.n, a.order, cells)


class TAlphaSeries:
    """Result of integration over P^n: a q-series valued in Q[t][alpha, alpha^-1].

    Terms map (d, j, k) -> coefficient of q^d t^j alpha^k.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order, terms=None):
        self.order = order
        clean = {}
        if terms:
            for key, c in terms.items():
                c = _frac(c)
                if c and key[0] <= order:
                    clean[key] = c
        self.terms = clean

    def alpha_powers(self):
        return sorted({k for (_, _, k) in self.terms})

    def alpha_coefficient(self, k):
        return TSeries(self.order, {(d, j): c for (d, j, kk), c in self.terms.items() if kk == k})

    def __eq__(self, other):
        if not isinstance(other, TAlphaSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __str__(self):
        return " + ".join(f"{self.terms[k]}*q^{k[0]}*t^{k[1]}*a^{k[2]}"
                          for k in sorted(self.terms)) or "0"


def integrate_pn(a):
    """Push e^(-Ht/alpha) * Sigma forward over P^n: its H^n coefficient.

    The tagged omega summand is not integrated here; callers add its
    closed form.
    """
    _require_no_omega(a)
    return TAlphaSeries(a.order, a.h_coefficient(a.n))


def homogeneity_violations(series, splitting):
    """Sigma cells violating i + k = delta_d for the given splitting type
    (the t-expansion keeps i + k fixed, so this covers the whole series)."""
    return sorted((d, i, k) for (d, i, k) in series.cells
                  if i + k != splitting.block_degree(d))
