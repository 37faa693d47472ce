"""The hypergeometric cohomology series e^(-Ht/alpha) * (Omega + Sigma).

A CohomSeries holds Sigma = sum_d q^d Sigma_d as dense vectors in
x = H/alpha: Sigma_d = alpha^degrees[d] * sum_i cells[d][i] x^i for
i = 0..n (H^(n+1) = 0).  Sigma has no q^0 block, so cells[0] is zero.
Its x^i columns S_i = sum_d cells[d][i] q^d are stored; cells is derived.
The alpha-degrees are recorded by the build from its factor counts.
The omega summand c H^h (h may be negative) is not stored; its one
source is bundles.omega_class.

All t-dependence sits in the prefactor e^(-Ht/alpha) =
sum_j (-t)^j/j! x^j, which is never expanded into stored cells: the
callers below apply it where they read the series at one x-power.
scale_by and integrate_pn integrate Sigma over P^n term by term; the
pipeline's K_d extraction reads the same integral off the top
normalized columns N_(n-1), N_n instead.
"""

import math
from fractions import Fraction

from .qseries import ScalarQSeries, SeriesError, TSeries, _frac


class CohomSeries:
    __slots__ = ("n", "order", "columns", "degrees")

    def __init__(self, n, order, columns, degrees):
        if len(columns) != n + 1 or any(s.order != order for s in columns):
            raise SeriesError(f"columns must be {n + 1} q-series of order {order}")
        self.n = n
        self.order = order
        self.columns = tuple(columns)
        self.degrees = list(degrees)

    @property
    def cells(self):
        """The derived rows: cells[d][i] is the x^i coefficient of sigma_d."""
        return [list(row) for row in zip(*(s.coeffs for s in self.columns))]

    def __eq__(self, other):
        if not isinstance(other, CohomSeries):
            return NotImplemented
        return (self.n == other.n and self.order == other.order
                and self.columns == other.columns and self.degrees == other.degrees)

    def column(self, i):
        """S_i = sum_d cells[d][i] q^d, the x^i column of Sigma (0 when
        i is outside 0..n)."""
        return self.columns[i] if 0 <= i <= self.n else ScalarQSeries.zero(self.order)


def scale_by(a, s):
    """Multiply Sigma by a scalar q-series (t- and H-free); the blocks
    it mixes must share one alpha-degree, as for a critical type."""
    if not isinstance(s, ScalarQSeries):
        s = ScalarQSeries(a.order, (_frac(s),))
    if s.order != a.order:
        raise SeriesError("scalar series order differs from the CohomSeries order")
    if len(set(a.degrees[1:])) > 1:
        raise SeriesError("blocks of different alpha-degree cannot be mixed")
    return CohomSeries(a.n, a.order, [column * s for column in a.columns], a.degrees)


def integrate_pn(a):
    """Push e^(-Ht/alpha) * Sigma forward over P^n: its H^n coefficient
    sum_j (-t)^j/j! S_(n-j), as {alpha-power: TSeries in (d, t-power)};
    block d lands at alpha-power degrees[d] - n.

    The omega summand is not integrated here; its closed form is
    (-t)^(n-h)/(n-h)! times the scalar of omega_class.
    """
    out, cells = {}, a.cells
    for d in range(1, a.order + 1):
        terms = out.setdefault(a.degrees[d] - a.n, {})
        for j in range(a.n + 1):
            terms[(d, j)] = cells[d][a.n - j] * Fraction((-1) ** j, math.factorial(j))
    return {k: TSeries(a.order, terms) for k, terms in out.items()}


def homogeneity_violations(series, splitting):
    """(d, recorded alpha-degree) for each Sigma_d whose factor count
    disagrees with delta_d = splitting.block_degree(d)."""
    return [(d, series.degrees[d]) for d in range(1, series.order + 1)
            if series.degrees[d] != splitting.block_degree(d)]
