"""The hypergeometric series: dense Sigma vectors in x = H/alpha with
e^(-Ht/alpha) applied in closed form, scaling, integration over P^n,
homogeneity, the e^(dg) factors of a t-shift, and the Fraction vector
arithmetic that is the oracle of the integer sigma_d build (products
truncated by H-nilpotency, exact division by x - m)."""

import math
from fractions import Fraction

import pytest

from mirrorcalc.bundles import CRITICAL_BUNDLES, SplittingType
from mirrorcalc.cohomseries import (CohomSeries, homogeneity_violations,
                                    integrate_pn, scale_by)
from mirrorcalc.pipeline import build_hypergeom_series
from mirrorcalc.qseries import ScalarQSeries, SeriesError, TSeries, mirror_powers


def one(n):
    return [Fraction(1)] + [Fraction(0)] * n


def _times_linear(v, a, b):
    """The x-vector v times (a*x + b), truncated at x^n."""
    return [b * v[0]] + [b * v[i] + a * v[i - 1] for i in range(1, len(v))]


def _divide_linear(v, m):
    """v / (x - m), m >= 1, exactly mod x^(n+1): w[i] = (w[i-1] - v[i]) / m."""
    out, prev = [], Fraction(0)
    for c in v:
        prev = (prev - c) / m
        out.append(prev)
    return out


def oracle_cells(st, order):
    """sigma_d for d = 0..order, one Fraction at a time: sigma_(d-1)
    times its new factors, divided n+1 times by x - d."""
    sigma, cells = one(st.n), [[Fraction(0)] * (st.n + 1)]
    for d in range(1, order + 1):
        for a, b in st.factors(d, d - 1):
            sigma = _times_linear(sigma, a, b)
        for _ in range(st.n + 1):
            sigma = _divide_linear(sigma, d)
        cells.append(sigma)
    return cells


@pytest.mark.parametrize("st", CRITICAL_BUNDLES, ids=lambda st: f"P^{st.n} {st}")
def test_integer_sigma_matches_fraction_oracle(st):
    # the integer build (one vector over one denominator per d, one
    # convolution with the inverse of (x - d)^(n+1)) equals the Fraction
    # build at every cell, and its columns are in canonical form
    series = build_hypergeom_series(st, 12)
    assert series.cells == oracle_cells(st, 12)
    for column in series.columns:
        assert column.den > 0 and math.gcd(column.den, *column.ints) == 1


def series(n, order, blocks, degree):
    """A CohomSeries with the given {d: x-vector} blocks, all of one
    alpha-degree."""
    return from_cells(n, order, [blocks.get(d, [0] * (n + 1)) for d in range(order + 1)],
                      [degree] * (order + 1))


def from_cells(n, order, cells, degrees):
    """A CohomSeries from its rows cells[d][i]."""
    return CohomSeries(n, order, [ScalarQSeries(order, column) for column in zip(*cells)],
                       degrees)


def test_mul_nilpotency():
    # (x + 1)(x - 1) = x^2 - 1, and x^2 = 0 on P^1
    for n, expected in ((1, [-1, 0]), (2, [-1, 0, 1])):
        assert _times_linear(_times_linear(one(n), 1, 1), 1, -1) == expected
    # x^n * x = 0
    n = 2
    vector = one(n)
    for _ in range(n + 1):
        vector = _times_linear(vector, 1, 0)
    assert vector == [0, 0, 0]


def test_mul_alpha_laurent():
    # (H - alpha)^-2 = alpha^-2 (1 + 2H/alpha) on P^1
    assert _divide_linear(_divide_linear(one(1), 1), 1) == [1, 2]


def test_invert_linear_factor():
    # (x - 1)^-1 on P^1 is -(1 + x)
    inv = _divide_linear(one(1), 1)
    assert inv == [-1, -1]
    assert _times_linear(inv, 1, -1) == one(1)


def test_invert_denominator_products():
    # the canonical denominators prod (x - m)^(n+1) invert exactly
    for n in (1, 2):
        for d in (1, 2, 3):
            vector = one(n)
            for m in range(1, d + 1):
                for _ in range(n + 1):
                    vector = _times_linear(vector, 1, -m)
            for m in range(1, d + 1):
                for _ in range(n + 1):
                    vector = _divide_linear(vector, m)
            assert vector == one(n)


def test_shift_multiplies_blocks():
    # t -> t + g multiplies the q^d block by e^(dg), so q^d becomes Q^d in
    # the mirror coordinate Q = q e^g: with g = cq the q block becomes
    # q e^(cq) = q + cq^2 + c^2/2 q^3
    order = 3
    c = Fraction(5)
    powers = mirror_powers(ScalarQSeries(order, (0, c)))
    assert len(powers) == order + 1
    assert powers[0] == ScalarQSeries.one(order)
    assert powers[1] == ScalarQSeries(order, (0, 1, c, c * c / 2))
    assert powers[3] == ScalarQSeries(order, (0, 3 * c)).exp().shift(3)


def test_scale_by():
    n, order = 1, 3
    a = series(n, order, {1: [0, 1]}, 0)
    s = ScalarQSeries(order, (1, -1))
    assert scale_by(a, s) == series(n, order, {1: [0, 1], 2: [0, -1]}, 0)
    f0 = ScalarQSeries(order, (1, 120))
    assert scale_by(series(n, order, {1: [1, 0]}, 0), f0) == series(
        n, order, {1: [1, 0], 2: [120, 0]}, 0)
    assert scale_by(a, 3) == series(n, order, {1: [0, 3]}, 0)
    # blocks of different alpha-degree do not mix
    mixed = from_cells(n, order, [[0, 0], [0, 1], [1, 0], [0, 0]], [0, 0, 1, 0])
    with pytest.raises(SeriesError):
        scale_by(mixed, s)


def test_integrate_top_cell():
    n, order = 3, 2
    a = series(n, order, {1: [0, 0, 0, Fraction(7, 2)]}, 0)
    assert integrate_pn(a) == {-3: TSeries(order, {(1, 0): Fraction(7, 2)})}


def test_integrate_exponential_prefactor():
    # on P^1 the H coefficient of e^(-Ht/alpha) * 1 is -t/alpha
    out = integrate_pn(series(1, 2, {1: [1, 0]}, 0))
    assert out == {-1: TSeries(2, {(1, 1): -1})}
    # on P^2 the H^2 coefficient is t^2/(2 alpha^2), landing at alpha^-4
    out = integrate_pn(series(2, 1, {1: [1, 0, 0]}, -2))
    assert out == {-4: TSeries(1, {(1, 2): Fraction(1, 2)})}


def test_integrate_multicover_block():
    # e^(-Ht/alpha)/(H - d*alpha)^2 integrates to alpha^-3 d^-3 (2 - dt);
    # on P^1, (x - d)^-2 = d^-2 + 2 d^-3 x
    n, order = 1, 5
    for d in (1, 2, 3, 5):
        block = series(n, order, {d: [Fraction(1, d ** 2), Fraction(2, d ** 3)]}, -2)
        assert integrate_pn(block) == {-3: TSeries(order, {(d, 0): Fraction(2, d ** 3),
                                                           (d, 1): Fraction(-1, d ** 2)})}


def test_homogeneity_checker():
    st = SplittingType(2, (), (3,))
    good = series(2, 2, {1: [0, 1, 0]}, st.block_degree(1))
    assert homogeneity_violations(good, st) == []
    bad = CohomSeries(2, 2, good.columns, [-1, -1, 5])
    assert homogeneity_violations(bad, st) == [(2, 5)]


def test_homogeneity_preserved_by_products():
    # block degrees are kept by scalar q-series factors and drop by n
    # under integration
    from mirrorcalc.pipeline import build_hypergeom_series

    st = SplittingType(1, (), (1, 1))
    sigma = build_hypergeom_series(st, 3)
    # delta_d = -2 for every block here
    scaled = scale_by(sigma, ScalarQSeries(3, (1, 5)))
    assert homogeneity_violations(scaled, st) == []
    assert list(integrate_pn(sigma)) == [st.block_degree(1) - st.n]
