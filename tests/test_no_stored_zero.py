"""Sparse values never store a zero coefficient: sums and products that
cancel, on random polynomials, t-series and Sigma blocks, leave no 0
behind in ``terms`` or a block dict."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcalc.algebra import Polynomial, bar_involution, weight_ring
from mirrorcalc.bundles import OmegaClass
from mirrorcalc.pipeline import (_block_div_unit, _block_mul_linear,
                                 _normalized_block)
from mirrorcalc.qseries import TSeries

R = weight_ring(1)  # lam0, lam1, alpha, kappa, x
N = 3  # H-nilpotency bound for the blocks

units = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
# polynomials free of x and kappa, so x and kappa can force cancellation
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: e + (0, 0)),
    units, min_size=1, max_size=4).map(lambda t: Polynomial(R, t))
tseries = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)), units,
                          min_size=1, max_size=5).map(lambda t: TSeries(4, t))
# one cell per antidiagonal i + k, each with i < N
blocks = st.dictionaries(st.integers(-4, 4), st.tuples(st.integers(0, N - 1), units),
                         min_size=1, max_size=4).map(
    lambda cells: {(i, s - i): c for s, (i, c) in cells.items()})


def stored(value):
    return list(value.values() if isinstance(value, dict) else value.terms.values())


@settings(max_examples=60, deadline=None)
@given(polys, polys, tseries, tseries, blocks, units, units, st.integers(1, 3))
def test_cancelling_arithmetic_stores_no_zero(a, b, f, g, block, h, c, m):
    x, kappa, alpha = R.var("x"), R.var("kappa"), R.var("alpha")
    xb = x * b  # every cross term of (a + xb)(a - xb) has x-degree 1 and cancels
    poly_results = [
        (a + xb) * (a - xb),
        (a + xb) * (a - xb) - a * a + xb * xb,
        ((kappa - R.var("lam0") - alpha) * a).substitute({"kappa": R.var("lam0") + alpha}),
        bar_involution((kappa - m * alpha) * a, m),
    ]
    assert poly_results[1].terms == {} and poly_results[2].terms == {}
    t_results = [(f + g) * (f - g) - f * f + g * g,
                 (f * g).ddt() - f.ddt() * g - f * g.ddt()]
    assert all(r.is_zero() for r in t_results)
    # (hH - c alpha)(hH + c alpha) cancels its cross term beside every cell
    squared = _block_mul_linear(_block_mul_linear(block, N, h, c), N, h, -c)
    times_unit = _block_mul_linear(block, N, Fraction(1), Fraction(-m))
    assert _block_div_unit(times_unit, N, m) == block
    # two q-orders of Sigma that cancel in F0 * e^(Hg/alpha) * Sigma
    sigma = {1: block, 2: {key: -c * v for key, v in block.items()}}
    normalized = _normalized_block(sigma, OmegaClass(Fraction(1), 0), [[1], [c], [0]], N, 2)
    assert normalized == {}
    for value in poly_results + t_results + [squared, times_unit, normalized]:
        assert 0 not in stored(value)
