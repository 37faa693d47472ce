"""Sparse values never store a zero coefficient: sums and products that
cancel, on random polynomials and t-series, leave no 0 behind in
``terms``.  (Sigma is stored as dense vectors, zeros included.)"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcalc.algebra import Polynomial, bar_involution, weight_ring
from mirrorcalc.qseries import TSeries
from test_qseries import tseries_product

R = weight_ring(1)  # lam0, lam1, alpha, kappa, x

units = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
# polynomials free of x and kappa, so x and kappa can force cancellation
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3).map(lambda e: e + (0, 0)),
    units, min_size=1, max_size=4).map(lambda t: Polynomial(R, t))
tseries = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)), units,
                          min_size=1, max_size=5).map(lambda t: TSeries(4, t))


@settings(max_examples=60, deadline=None)
@given(polys, polys, tseries, tseries)
def test_cancelling_arithmetic_stores_no_zero(a, b, f, g):
    x, kappa, alpha = R.var("x"), R.var("kappa"), R.var("alpha")
    xb = x * b  # every cross term of (a + xb)(a - xb) has x-degree 1 and cancels
    poly_results = [
        (a + xb) * (a - xb),
        (a + xb) * (a - xb) - a * a + xb * xb,
        ((kappa - R.var("lam0") - alpha) * a).substitute({"kappa": R.var("lam0") + alpha}),
        a + bar_involution(a),  # the odd powers of alpha cancel
    ]
    assert poly_results[1].terms == {} and poly_results[2].terms == {}
    mul = tseries_product
    t_results = [mul(f + g, f - g) - mul(f, f) + mul(g, g),
                 mul(f, g).ddt() - mul(f.ddt(), g) - mul(f, g.ddt())]
    assert all(r.is_zero() for r in t_results)
    for value in poly_results + t_results:
        assert 0 not in value.terms.values()
