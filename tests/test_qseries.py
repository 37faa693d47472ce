"""Scalar q-series: exp, inversion, composition, reversion."""

import random
from fractions import Fraction

import pytest

from mirrorcalc.qseries import (ScalarQSeries, SeriesError, TSeries,
                                qseries_reversion)


def test_mul_and_inverse():
    one_plus_q = ScalarQSeries(6, (1, 1))
    inv = one_plus_q.inverse()
    assert inv == ScalarQSeries(6, (1, -1, 1, -1, 1, -1, 1))
    assert one_plus_q * inv == ScalarQSeries.one(6)


def test_exp_log_roundtrip():
    g = ScalarQSeries(8, (0, 2, Fraction(-1, 3), 0, 5))
    assert g.exp() * (-g).exp() == 1


def test_reversion_identity():
    q = ScalarQSeries.q(5)
    assert qseries_reversion(q) == q


def test_reversion_catalan():
    # T = q - q^2 has inverse Q + Q^2 + 2Q^3 + 5Q^4 + 14Q^5 (Catalan numbers),
    # and back-substitution is the independent oracle
    T = ScalarQSeries(5, (0, 1, -1))
    g = qseries_reversion(T)
    assert g == ScalarQSeries(5, (0, 1, 1, 2, 5, 14))
    assert T.compose(g) == ScalarQSeries.q(5)
    assert g.compose(T) == ScalarQSeries.q(5)


def test_reversion_exponential_shift():
    # T = q e^{-6q}: the inverse starts Q + 6Q^2 (iterate q = Q e^{6q})
    order = 4
    T = ScalarQSeries.q(order) * (ScalarQSeries.q(order) * -6).exp()
    g = qseries_reversion(T)
    assert g.coeffs[1] == 1 and g.coeffs[2] == 6
    assert T.compose(g) == ScalarQSeries.q(order)


def test_reversion_requires_unit_linear_term():
    with pytest.raises(SeriesError):
        qseries_reversion(ScalarQSeries(4, (0, 0, 1)))


def test_reversion_roundtrip_random():
    rng = random.Random(977)
    for _ in range(100):
        order = rng.randint(2, 7)
        coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2]))]
        coeffs += [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(order - 1)]
        T = ScalarQSeries(order, coeffs)
        g = qseries_reversion(T)
        assert T.compose(g) == ScalarQSeries.q(order)
        assert g.compose(T) == ScalarQSeries.q(order)


def test_tseries_ddt():
    # d/dt(t^2 q^3) = 2t q^3 + 3 t^2 q^3 with q = e^t
    f = TSeries(5, {(3, 2): Fraction(1)})
    assert f.ddt() == TSeries(5, {(3, 1): 2, (3, 2): 3})


def test_tseries_arithmetic():
    t = TSeries.t_monomial(4)
    q = TSeries(4, {(1, 0): 1})
    assert (t + q) * (t - q) == t * t - q * q
    assert (t * q).t_coefficient(1) == ScalarQSeries(4, (0, 1))
