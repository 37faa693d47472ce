"""The hypergeometric series: Sigma cells with e^(-Ht/alpha) applied in
closed form, scaling, integration over P^n, homogeneity, the e^(dg)
factors of a t-shift, and the block arithmetic that builds each Sigma_d
(products truncated by H-nilpotency, exact division by H - m*alpha)."""

from fractions import Fraction

import pytest

from mirrorcalc.bundles import OmegaClass, SplittingType
from mirrorcalc.cohomseries import (CohomSeries, homogeneity_violations,
                                    integrate_pn, scale_by)
from mirrorcalc.pipeline import _block_div_unit, _block_mul_linear
from mirrorcalc.qseries import ScalarQSeries, SeriesError, exp_multiples

ONE = {(0, 0): Fraction(1)}


def test_mul_nilpotency():
    # (H + alpha)(H - alpha) = H^2 - alpha^2, and H^2 = 0 on P^1
    for n, expected in ((1, {(0, 2): -1}), (2, {(2, 0): 1, (0, 2): -1})):
        block = _block_mul_linear(_block_mul_linear(ONE, n, 1, 1), n, 1, -1)
        assert block == expected
    # H^n * H = 0
    n = 2
    block = ONE
    for _ in range(n + 1):
        block = _block_mul_linear(block, n, 1, 0)
    assert block == {}


def test_mul_alpha_laurent():
    # alpha-Laurent exponents add: (H - alpha)^-2 = alpha^-2 (1 + 2H/alpha) on P^1
    assert _block_div_unit(_block_div_unit(ONE, 1, 1), 1, 1) == {(0, -2): 1, (1, -3): 2}


def test_invert_linear_factor():
    # (H - alpha)^-1 on P^1 is -alpha^-1 (1 + H/alpha)
    n = 1
    inv = _block_div_unit(ONE, n, 1)
    assert inv == {(0, -1): -1, (1, -2): -1}
    assert _block_mul_linear(inv, n, 1, -1) == ONE


def test_invert_denominator_products():
    # the canonical denominators prod (H - m*alpha)^(n+1) invert exactly
    for n in (1, 2):
        for d in (1, 2, 3):
            block = ONE
            for m in range(1, d + 1):
                for _ in range(n + 1):
                    block = _block_mul_linear(block, n, 1, -m)
            for m in range(1, d + 1):
                for _ in range(n + 1):
                    block = _block_div_unit(block, n, m)
            assert block == ONE


def test_shift_multiplies_blocks():
    # t -> t + g multiplies the q^d block by e^(dg): with g = cq the q block
    # becomes q e^(cq) = q + cq^2 + c^2/2 q^3
    order = 3
    c = Fraction(5)
    powers = exp_multiples(ScalarQSeries(order, (0, c)))
    assert len(powers) == order + 1
    assert powers[0] == ScalarQSeries.one(order)
    assert powers[1].shift(1) == ScalarQSeries(order, (0, 1, c, c * c / 2))
    assert powers[3] == ScalarQSeries(order, (0, 3 * c)).exp()


def test_scale_by():
    n, order = 1, 3
    f0 = ScalarQSeries(order, (1, 120))
    one = CohomSeries(n, order, {(0, 0, 0): 1})
    assert scale_by(one, f0) == CohomSeries(n, order, {(0, 0, 0): 1, (1, 0, 0): 120})
    a = CohomSeries(n, order, {(1, 1, 0): 1})
    s = ScalarQSeries(order, (1, -1))
    assert scale_by(a, s) == CohomSeries(n, order, {(1, 1, 0): 1, (2, 1, 0): -1})


def test_integrate_top_cell():
    n, order = 3, 2
    a = CohomSeries(n, order, {(0, n, 0): Fraction(7, 2)})
    out = integrate_pn(a)
    assert out.terms == {(0, 0, 0): Fraction(7, 2)}


def test_integrate_exponential_prefactor():
    # on P^1 the H coefficient of e^(-Ht/alpha) * 1 is -t/alpha
    out = integrate_pn(CohomSeries(1, 2, {(0, 0, 0): 1}))
    assert out.terms == {(0, 1, -1): Fraction(-1)}


def test_integrate_multicover_block():
    # e^(-Ht/alpha)/(H - d*alpha)^2 integrates to alpha^-3 d^-3 (2 - dt);
    # on P^1, (H - d*alpha)^-2 = d^-2 alpha^-2 + 2 d^-3 H alpha^-3
    n, order = 1, 1
    for d in (1, 2, 3, 5):
        block = CohomSeries(n, order, {(0, 0, -2): Fraction(1, d ** 2),
                                       (0, 1, -3): Fraction(2, d ** 3)})
        out = integrate_pn(block)
        assert out.terms == {(0, 0, -3): Fraction(2, d ** 3),
                             (0, 1, -3): Fraction(-1, d ** 2)}


def test_integrate_tagged_omega():
    # the omega summand is integrated in closed form by the caller, so
    # integrate_pn and scale_by take Sigma alone
    a = CohomSeries(2, 1, {(1, 0, -2): 1}, omega=OmegaClass(Fraction(5), 1))
    with pytest.raises(SeriesError):
        integrate_pn(a)
    with pytest.raises(SeriesError):
        scale_by(a, 2)
    assert integrate_pn(a.without_omega()).terms == {(1, 2, -4): Fraction(1, 2)}


def test_homogeneity_checker():
    st = SplittingType(2, (), (3,))
    good = CohomSeries(2, 2, {(1, 1, st.block_degree(1) - 1): 1})
    assert homogeneity_violations(good, st) == []
    bad = CohomSeries(2, 2, {(1, 1, 5): 1})
    assert homogeneity_violations(bad, st) == [(1, 1, 5)]


def test_homogeneity_preserved_by_products():
    # block degrees are kept by scalar q-series factors and drop by n
    # under integration
    from mirrorcalc.pipeline import build_hypergeom_series

    st = SplittingType(1, (), (1, 1))
    series = build_hypergeom_series(st, 3).without_omega()
    # delta_d = -2 for every block here
    scaled = scale_by(series, ScalarQSeries(3, (1, 5)))
    assert all(i + k == -2 for (d, i, k) in scaled.cells)
    integrated = integrate_pn(series)
    assert all(k == st.block_degree(d) - st.n for (d, j, k) in integrated.terms)
