"""Scalar q-series: exp, inversion, composition, reversion; the integer
arithmetic against Fraction-list oracles (the schoolbook product, the
inverse and exp recurrences) and the integer product kernel against the
double-loop convolution; the canonical (ints, den) form; the
mirror-coordinate powers."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorcalc.qseries import (ScalarQSeries, SeriesError, TSeries, _int_product,
                                mirror_powers, qseries_reversion)


def schoolbook(a, b):
    """The truncated product of two ScalarQSeries, one coefficient pair
    at a time."""
    out = [Fraction(0)] * (a.order + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs[: a.order + 1 - i]):
            out[i + j] += x * y
    return out


def oracle_int_product(a, b):
    """The convolution of two int sequences by the double loop, truncated
    to len(a)."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            out[i + j] += x * y
    return out


def oracle_inverse(cs):
    """1/sum cs[d] q^d, one Fraction at a time."""
    out = [1 / cs[0]]
    for d in range(1, len(cs)):
        out.append(-sum((cs[j] * out[d - j] for j in range(1, d + 1)), Fraction(0)) / cs[0])
    return out


def oracle_exp(cs):
    """exp(sum cs[d] q^d), cs[0] == 0, by d*out[d] = sum_j j*cs[j]*out[d-j]."""
    out = [Fraction(1)]
    for d in range(1, len(cs)):
        out.append(sum((j * cs[j] * out[d - j] for j in range(1, d + 1)), Fraction(0)) / d)
    return out


def oracle_ddt(terms):
    """d/dt on a (d, j) -> c dict with q = e^t: t^j q^d -> d t^j q^d + j t^(j-1) q^d."""
    out = {}
    for (d, j), c in terms.items():
        for key, weight in (((d, j), d), ((d, j - 1), j)):
            if weight:
                out[key] = out.get(key, 0) + weight * c
    return {key: c for key, c in out.items() if c}


def assert_canonical(s):
    """den > 0, gcd(den, *ints) == 1, and the series equals (with the
    same hash) the one rebuilt from its Fraction coefficients."""
    assert s.den > 0 and math.gcd(s.den, *s.ints) == 1
    assert len(s.ints) == len(s.coeffs) == s.order + 1
    rebuilt = ScalarQSeries(s.order, s.coeffs)
    assert rebuilt == s and hash(rebuilt) == hash(s)
    assert (rebuilt.ints, rebuilt.den) == (s.ints, s.den)


def tseries_product(first, *rest):
    """The product of TSeries of one order: rows convolved in t, each
    product of two rows a ScalarQSeries product.  The library multiplies
    a t-series by rationals only, so this oracle lives here."""
    for b in rest:
        out = [ScalarQSeries.zero(first.order)] * (len(first.rows) + len(b.rows) - 1)
        for j1, x in enumerate(first.rows):
            for j2, y in enumerate(b.rows):
                out[j1 + j2] = out[j1 + j2] + x * y
        first = TSeries.from_rows(first.order, out)
    return first


def dict_product(a, b):
    """The truncated product of two TSeries over their (d, j) term dicts."""
    terms = {}
    for (d1, j1), x in a.terms.items():
        for (d2, j2), y in b.terms.items():
            if d1 + d2 <= a.order:
                terms[(d1 + d2, j1 + j2)] = terms.get((d1 + d2, j1 + j2), 0) + x * y
    return {key: c for key, c in terms.items() if c}


# numerators up to 1100 bits, including 0 and negatives, over mixed
# denominators (1, small primes, large odd and power-of-two ones)
rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-3, 3), st.integers(-(1 << 64), 1 << 64),
              st.integers(-(1 << 1100), 1 << 1100)),
    st.one_of(st.just(1), st.sampled_from([2, 3, 7, 1 << 40, 3 ** 90]),
              st.integers(1, 1 << 300)))


@st.composite
def scalar_pairs(draw):
    order = draw(st.integers(0, 14))
    coeffs = st.lists(st.one_of(st.just(Fraction(0)), rationals),
                      min_size=order + 1, max_size=order + 1)
    return ScalarQSeries(order, draw(coeffs)), ScalarQSeries(order, draw(coeffs))


@st.composite
def tseries_pairs(draw):
    order = draw(st.integers(0, 8))
    keys = st.tuples(st.integers(0, order), st.integers(0, 4))
    terms = st.dictionaries(keys, rationals, max_size=12)
    return TSeries(order, draw(terms)), TSeries(order, draw(terms))


# integers of mixed signs up to about 2000 bits, and zeros
kernel_ints = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(1 << 64), 1 << 64),
                        st.integers(-(1 << 2000), 1 << 2000))


@st.composite
def int_pairs(draw):
    """Two int sequences of one length in 1..40, each led by a run of zeros
    of any length up to the whole sequence, as lists or as tuples."""
    count = draw(st.integers(1, 40))
    kind = draw(st.sampled_from([list, tuple]))

    def operand():
        lead = draw(st.integers(0, count))
        return kind([0] * lead + draw(st.lists(kernel_ints, min_size=count - lead,
                                               max_size=count - lead)))

    return operand(), operand()


@settings(max_examples=200, deadline=None)
@given(int_pairs())
def test_int_product_matches_the_double_loop(pair):
    a, b = pair
    assert _int_product(a, b) == oracle_int_product(a, b)
    assert _int_product(a, b) == _int_product(b, a)


@pytest.mark.parametrize("count, va, vb", [(1, 1, 0), (1, 0, 1), (1, 1, 1), (5, 2, 3),
                                           (5, 5, 5), (40, 39, 1), (40, 20, 25), (40, 0, 40)])
def test_int_product_of_valuations_past_the_length_is_zero(count, va, vb):
    a = [0] * va + [-(1 << 2000) + 7] * (count - va)
    b = [0] * vb + [3 ** 1200] * (count - vb)
    assert _int_product(a, b) == _int_product(b, a) == [0] * count


@settings(max_examples=200, deadline=None)
@given(scalar_pairs())
def test_scalar_product_matches_schoolbook(pair):
    a, b = pair
    assert list((a * b).coeffs) == schoolbook(a, b)
    assert list((b * a).coeffs) == schoolbook(b, a)


@settings(max_examples=100, deadline=None)
@given(scalar_pairs(), rationals, st.integers(0, 16))
def test_scalar_arithmetic_matches_fraction_oracle(pair, c, s):
    a, b = pair
    x, y = list(a.coeffs), list(b.coeffs)
    g = a - x[0]  # zero constant term
    cases = [(a + b, [u + v for u, v in zip(x, y)]), (a - b, [u - v for u, v in zip(x, y)]),
             (-a, [-u for u in x]), (a * c, [u * c for u in x]), (c * a, [c * u for u in x]),
             (a * b, schoolbook(a, b)), (a.shift(s), ([Fraction(0)] * s + x)[: a.order + 1]),
             (g.exp(), oracle_exp([Fraction(0)] + x[1:]))]
    if x[0]:
        cases.append((a.inverse(), oracle_inverse(x)))
    for series, expected in cases:
        assert list(series.coeffs) == expected
        assert [series[d] for d in range(series.order + 1)] == expected
        assert_canonical(series)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


@settings(max_examples=100, deadline=None)
@given(tseries_pairs())
def test_tseries_ddt_matches_dict_oracle(pair):
    for a in pair:
        derived = a.ddt()
        assert derived.terms == oracle_ddt(a.terms)
        for row in derived.rows:
            assert_canonical(row)


def test_canonical_form_edge_cases():
    big = 3 ** 200 << 100
    a = ScalarQSeries(4, (Fraction(1, big), 0, Fraction(-6, big)))
    assert a.ints == (1, 0, -6, 0, 0) and a.den == big
    zero = a - a
    assert zero.ints == (0,) * 5 and zero.den == 1
    assert zero == ScalarQSeries.zero(4) == a * 0 and hash(zero) == hash(ScalarQSeries.zero(4))
    assert a * zero == zero and (a * big).den == 1 and (a * Fraction(big, 7)).den == 7
    assert (a.shift(3).ints, a.shift(3).den) == ((0, 0, 0, 1, 0), big) and a.shift(5) == zero
    # dropping a term can leave a common factor, which is divided out
    c = ScalarQSeries(1, (Fraction(1, 2), Fraction(1, 4)))
    assert (c.ints, c.den) == ((2, 1), 4)
    assert (c.truncate(0).ints, c.truncate(0).den) == ((1,), 2)
    assert (c.shift(1).ints, c.shift(1).den) == ((0, 1), 2)
    # a negative denominator is moved into the numerators
    neg = ScalarQSeries._reduced(2, [2, -4, 6], -4)
    assert neg.ints == (-1, 2, -3) and neg.den == 2
    assert neg == ScalarQSeries(2, (Fraction(-1, 2), 1, Fraction(-3, 2)))
    for s in (a, zero, neg, a * a, (a + 1).inverse(), (a - a[0]).exp()):
        assert_canonical(s)


def test_scalar_product_edge_cases():
    zero, one = ScalarQSeries.zero(0), ScalarQSeries.one(0)
    assert zero * one == zero and one * one == one
    big = ScalarQSeries(0, (Fraction(-(1 << 1500) + 1, 3 ** 200),))
    assert (big * big).coeffs[0] == big.coeffs[0] ** 2
    a = ScalarQSeries(5, (0, 0, Fraction(-1, 2), 0, 7))
    b = ScalarQSeries(5, (0, 0, 0, 0, Fraction(1, 3)))
    assert a * b == ScalarQSeries.zero(5)  # valuations 2 + 4 > order
    c = ScalarQSeries(5, (0, 0, 0, Fraction(1, 3)))
    assert (a * c).coeffs == (0, 0, 0, 0, 0, Fraction(-1, 6))
    assert list((a * a).coeffs) == schoolbook(a, a)


@pytest.mark.parametrize("count, bits_a, bits_b", [(31, 5, 6), (3, 7, 7), (100, 64, 63),
                                                   (12, 1000, 1001)])
def test_scalar_product_fills_its_slots(count, bits_a, bits_b):
    # every coefficient at its largest magnitude and of one sign per
    # operand, so each product coefficient k is (k + 1) * max|a| * max|b|:
    # no cancellation, and the top one is the largest sum the product forms
    for sign_a, sign_b in ((1, 1), (-1, 1), (-1, -1)):
        a = ScalarQSeries(count - 1, [sign_a * ((1 << bits_a) - 1)] * count)
        b = ScalarQSeries(count - 1, [sign_b * ((1 << bits_b) - 1)] * count)
        assert list((a * b).coeffs) == schoolbook(a, b)


@settings(max_examples=100, deadline=None)
@given(tseries_pairs())
def test_tseries_product_matches_dict_oracle(pair):
    a, b = pair
    assert tseries_product(a, b).terms == dict_product(a, b)


@settings(max_examples=100, deadline=None)
@given(tseries_pairs())
def test_tseries_rows_and_terms_agree(pair):
    # terms is a view of the t-rows: it rebuilds the series, holds no
    # zero, and the rows end in a nonzero one
    for a in pair:
        assert TSeries(a.order, a.terms) == a
        assert 0 not in a.terms.values()
        assert all(len(row.coeffs) == a.order + 1 for row in a.rows)
        assert not a.rows or any(a.rows[-1].coeffs)
        assert a.t_degree() == max((j for _, j in a.terms), default=-1)


@settings(max_examples=100, deadline=None)
@given(tseries_pairs())
def test_tseries_derivations_on_products(pair):
    a, b = pair
    mul = tseries_product
    assert mul(a, b).ddt() == mul(a.ddt(), b) + mul(a, b.ddt())
    assert mul(a, b).mul_q() == mul(a.mul_q(), b)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.lists(rationals, min_size=6, max_size=6))
def test_mirror_powers_are_powers_of_q_exp_g(order, coeffs):
    g = ScalarQSeries(order, [0] + coeffs)
    Q = ScalarQSeries(order, schoolbook(ScalarQSeries.q(order), g.exp()))
    powers = mirror_powers(g)
    assert len(powers) == order + 1
    expected = ScalarQSeries.one(order)
    for d in range(order + 1):
        assert powers[d] == expected
        assert all(c == 0 for c in powers[d].coeffs[:d])
        expected = ScalarQSeries(order, schoolbook(expected, Q))


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
    mul = tseries_product
    assert mul(t + q, t - q) == mul(t, t) - mul(q, q)
    assert mul(t, q).t_coefficient(1) == ScalarQSeries(4, (0, 1))
    assert (t + q) * Fraction(3, 2) == TSeries(4, {(0, 1): Fraction(3, 2), (1, 0): Fraction(3, 2)})
    with pytest.raises(TypeError):
        t * q


def test_tseries_rejects_negative_powers():
    for key in ((-1, 0), (0, -1)):
        with pytest.raises(SeriesError):
            TSeries(3, {key: 1})
