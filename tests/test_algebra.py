"""Exact algebra layer: substitution, the bar involution, degrees,
cross-multiplication equality, the ring laws on random inputs, the
packed kernel against a tuple-key Fraction oracle, and factored values
against their expansions."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from mirrorcalc.algebra import (MAX_DEGREE, NEG_INF, AlgebraError, Factored, Polynomial,
                                RationalFunction, SubstitutionError, bar_involution, rf_equal,
                                transposition, weight_ring)
from mirrorcalc.qseries import ExactValue, ScalarQSeries, TSeries

R = weight_ring(2)
LAM0, LAM1, LAM2 = (R.var(f"lam{i}") for i in range(3))
ALPHA = R.var("alpha")
KAPPA = R.var("kappa")


def test_substitute_denominator_collapse_names_symbol():
    rf = RationalFunction(R.one, LAM0 - LAM1)
    with pytest.raises(SubstitutionError) as exc:
        rf.substitute({"lam0": LAM1})
    assert "lam0" in str(exc.value)


@pytest.mark.parametrize("a, b, expected", [
    (ScalarQSeries(2, (1, Fraction(1, 2))), ScalarQSeries(2, (0, 1, 3)),
     ("ScalarQSeries(1 + 1/2*q)", "ScalarQSeries(1 + -1/2*q + -3*q^2)",
      "ScalarQSeries(-1/2*q)")),
    (TSeries(2, {(0, 1): 1, (1, 0): 2}), TSeries(2, {(0, 0): 1, (2, 1): Fraction(1, 3)}),
     ("TSeries(1*t + 2*q)", "TSeries(-1 + 1*t + 2*q + -1/3*t*q^2)",
      "TSeries(1 + -1*t + -2*q)")),
    (LAM0 + ALPHA * Fraction(1, 2), 2 * LAM1,
     ("Polynomial(lam0 + 1/2*alpha)", "Polynomial(lam0 - 2*lam1 + 1/2*alpha)",
      "Polynomial(-lam0 - 1/2*alpha + 1)")),
    (RationalFunction(LAM0, LAM1 - ALPHA), RationalFunction(R.one, LAM1),
     ("RationalFunction((lam0) / (lam1 - alpha))",
      "RationalFunction((lam0*lam1 - lam1 + alpha) / (lam1^2 - lam1*alpha))",
      "RationalFunction((-lam0 + lam1 - alpha) / (lam1 - alpha))")),
], ids=["ScalarQSeries", "TSeries", "Polynomial", "RationalFunction"])
def test_derived_operators(a, b, expected):
    # repr, a - b and 1 - a come from ExactValue; each class keeps its own
    # reflected aliases, which the benchmark's tracer patches by name
    assert (repr(a), repr(a - b), repr(1 - a)) == expected
    cls = type(a)
    assert cls.__sub__ is ExactValue.__sub__ and cls.__repr__ is ExactValue.__repr__
    assert cls.__dict__["__radd__"] is cls.__add__ and cls.__dict__["__rmul__"] is cls.__mul__
    assert not any(hasattr(v, "__dict__") for v in (a, b, a - b, 1 - a))


def test_bar_fixes_lambda_flips_alpha():
    assert bar_involution(LAM0 + 3 * ALPHA) == LAM0 - 3 * ALPHA
    assert bar_involution(LAM1 * ALPHA ** 2 - ALPHA ** 3) == LAM1 * ALPHA ** 2 + ALPHA ** 3


def test_bar_is_involution():
    p = KAPPA ** 2 * ALPHA + LAM1
    assert bar_involution(bar_involution(p)) == p
    rf = RationalFunction(LAM0 + ALPHA, LAM1 - 2 * ALPHA)
    assert rf_equal(bar_involution(bar_involution(rf)), rf)


def test_bar_involution_on_monomials():
    monomials = [R.one, ALPHA, KAPPA, LAM0, KAPPA * ALPHA, KAPPA ** 2,
                 LAM1 * ALPHA ** 2, KAPPA ** 3 * LAM2]
    for m in monomials:
        assert bar_involution(bar_involution(m)) == m


def alpha_degree(p):
    return RationalFunction(p).alpha_degrees()[0]


def test_alpha_degree():
    assert alpha_degree(LAM0 ** 2 * ALPHA ** 3 + ALPHA) == 3
    assert alpha_degree(LAM0 * LAM1) == 0
    assert alpha_degree(R.zero) == NEG_INF
    assert RationalFunction(LAM0, ALPHA ** 2 + LAM1).alpha_degrees() == (0, 2)


def test_alpha_degree_concave_factor_product():
    # the first block of the canonical-bundle data on P^2, expanded
    p = (-3 * KAPPA + ALPHA) * (-3 * KAPPA + 2 * ALPHA)
    assert alpha_degree(p) == 2


def test_rf_equal():
    assert rf_equal(RationalFunction(LAM0, ALPHA), RationalFunction(LAM0, ALPHA))
    cancel = RationalFunction(LAM0 * LAM0 - ALPHA * ALPHA, LAM0 - ALPHA)
    assert rf_equal(cancel, RationalFunction(LAM0 + ALPHA))
    assert not rf_equal(RationalFunction(R.one, ALPHA), RationalFunction(R.one, -ALPHA))


def test_denominator_normalization():
    rf = RationalFunction(LAM0, -2 * ALPHA)
    assert rf.den.sorted_terms()[0][1] > 0
    assert rf.den.content_with_sign() == 1


def _random_poly(rng, max_terms=4, ring=R):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, 3)):
            exp[rng.randrange(ring.nvars)] += 1
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if coeff:
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    return Polynomial(ring, {e: c for e, c in terms.items() if c})


def test_ring_laws_random():
    rng = random.Random(20240817)
    for _ in range(100):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_substitution_commutes_with_multiplication():
    rng = random.Random(421)
    for _ in range(100):
        p, q = _random_poly(rng), _random_poly(rng)
        for binding in ({"kappa": LAM0 + ALPHA}, {"lam1": LAM2 - ALPHA}):
            lhs = (p * q).substitute(binding)
            rhs = p.substitute(binding) * q.substitute(binding)
            assert lhs == rhs


@pytest.mark.parametrize("bindings, message", [
    ({}, "binds exactly one variable, not 0"),
    ({"kappa": LAM0, "lam1": ALPHA}, "binds exactly one variable, not 2"),
    ({"lam7": LAM0}, "unknown variable 'lam7'"),
    ({"lam0": weight_ring(3).var("lam0")}, "a binding must be a Polynomial or a constant"),
])
def test_substitute_binds_one_variable(bindings, message):
    # no substitution binds zero or several variables at once; the three
    # types check a binding alike
    for value in (LAM0 * KAPPA, RationalFunction(LAM0, LAM1 + KAPPA), Factored(R, [LAM0], [LAM1])):
        with pytest.raises(AlgebraError, match=message):
            value.substitute(bindings)


def _substitution_cases(ring, rng):
    """(polynomial, binding) pairs, each binding one variable to a
    variable, a linear form, a polynomial, a constant or zero, with
    Fraction coefficients and terms that cancel to zero."""
    lam0, lam1, lam2 = (ring.var(f"lam{i}") for i in range(3))
    alpha, kappa = ring.var("alpha"), ring.var("kappa")
    root = (lam0 - lam1) * Fraction(1, 3)
    for _ in range(12):
        p = _random_poly(rng, 8, ring)
        q = _random_poly(rng, 3, ring)
        yield p, {"kappa": lam0 + 2 * alpha}
        yield p, {"alpha": root}
        yield p, {"alpha": q}
        yield p, {"lam1": kappa}
        yield p, {"lam1": lam2 * Fraction(-3, 4) - alpha}
        yield p, {"alpha": Fraction(-2, 5)}
        yield p, {"x": 0}
        yield p * (3 * alpha - lam0 + lam1), {"alpha": root}
        yield p * (kappa - lam0 - alpha) + q, {"kappa": lam0 + alpha}


@pytest.mark.parametrize("n", [2, 4])
def test_substitute_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    ring = weight_ring(n)
    symbols = sympy.symbols(ring.names)

    def to_sympy(p):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(s ** e for s, e in zip(symbols, exp)))
                           for exp, c in p.terms.items()))

    rng = random.Random(1997 + n)
    for p, bindings in _substitution_cases(ring, rng):
        got = p.substitute(bindings)
        sym_bindings = {symbols[ring.index[name]]:
                        to_sympy(ring.const(v) if isinstance(v, (int, Fraction)) else v)
                        for name, v in bindings.items()}
        want = sympy.Poly(to_sympy(p).subs(sym_bindings, simultaneous=True), *symbols)
        assert got.terms == {exp: Fraction(int(c.p), int(c.q))
                             for exp, c in want.as_dict().items()}


def test_canonical_form_determinism():
    one_way = (KAPPA + ALPHA) * (KAPPA - ALPHA) + LAM0
    other_way = LAM0 + KAPPA * KAPPA - ALPHA * ALPHA
    assert one_way.terms == other_way.terms
    assert str(one_way) == str(other_way)
    assert one_way.sorted_terms() == other_way.sorted_terms()


# ---------------------------------------------------------------------
# the packed kernel against a tuple-key Fraction oracle: exponent tuple
# -> nonzero Fraction dicts, summed and multiplied term by term


def oracle_add(a, b):
    out = dict(a)
    for exp, c in b.items():
        out[exp] = out.get(exp, 0) + c
    return {e: c for e, c in out.items() if c}


def oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(map(operator.add, e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def oracle_pow(a, k, ring):
    out = {(0,) * ring.nvars: Fraction(1)}
    for _ in range(k):
        out = oracle_mul(out, a)
    return out


def oracle_substitute(a, bindings, ring):
    """bindings: variable index -> oracle dict."""
    out = {}
    for exp, c in a.items():
        term = {tuple(0 if i in bindings else e for i, e in enumerate(exp)): c}
        for i, value in bindings.items():
            term = oracle_mul(term, oracle_pow(value, exp[i], ring))
        out = oracle_add(out, term)
    return out


def oracle_bar(a, ring):
    ia = ring.index["alpha"]
    return {e: -c if e[ia] % 2 else c for e, c in a.items()}


def oracle_str(a, ring):
    """Descending graded-lex terms, rendered one statement at a time."""
    if not a:
        return "0"
    parts = []
    for exp in sorted(a, key=lambda e: (sum(e), e), reverse=True):
        c = a[exp]
        factors = []
        for name, e in zip(ring.names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            piece = str(c)
        elif c == 1:
            piece = mono
        elif c == -1:
            piece = f"-{mono}"
        else:
            piece = f"{c}*{mono}"
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def assert_matches(poly, want):
    assert poly.terms == want
    assert str(poly) == oracle_str(want, poly.ring)
    assert poly == Polynomial(poly.ring, want)


coeffs = hs.fractions(min_value=-6, max_value=6, max_denominator=6)
# exponent tuples of R (lam0, lam1, lam2, alpha, kappa, x), small degrees
exps = hs.lists(hs.integers(0, 3), min_size=R.nvars, max_size=R.nvars).map(tuple)
oracles = hs.dictionaries(exps, coeffs, max_size=6).map(
    lambda t: {e: c for e, c in t.items() if c})
values = hs.one_of(oracles.map(lambda t: Polynomial(R, t)), coeffs,
                   hs.integers(-3, 3))


def as_oracle(value):
    return value.terms if isinstance(value, Polynomial) else R.const(value).terms


@settings(max_examples=100)
@given(oracles, oracles)
def test_arithmetic_matches_oracle(a, b):
    p, q = Polynomial(R, a), Polynomial(R, b)
    assert_matches(p, a)
    assert_matches(p + q, oracle_add(a, b))
    assert_matches(p - q, oracle_add(a, {e: -c for e, c in b.items()}))
    assert_matches(p * q, oracle_mul(a, b))


@settings(max_examples=100)
@given(oracles, values)
def test_scalar_arithmetic_matches_oracle(a, v):
    p = Polynomial(R, a)
    assert_matches(p * v, oracle_mul(a, as_oracle(v)))
    assert_matches(v * p, oracle_mul(a, as_oracle(v)))
    assert_matches(p + v, oracle_add(a, as_oracle(v)))
    assert_matches(v - p, oracle_add(as_oracle(v), {e: -c for e, c in a.items()}))


@settings(max_examples=100)
@given(oracles, hs.integers(0, 4))
def test_power_matches_oracle(a, k):
    assert_matches(Polynomial(R, a) ** k, oracle_pow(a, k, R))


@settings(max_examples=100)
@given(oracles, hs.dictionaries(hs.sampled_from(R.names), values, min_size=1, max_size=1))
def test_substitute_matches_oracle(a, bindings):
    got = Polynomial(R, a).substitute(bindings)
    want = oracle_substitute(a, {R.index[name]: as_oracle(v) for name, v in bindings.items()}, R)
    assert_matches(got, want)


@settings(max_examples=100)
@given(oracles, hs.sampled_from([(0, 1), (1, 0), (0, 2), (1, 2)]))
def test_transposition_matches_oracle(a, pair):
    # lam_a <-> lam_b swaps two exponent fields of every key, the total
    # degree and the other fields untouched
    i, j = pair

    def swapped(exp):
        exp = list(exp)
        exp[i], exp[j] = exp[j], exp[i]
        return tuple(exp)

    assert_matches(transposition(Polynomial(R, a), i, j), {swapped(e): c for e, c in a.items()})


@settings(max_examples=100)
@given(oracles)
def test_bar_involution_matches_oracle(a):
    assert_matches(bar_involution(Polynomial(R, a)), oracle_bar(a, R))


def test_degree_guard():
    top = (MAX_DEGREE,) + (0,) * (R.nvars - 1)
    p = Polynomial(R, {top: Fraction(1, 3)})  # the largest degree a field holds
    assert [sum(exp) for exp, _ in p.sorted_terms()] == [MAX_DEGREE]
    assert str(p) == f"1/3*lam0^{MAX_DEGREE}"
    with pytest.raises(AlgebraError):
        p * LAM1  # the total degree reaches the guard bit
    with pytest.raises(AlgebraError):
        p * p
    with pytest.raises(AlgebraError):
        (KAPPA * LAM1).substitute({"kappa": p})
    with pytest.raises(AlgebraError):
        Polynomial(R, {(MAX_DEGREE + 1,) + (0,) * (R.nvars - 1): 1})
    with pytest.raises(AlgebraError):
        Polynomial(R, {(1, -1) + (0,) * (R.nvars - 2): 1})
    with pytest.raises(AlgebraError):
        Polynomial(R, {(1, 1): 1})  # too few exponents
    half = (MAX_DEGREE // 2 + 1,) + (0,) * (R.nvars - 1)
    with pytest.raises(AlgebraError):
        Polynomial(R, {half: 1}) ** 2
    assert (p * 0).is_zero() and (p - p).is_zero()


# ---------------------------------------------------------------------
# factored values against their expansions


# homogeneous linear forms over lam0, lam1, alpha and x, small integer
# coefficients so that products and bindings collide and cancel often
forms = hs.builds(lambda cs: sum((c * R.var(v) for c, v in zip(cs, ("lam0", "lam1", "alpha", "x"))),
                                 R.zero),
                  hs.lists(hs.integers(-2, 2), min_size=4, max_size=4)).filter(
    lambda p: not p.is_zero())
factored = hs.builds(lambda num, den, c: Factored(R, num, den, c),
                     hs.lists(forms, max_size=3), hs.lists(forms, max_size=2),
                     hs.fractions(max_denominator=4).filter(bool))


def same(f, rf):
    """f expands to rf byte for byte."""
    return str(f.expand()) == str(rf) and repr(f.expand()) == repr(rf)


@settings(max_examples=150)
@given(factored, factored, hs.sampled_from(("lam0", "alpha", "x")), forms)
@example(Factored(R, [LAM0 - LAM1], [LAM0 - LAM1]), Factored(R), "lam0", LAM1)  # 0/0 raises
def test_factored_operations_match_their_expansions(a, b, name, value):
    # products, quotients, the bar involution and substitutions of
    # factored values expand to exactly what the same operations give on
    # the expansions, uncancelled; equality and alpha-degrees agree with
    # them too, and a factored value meets a RationalFunction expanded;
    # the bar, which flips the alpha int of each form without a binding,
    # keeps the stored form that substituting -alpha gives, and undoes itself
    ea, eb = a.expand(), b.expand()
    assert same(a * b, ea * eb) and same(a / b, ea / eb)
    assert str(ea * b) == str(ea * eb)
    assert same(bar_involution(a), bar_involution(ea))
    stored = operator.attrgetter("const", "num", "den")
    assert stored(bar_involution(a)) == stored(a.substitute({"alpha": -ALPHA}))
    assert stored(bar_involution(bar_involution(a))) == stored(a)
    assert rf_equal(a, b) == rf_equal(ea, eb) == rf_equal(a, eb) == rf_equal(ea, b)
    assert rf_equal(a, ea) and rf_equal(ea, a)
    assert rf_equal(a * b, b * a) and rf_equal(bar_involution(bar_involution(a)), a)
    assert a.alpha_degrees() == ea.alpha_degrees()
    try:
        expected = ea.substitute({name: value})
    except SubstitutionError as exc:
        with pytest.raises(SubstitutionError, match=str(exc)):
            a.substitute({name: value})
    else:
        assert same(a.substitute({name: value}), expected)


@settings(max_examples=100)
@given(factored, factored)
def test_transposition_is_an_automorphism_of_factored_values(a, b):
    # lam0 <-> lam1 on a factored value expands to what it gives on the
    # expansion, byte for byte; it is an involution on the stored
    # structure, and commutes with products and the bar involution
    swap = functools.partial(transposition, a=0, b=1)
    assert same(swap(a), swap(a.expand()))
    assert (swap(swap(a)).const, swap(swap(a)).num, swap(swap(a)).den) == (a.const, a.num, a.den)
    twice = swap(swap(a.expand()))
    assert (twice.num, twice.den) == (a.expand().num, a.expand().den)
    assert swap(a * b) == swap(a) * swap(b)
    assert swap(bar_involution(a)) == bar_involution(swap(a))


def test_transposition_renormalizes_a_rational_function():
    # the swap turns the denominator's leading term negative, and the
    # rebuilt value carries the sign in its numerator
    value = transposition(RationalFunction(R.one, LAM0 - LAM1), 0, 1)
    assert str(value) == "(-1) / (lam0 - lam1)"
    assert transposition(Factored(R, [], [LAM0 - LAM1]), 0, 1).const == -1


def test_factored_rejects_what_it_cannot_hold():
    with pytest.raises(AlgebraError, match="not a homogeneous linear form"):
        Factored(R, [LAM0 + 1])
    with pytest.raises(ZeroDivisionError):
        Factored(R, [LAM0], [R.zero])
    zero = Factored(R, [R.zero, LAM0], [LAM1])
    assert zero.is_zero() and zero.num == zero.den == {} and not Factored(R, [LAM0]).is_zero()
    with pytest.raises(AlgebraError, match="different ring instances"):
        Factored(R, [LAM0]) * Factored(weight_ring(2), [LAM0])
    assert rf_equal(Factored(R, [LAM0]), Factored(weight_ring(2), [2 * LAM0], [], Fraction(1, 2)))
