"""Euler data: the hypergeometric construction, the gluing and
reciprocity identities, linking, degree bounds, the Lagrange map, and
the mirror-group action on restriction sequences."""

import functools
import gc
import hashlib
import math
import pickle
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mirrorcalc import algebra, cli, eulerdata
from mirrorcalc.algebra import (NEG_INF, Factored, RationalFunction, bar_involution,
                                expanded, rf_equal)
from mirrorcalc.bundles import OmegaClass, SplittingType, omega_class
from mirrorcalc.eulerdata import (EulerDataClosed, EulerDataError, EulerDataTable,
                                  RestrictionSequence, VerificationReport,
                                  _alpha_binding, _grid, _upto, _verdict, _weight,
                                  build_hypergeom_data, check_degree_bound,
                                  check_gluing, check_linked, check_mirror_linked,
                                  check_reciprocity,
                                  endpoint_weights_data, lagrange_map,
                                  mirror_transform, to_table)
from mirrorcalc.pipeline import build_hypergeom_series, compute_normalization
from mirrorcalc.qseries import ScalarQSeries

MULTICOVER = SplittingType(1, (), (1, 1))
LOCAL_P2 = SplittingType(2, (), (3,))
LINE_P1 = SplittingType(1, (1,), ())  # O(1) on P^1, the simplest convex data


def tables_equal(a, b):
    if set(a.entries) != set(b.entries):
        return False
    return (all(rf_equal(a.entries[k], b.entries[k]) for k in a.entries)
            and all(rf_equal(a.omega_restrictions[i], b.omega_restrictions[i])
                    for i in a.omega_restrictions))


# ---------------------------------------------------------------------
# construction


def test_hypergeom_rule_multicover():
    # d = 2 gives (kappa - alpha)^2
    data = build_hypergeom_data(MULTICOVER)
    ring = data.ring
    kappa, alpha = ring.var("kappa"), ring.var("alpha")
    assert data.factors(2).expand().num == (kappa - alpha) ** 2


def test_hypergeom_rule_local_p2():
    data = build_hypergeom_data(LOCAL_P2)
    ring = data.ring
    kappa, alpha = ring.var("kappa"), ring.var("alpha")
    assert data.factors(1).expand().num == (-3 * kappa + alpha) * (-3 * kappa + 2 * alpha)


def test_hypergeom_rule_convex():
    data = build_hypergeom_data(LINE_P1)
    ring = data.ring
    kappa, alpha = ring.var("kappa"), ring.var("alpha")
    assert data.factors(1).expand().num == kappa * (kappa - alpha)


def test_hypergeom_trivial_bundle():
    data = build_hypergeom_data(SplittingType(1, (), ()))
    assert data.factors(3).expand().num == data.ring.one


def test_hypergeom_total_degree():
    # deg P_d = sum_a (l_a d + 1) + sum_b (k_b d - 1), with or without x
    for st in (SplittingType(4, (2, 2), (1,)), LOCAL_P2, MULTICOVER):
        for with_x in (False, True):
            data = build_hypergeom_data(st, with_x=with_x)
            for d in (1, 2):
                expected = (sum(l * d + 1 for l in st.convex)
                            + sum(k * d - 1 for k in st.concave))
                assert max(map(sum, data.factors(d).expand().num.terms)) == expected


def test_omega_class_values():
    assert omega_class(SplittingType(4, (5,), ())) == OmegaClass(Fraction(5), 1)
    assert omega_class(LOCAL_P2) == OmegaClass(Fraction(-1, 3), -1)
    assert omega_class(SplittingType(3, (2,), (2,))) == OmegaClass(Fraction(-1), 0)
    assert omega_class(SplittingType(1, (), ())) == OmegaClass(Fraction(1), 0)


def test_restrict_values():
    local = build_hypergeom_data(LOCAL_P2)
    ring = local.ring
    lam0, alpha = ring.var("lam0"), ring.var("alpha")
    assert to_table(local, 1).entry(1, 0, 0) == RationalFunction(
        (-3 * lam0 + alpha) * (-3 * lam0 + 2 * alpha))

    multi = build_hypergeom_data(MULTICOVER)
    # P_2 at kappa = lam0 + alpha collapses to lam0^2 by hand
    lam0m = multi.ring.var("lam0")
    assert to_table(multi, 2).entry(2, 0, 1) == RationalFunction(lam0m * lam0m)

    endpoint = endpoint_weights_data(2)
    ring = endpoint.ring
    tbl = to_table(endpoint, 3)
    for d in (1, 2, 3):
        for i in (0, 1):
            lam = ring.var(f"lam{i}")
            expected = (lam + d * ring.var("alpha")) * lam
            assert tbl.entry(d, i, d) == RationalFunction(expected)


def test_restrict_rejects_bad_indices():
    # closed-form data is indexed by d >= 1 and its class by 0 <= i <= n
    data = build_hypergeom_data(MULTICOVER)
    with pytest.raises(EulerDataError):
        data.factors(0)
    with pytest.raises(EulerDataError):
        data.omega_restriction(5)
    with pytest.raises(EulerDataError):
        to_table(data, 0)


def test_to_table_multicover_d1():
    tbl = to_table(build_hypergeom_data(MULTICOVER), 1)
    one = RationalFunction(tbl.ring.one)
    for i in (0, 1):
        for r in (0, 1):
            assert tbl.entry(1, i, r) == one
        lam = tbl.ring.var(f"lam{i}")
        assert rf_equal(tbl.omega_restrictions[i],
                        RationalFunction(tbl.ring.one, lam * lam))


@pytest.mark.parametrize("with_x", (False, True))
def test_to_table_builds_each_p_d_once(with_x):
    # the data holds no P_d, so to_table holds its own: one rule call per
    # degree, where one per restriction would make (n+1)(d+1) of them
    data = build_hypergeom_data(SplittingType(4, (5,), ()), with_x=with_x)
    calls, rule = [], data._rule
    counted = EulerDataClosed(data.n, lambda d, ring: calls.append(d) or rule(d, ring),
                              data._omega_restriction)
    tbl = to_table(counted, 3)
    assert calls == [1, 2, 3]
    assert tables_equal(tbl, to_table(data, 3))


def test_to_table_trivial_bundle():
    tbl = to_table(build_hypergeom_data(SplittingType(1, (), ())), 2)
    one = RationalFunction(tbl.ring.one)
    assert all(v == one for v in tbl.entries.values())
    assert all(v == one for v in tbl.omega_restrictions.values())


# ---------------------------------------------------------------------
# gluing and reciprocity


def test_gluing_local_p2():
    report = check_gluing(to_table(build_hypergeom_data(LOCAL_P2), 3))
    assert report.all_pass and not report.inconclusive


def test_gluing_endpoint_data():
    report = check_gluing(to_table(endpoint_weights_data(2), 3))
    assert report.all_pass


def test_gluing_detects_corruption():
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 2)
    ring = tbl.ring
    entries = dict(tbl.entries)
    poison = RationalFunction(ring.one + ring.var("alpha"))
    entries[(2, 1, 1)] = entries[(2, 1, 1)] * poison
    corrupted = EulerDataTable(tbl.n, tbl.d_max, ring, entries, tbl.omega_restrictions)
    report = check_gluing(corrupted)
    assert not report.all_pass
    assert [(r.d, r.i, r.r) for r in report.failures] == [(2, 1, 1)]


def test_reciprocity_line_data_by_hand():
    # P_1(lam0 + alpha) = (lam0+alpha)*lam0 equals bar(P_1(lam0)) = lam0*(lam0+alpha)
    tbl = to_table(build_hypergeom_data(LINE_P1), 1)
    ring = tbl.ring
    lam0, alpha = ring.var("lam0"), ring.var("alpha")
    assert tbl.entry(1, 0, 1) == RationalFunction((lam0 + alpha) * lam0)
    assert rf_equal(tbl.entry(1, 0, 1), bar_involution(tbl.entry(1, 0, 0)))
    report = check_reciprocity(tbl)
    assert report.all_pass and not report.inconclusive


def test_reciprocity_multicover():
    report = check_reciprocity(to_table(build_hypergeom_data(MULTICOVER), 4))
    assert report.all_pass and not report.inconclusive


# random non-critical bundles inside the verify caps, with few and small
# summands so that each example builds its table in well under a second
noncritical = hs.builds(SplittingType, hs.integers(1, 3),
                        hs.lists(hs.integers(1, 6), max_size=2),
                        hs.lists(hs.integers(1, 6), max_size=2)).filter(
    lambda st: not st.is_critical)


@settings(max_examples=25, deadline=None)
@given(noncritical, hs.integers(1, 2))
def test_gluing_and_reciprocity_hold_on_noncritical_bundles(st, d_max):
    assert st.linear_factors(d_max) <= cli.MAX_LINEAR_FACTORS
    tbl = to_table(build_hypergeom_data(st), d_max)
    for report in (check_gluing(tbl), check_reciprocity(tbl)):
        assert report.results and report.all_pass and not report.inconclusive, (st, report.check)


def test_reciprocity_detects_sign_flip():
    tbl = to_table(build_hypergeom_data(MULTICOVER), 2)
    ring = tbl.ring
    entries = dict(tbl.entries)
    # flip an alpha sign in the top restriction: item (i) must fail at d=2
    entries[(2, 0, 2)] = bar_involution(entries[(2, 0, 2)])
    corrupted = EulerDataTable(tbl.n, tbl.d_max, ring, entries, tbl.omega_restrictions)
    report = check_reciprocity(corrupted)
    failed = {(r.d, r.i) for r in report.failures if "item (i)" in r.witness}
    assert (2, 0) in failed


def test_reciprocity_report_pins_failures_and_inconclusive():
    # (2, 1, 0) is doubled, so items (i)-(iii) fail where it enters; the
    # pole added to (1, 0, 0) dies at alpha = (lam0 - lam1)/1, so items
    # (ii) and (iii) that substitute it there are inconclusive.
    tbl = to_table(build_hypergeom_data(MULTICOVER), 2)
    ring = tbl.ring
    entries = dict(tbl.entries)
    entries[(2, 1, 0)] = entries[(2, 1, 0)] * 2
    pole = RationalFunction(ring.one, ring.var("lam0") - ring.var("lam1") - ring.var("alpha"))
    entries[(1, 0, 0)] = entries[(1, 0, 0)] + pole
    corrupted = EulerDataTable(tbl.n, tbl.d_max, ring, entries, tbl.omega_restrictions)
    expected = (
        '{"check": "reciprocity", "n": 1, "d_max": 2, "results": ['
        '{"d": 1, "i": 0, "r": 1, "status": "fail", '
        '"witness": "item (i): lhs=1; rhs=(lam0 - lam1 + alpha + 1) / (lam0 - lam1 + alpha)"}, '
        '{"d": 1, "i": 1, "r": 1, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 0, "r": 2, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 1, "r": 2, "status": "fail", '
        '"witness": "item (i): lhs=lam1^2 + 2*lam1*alpha + alpha^2'
        '; rhs=2*lam1^2 + 4*lam1*alpha + 2*alpha^2"}, '
        '{"d": 1, "i": 0, "r": 1, "status": "inconclusive", '
        '"witness": "item (ii): substitution for \'alpha\' produced a zero denominator"}, '
        '{"d": 1, "i": 1, "r": 0, "status": "inconclusive", '
        '"witness": "item (ii): substitution for \'alpha\' produced a zero denominator"}, '
        '{"d": 2, "i": 0, "r": 1, "status": "fail", "witness": "item (ii): j=1"}, '
        '{"d": 2, "i": 1, "r": 0, "status": "fail", "witness": "item (ii): j=0"}, '
        '{"d": 1, "i": 0, "r": 1, "status": "pass", "witness": ""}, '
        '{"d": 1, "i": 1, "r": 1, "status": "inconclusive", '
        '"witness": "item (iii): j=0: substitution for \'alpha\' produced a zero denominator"}, '
        '{"d": 2, "i": 0, "r": 1, "status": "fail", "witness": "item (iii): j=1"}, '
        '{"d": 2, "i": 1, "r": 1, "status": "inconclusive", '
        '"witness": "item (iii): j=0: substitution for \'alpha\' produced a zero denominator"}, '
        '{"d": 2, "i": 0, "r": 2, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 1, "r": 2, "status": "pass", "witness": ""}'
        '], "all_pass": false}')
    assert check_reciprocity(corrupted).to_json() == expected


def corrupted_multicover():
    """The multicover table at d_max = 2, and a copy in which (2, 1, 0)
    is multiplied by 1 + alpha and (1, 0, 0) gets a pole that dies at
    alpha = (lam0 - lam1)/1."""
    tbl = to_table(build_hypergeom_data(MULTICOVER), 2)
    ring = tbl.ring
    entries = dict(tbl.entries)
    entries[(2, 1, 0)] = entries[(2, 1, 0)] * RationalFunction(ring.one + ring.var("alpha"))
    pole = RationalFunction(ring.one, ring.var("lam0") - ring.var("lam1") - ring.var("alpha"))
    entries[(1, 0, 0)] = entries[(1, 0, 0)] + pole
    return tbl, EulerDataTable(tbl.n, tbl.d_max, ring, entries, tbl.omega_restrictions)


@pytest.mark.parametrize("check, expected", [
    ("gluing", (
        '{"check": "gluing", "n": 1, "d_max": 2, "results": ['
        '{"d": 1, "i": 0, "r": 0, "status": "pass", "witness": ""}, '
        '{"d": 1, "i": 0, "r": 1, "status": "fail", '
        '"witness": "lhs=(1) / (lam0^2); rhs=(lam0 - lam1 + alpha + 1) / (lam0^3 -'
        ' lam0^2*lam1 + lam0^2*alpha)"}, '
        '{"d": 1, "i": 1, "r": 0, "status": "pass", "witness": ""}, '
        '{"d": 1, "i": 1, "r": 1, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 0, "r": 0, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 0, "r": 1, "status": "fail", '
        '"witness": "lhs=(lam0^2) / (lam0^2); rhs=(lam0^2 - 2*lam0*lam1 + lam1^2 -'
        ' alpha^2 + 2*lam0 - 2*lam1 + 1) / (lam0^2 - 2*lam0*lam1 + lam1^2 - alpha^2)"}, '
        '{"d": 2, "i": 0, "r": 2, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 1, "r": 0, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 1, "r": 1, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 1, "r": 2, "status": "fail", '
        '"witness": "lhs=(lam1^2 + 2*lam1*alpha + alpha^2) / (lam1^2);'
        ' rhs=(-lam1^2*alpha - 2*lam1*alpha^2 - alpha^3 + lam1^2 + 2*lam1*alpha +'
        ' alpha^2) / (lam1^2)"}'
        '], "all_pass": false}')),
    ("linked", (
        '{"check": "linking", "n": 1, "d_max": 2, "results": ['
        '{"d": 1, "i": 0, "r": 1, "status": "inconclusive", '
        '"witness": "substitution for \'alpha\' produced a zero denominator"}, '
        '{"d": 1, "i": 1, "r": 0, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 0, "r": 1, "status": "pass", "witness": ""}, '
        '{"d": 2, "i": 1, "r": 0, "status": "fail", '
        '"witness": "j=0: residue=-1/8*lam0^3 - 1/8*lam0^2*lam1 + 1/8*lam0*lam1^2 +'
        ' 1/8*lam1^3"}'
        '], "all_pass": false}')),
    ("degree_bound", (
        '{"check": "degree-bound", "n": 1, "d_max": 2, "results": ['
        '{"d": 1, "i": 0, "r": 0, "status": "inconclusive", '
        '"witness": "denominator involves alpha: lam0 - lam1 - alpha"}, '
        '{"d": 1, "i": 1, "r": 0, "status": "pass", "witness": "deg=0 bound=0"}, '
        '{"d": 2, "i": 0, "r": 0, "status": "pass", "witness": "deg=2 bound=2"}, '
        '{"d": 2, "i": 1, "r": 0, "status": "fail", "witness": "deg=3 bound=2"}'
        '], "all_pass": false}')),
], ids=["gluing", "linked", "degree_bound"])
def test_report_pins_failures_and_inconclusive(check, expected):
    # gluing fails where (2, 1, 0) or the pole enters; linking is
    # inconclusive where the pole dies and fails at (2, 1); the degree
    # bound is inconclusive on the pole's alpha denominator and fails at
    # (2, 1), whose alpha-degree rose to 3
    tbl, corrupted = corrupted_multicover()
    report = {"gluing": lambda: check_gluing(corrupted),
              "linked": lambda: check_linked(corrupted, tbl),
              "degree_bound": lambda: check_degree_bound(corrupted)}[check]()
    assert report.to_json() == expected


def test_gluing_with_x_extension():
    report = check_gluing(to_table(build_hypergeom_data(LOCAL_P2, with_x=True), 2))
    assert report.all_pass
    report = check_gluing(to_table(build_hypergeom_data(LINE_P1, with_x=True), 2))
    assert report.all_pass


# ---------------------------------------------------------------------
# the expanded oracle: the data, table and checks as they were before
# tables kept their values factored, on RationalFunctions throughout


def expanded_data_table(st, d_max, with_x=False, rule=None):
    """The table of st as to_table built it by expansion: P_d as one
    polynomial (or rule(d, ring)), substituted at each weight."""
    ring = algebra.weight_ring(st.n)
    kappa, alpha = ring.var("kappa"), ring.var("alpha")
    x = ring.var("x") if with_x else ring.zero

    def hypergeom(d, ring):
        p = ring.one
        for l in st.convex:
            for m in range(l * d + 1):
                p = p * (x + l * kappa - m * alpha)
        for k in st.concave:
            for m in range(1, k * d):
                p = p * (x - k * kappa + m * alpha)
        return p

    def omega(i):
        lam = ring.var(f"lam{i}")
        if with_x:
            return RationalFunction(math.prod((x + l * lam for l in st.convex), start=ring.one),
                                    math.prod((x - k * lam for k in st.concave), start=ring.one))
        om = omega_class(st)
        h = om.h_exponent
        if h >= 0:
            return RationalFunction(ring.const(om.scalar) * lam ** h)
        return RationalFunction(ring.const(om.scalar), lam ** (-h))

    polys = {d: (rule or hypergeom)(d, ring) for d in range(1, d_max + 1)}
    entries = {(d, i, r): RationalFunction(polys[d].substitute(
                   {"kappa": ring.var(f"lam{i}") + r * alpha}))
               for d, i, r in _grid(d_max, range(st.n + 1), _upto)}
    return EulerDataTable(st.n, d_max, ring, entries, {i: omega(i) for i in range(st.n + 1)})


def oracle_gluing(tbl):
    report = VerificationReport("gluing", tbl.n, tbl.d_max)
    for d, i, r in _grid(tbl.d_max, range(tbl.n + 1), _upto):
        lhs = tbl.omega_restrictions[i] * tbl.entry(d, i, r)
        rhs = bar_involution(tbl.entry(r, i, 0)) * tbl.entry(d - r, i, 0)
        _verdict(report, (d, i, r), lambda: rf_equal(lhs, rhs),
                 lambda: f"lhs={lhs}; rhs={rhs}")
    return report


def oracle_reciprocity(tbl):
    report = VerificationReport("reciprocity", tbl.n, tbl.d_max)
    ring = tbl.ring
    points = range(tbl.n + 1)

    @functools.cache
    def at(d, k, j, i, r):
        return tbl.entry(d, k, 0).substitute({"alpha": polynomial_alpha(ring, j, i, r)})

    for d, i in _grid(tbl.d_max, points):
        lhs, rhs = tbl.entry(d, i, d), bar_involution(tbl.entry(d, i, 0))
        _verdict(report, (d, i, d), lambda: rf_equal(lhs, rhs),
                 lambda: f"item (i): lhs={lhs}; rhs={rhs}")
    for d, i, j in _grid(tbl.d_max, points, points):
        if j != i:
            _verdict(report, (d, i, j), lambda: rf_equal(at(d, j, j, i, d), at(d, i, i, j, d)),
                     lambda: f"item (ii): j={j}", "item (ii): ")
    for d, r, i, j in _grid(tbl.d_max, lambda d: range(1, d + 1), points, points):
        if j != i:
            _verdict(report, (d, i, r),
                     lambda: rf_equal(at(0, i, j, i, r) * at(d, j, j, i, r),
                                      at(r, j, j, i, r) * at(d - r, i, j, i, r)),
                     lambda: f"item (iii): j={j}", f"item (iii): j={j}: ")
    return report


def alpha_degree(p):
    """The largest alpha exponent of a polynomial's terms; NEG_INF for 0."""
    ia = p.ring.index["alpha"]
    return max((e[ia] for e in p.terms), default=NEG_INF)


def oracle_degree_bound(tbl):
    report = VerificationReport("degree-bound", tbl.n, tbl.d_max)
    for d, i in _grid(tbl.d_max, range(tbl.n + 1)):
        value = tbl.entry(d, i, 0)
        bound = (tbl.n + 1) * d - 2
        if value.is_zero():
            ok, text = True, "deg=-inf"
        elif alpha_degree(value.den) > 0:
            ok, text = None, f"denominator involves alpha: {value.den}"
        else:
            deg = alpha_degree(value.num)
            ok, text = deg <= bound, f"deg={deg} bound={bound}"
        _verdict(report, (d, i, 0), lambda: ok, lambda: text, note=text)
    return report


ORACLES = {check_gluing: oracle_gluing, check_reciprocity: oracle_reciprocity,
           check_degree_bound: oracle_degree_bound}


def assert_reports_match(factored, oracle_table):
    """Each check's JSON report on the factored table equals the
    oracle's on the expanded one; returns the reports."""
    reports = []
    for check, oracle in ORACLES.items():
        reports.append(check(factored))
        assert reports[-1].to_json() == oracle(oracle_table).to_json(), check.__name__
    return reports


def test_oracle_table_equals_expanded_table():
    for st in (MULTICOVER, LOCAL_P2, SplittingType(3, (2,), (2,))):
        for with_x in (False, True):
            tbl = to_table(build_hypergeom_data(st, with_x=with_x), 3)
            oracle = expanded_data_table(st, 3, with_x)
            # byte-identical expansions, not just equal rational functions
            assert {k: str(v) for k, v in tbl.entries.items()} == \
                {k: str(v) for k, v in oracle.entries.items()}
            assert {i: str(v) for i, v in tbl.omega_restrictions.items()} == \
                {i: str(v) for i, v in oracle.omega_restrictions.items()}


@hs.composite
def types_and_dmax(draw):
    """A splitting type on P^1..P^4 with degrees <= 5, and a d_max <= 4
    at which P_dmax has at most 30 linear factors (or d_max = 1), so the
    expanded oracle stays fast."""
    st = draw(hs.builds(SplittingType, hs.integers(1, 4),
                        hs.lists(hs.integers(1, 5), max_size=2),
                        hs.lists(hs.integers(1, 5), max_size=2)))
    top = max([1] + [d for d in range(1, 5) if st.linear_factors(d) <= 30])
    return st, draw(hs.integers(1, top))


@settings(max_examples=40, deadline=None)
@given(types_and_dmax(), hs.booleans())
def test_factored_reports_match_the_expanded_oracle(case, with_x):
    st, d_max = case
    tbl = to_table(build_hypergeom_data(st, with_x=with_x), d_max)
    assert_reports_match(tbl, expanded_data_table(st, d_max, with_x))


def test_checks_on_factored_tables_expand_nothing(monkeypatch):
    # every check runs on the factors, linking too, where no summand is
    # formed; only a printed witness or the public accessors expand a value
    calls = []
    expand = Factored.expand
    monkeypatch.setattr(Factored, "expand", lambda self: calls.append(1) or expand(self))
    for st in (MULTICOVER, LOCAL_P2, SplittingType(4, (5,), ())):
        for with_x in (False, True):
            tbl = to_table(build_hypergeom_data(st, with_x=with_x), 3)
            for check in (check_gluing, check_reciprocity, check_degree_bound):
                check(tbl)
            assert check_mirror_linked(tbl).all_pass
    assert calls == []
    tbl.entry(1, 0, 0)
    tbl.entry(1, 0, 0)
    assert len(calls) == 2  # memoized: the second call returns the first expansion
    assert tbl.entry(1, 0, 0) is tbl.entry(1, 0, 0)


def pole_tables():
    """The multicover table at d_max = 2, factored and expanded, with
    (1, 0, 0) divided by lam0 - lam1 - alpha, a form that the binding
    alpha = (lam0 - lam1)/1 sends to zero."""
    tbl = to_table(build_hypergeom_data(MULTICOVER), 2)
    ring = tbl.ring
    pole = Factored(ring, den=[ring.var("lam0") - ring.var("lam1") - ring.var("alpha")])
    entries = {key: tbl.value(*key) for key in _grid(2, range(2), _upto)}
    entries[(1, 0, 0)] = entries[(1, 0, 0)] * pole
    omega = {i: tbl.value(0, i, 0) for i in range(2)}
    factored = EulerDataTable(1, 2, ring, entries, omega)
    expanded_table = EulerDataTable(1, 2, ring, {k: expanded(v) for k, v in entries.items()},
                                    {i: expanded(v) for i, v in omega.items()})
    return factored, expanded_table


def test_vanishing_denominator_factor_is_inconclusive():
    factored, expanded_table = pole_tables()
    gluing, reciprocity, degree = assert_reports_match(factored, expanded_table)
    zero = "substitution for 'alpha' produced a zero denominator"
    assert {(r.d, r.i, r.r, r.witness) for r in reciprocity.inconclusive} == {
        (1, 0, 1, f"item (ii): {zero}"), (1, 1, 0, f"item (ii): {zero}"),
        (1, 1, 1, f"item (iii): j=0: {zero}"), (2, 1, 1, f"item (iii): j=0: {zero}")}
    assert [(r.d, r.i, r.status, r.witness) for r in degree.results if r.d == 1] == [
        (1, 0, "inconclusive", "denominator involves alpha: lam0 - lam1 - alpha"),
        (1, 1, "pass", "deg=0 bound=0")]
    assert [(r.d, r.i, r.r) for r in gluing.failures] == [(1, 0, 1), (2, 0, 1)]
    # linking decides on the factors what it decides on the expansions
    linking = check_mirror_linked(factored)
    assert linking.to_json() == check_mirror_linked(expanded_table).to_json()
    assert [(r.d, r.i, r.r, r.witness) for r in linking.inconclusive] == [(1, 0, 1, zero)]
    with pytest.raises(algebra.SubstitutionError, match=zero):
        factored.value(1, 0, 0).substitute({"alpha": factored.ring.var("lam0")
                                            - factored.ring.var("lam1")})


def mutated_data(st, d, mutate):
    """The hypergeometric data of st with the linear factors of P_d, in
    build_hypergeom_data's order, passed through mutate; and the same
    P_e as expanded polynomials, for the oracle."""
    def forms(e, ring):
        kappa, alpha = ring.var("kappa"), ring.var("alpha")
        out = ([l * kappa - m * alpha for l in st.convex for m in range(l * e + 1)]
               + [-k * kappa + m * alpha for k in st.concave for m in range(1, k * e)])
        return mutate(out, ring) if e == d else out

    data = build_hypergeom_data(st)
    return (EulerDataClosed(st.n, lambda e, ring: Factored(ring, forms(e, ring)),
                            data._omega_restriction),
            lambda e, ring: math.prod(forms(e, ring), start=ring.one))


@pytest.mark.parametrize("st, d", [(LOCAL_P2, 2), (SplittingType(3, (2,), (2,)), 2),
                                   (SplittingType(4, (5,), ()), 1)])
@pytest.mark.parametrize("mutation", ["drop", "shift"])
def test_mutated_data_fails_gluing_and_reciprocity(st, d, mutation):
    # drop P_d's second linear factor, or shift its m by one; both break
    # the data, and the factored checks report what the oracle reports
    def mutate(forms, ring):
        if mutation == "drop":
            return forms[:1] + forms[2:]
        return forms[:1] + [forms[1] - ring.var("alpha")] + forms[2:]

    data, rule = mutated_data(st, d, mutate)
    tbl = to_table(data, 2)
    gluing, reciprocity, _ = assert_reports_match(tbl, expanded_data_table(st, 2, rule=rule))
    assert gluing.failures and reciprocity.failures


# ---------------------------------------------------------------------
# linking and degree bounds


def test_linked_self():
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 3)
    assert check_linked(tbl, tbl).all_pass


def test_linked_mirror_transform():
    # the canonical shift produces a linked partner (preservation of
    # linked values under the mirror-group action)
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 3)
    series = build_hypergeom_series(LOCAL_P2, 3)
    _, shift = compute_normalization(series, LOCAL_P2)
    transformed = mirror_transform(tbl.restriction_sequence(), None, shift)
    assert check_linked(tbl, lagrange_map(transformed)).all_pass


def composite_linked(tbl, shift):
    """The linking report of tbl against its mirror transform by shift,
    on the composite route."""
    return check_linked(tbl, lagrange_map(mirror_transform(tbl.restriction_sequence(), None, shift)))


def test_linked_fails_when_transform_factor_stops_short(monkeypatch):
    # a mutated mirror transform whose top block, m = d_max = 3, drops its
    # (lam_i - lam_j - 3*alpha) factors: every summand of P_3(lam_i) then
    # survives the binding alpha = (lam_i - lam_j)/3, so linking fails at
    # d = 3 and passes below, on the recorded route and point by point
    product_factor = eulerdata._product_factor

    def short_factor(ring, n, i, r, d):
        return product_factor(ring, n, i, r, d if d < 3 else r)

    monkeypatch.setattr(eulerdata, "_product_factor", short_factor)
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 3)
    _, shift = compute_normalization(build_hypergeom_series(LOCAL_P2, 3), LOCAL_P2)
    for table in (tbl, rebuilt(tbl)):
        report = composite_linked(table, shift)
        assert sorted((r.d, r.status) for r in report.results) == \
            [(d, "pass") for d in (1, 2) for _ in range(6)] + [(3, "fail")] * 6


# sha1 prefix of the `mirrorcalc verify linking` stdout (the report's
# to_json(indent=2) and a newline) for P^n at --dmax d_max; the same with
# and without --with-x, since every result passes.  --dmax 1-4 come from
# the composite route of check_linked, lagrange_map and mirror_transform,
# 5 and 6 from a check that ran the transform at each binding
LINKING_DIGESTS = {
    (1, 1): "88a77b3b211f", (1, 2): "2c5785384d50", (1, 3): "7b1e3f992ae7", (1, 4): "cbc55b178966",
    (1, 5): "3c149dce28cd", (1, 6): "654fe23ee5ab",
    (2, 1): "a28b16fc1e6c", (2, 2): "d10319bdea20", (2, 3): "f0ac9192c2a0", (2, 4): "866931687fc9",
    (2, 5): "94b84cdf9fee", (2, 6): "c08ca19b5b45",
    (3, 1): "bf9e16c06f61", (3, 2): "bc1356b32602", (3, 3): "c28f7c1ebcd5", (3, 4): "0fe5d9b3a917",
    (3, 5): "051296e7b03b", (3, 6): "3d717da284ce",
    (4, 1): "0ab3551a4d95", (4, 2): "bf564d077255", (4, 3): "9faee9c9403a", (4, 4): "9a5b392d52bb",
    (4, 5): "2c295b8e83d1", (4, 6): "de581d0a39f5",
}


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_mirror_linked_matches_composite(preset):
    # the closed form gives the composite's report byte for byte: live at
    # --dmax <= 3, with the canonical shift for the critical type and a
    # unit one-term shift with x, and through the pinned digests at 1-6
    # (at --dmax 4 the composite takes up to 0.9 s of CPU per preset,
    # p4-concavex with and without x, on a 2-vCPU VM)
    n, bundle, _ = cli.PRESETS[preset]
    st = cli.parse_bundle(bundle, n)
    for with_x in (False, True):
        for d_max in range(1, cli.MAX_DMAX + 1):
            tbl = to_table(build_hypergeom_data(st, with_x=with_x), d_max)
            text = check_mirror_linked(tbl).to_json(indent=2)
            digest = hashlib.sha1((text + "\n").encode()).hexdigest()
            assert digest[:12] == LINKING_DIGESTS[(n, d_max)], (with_x, d_max)
            if d_max <= 3:
                shift = (ScalarQSeries.q(d_max) if with_x else
                         compute_normalization(build_hypergeom_series(st, d_max), st)[1])
                assert text == composite_linked(tbl, shift).to_json(indent=2)


@hs.composite
def linking_cases(draw):
    """A splitting type on P^1..P^3 with degrees <= 4, d_max in {1, 2},
    with_x, and a shift g with rational coefficients and g_0 = 0."""
    st = draw(hs.builds(SplittingType, hs.integers(1, 3),
                        hs.lists(hs.integers(1, 4), max_size=2),
                        hs.lists(hs.integers(1, 4), max_size=2)))
    d_max = draw(hs.integers(1, 2))
    coeff = hs.fractions(min_value=-5, max_value=5, max_denominator=6)
    shift = [0] + draw(hs.lists(coeff, min_size=d_max, max_size=d_max))
    return st, d_max, draw(hs.booleans()), shift


@settings(max_examples=25, deadline=None)
@given(linking_cases())
def test_mirror_linked_matches_composite_on_random_shifts(case):
    st, d_max, with_x, shift = case
    tbl = to_table(build_hypergeom_data(st, with_x=with_x), d_max)
    assert check_mirror_linked(tbl).to_json() == composite_linked(tbl, shift).to_json()


def test_mirror_linked_fails_where_omega_involves_alpha():
    # a hand-built table whose Omega at p_1 carries lam1 + alpha, so that
    # bar(Omega)/Omega is not 1: linking fails at i = 1 and nowhere else,
    # as on the composite route, with and without x; with no shift the
    # witnesses agree too, while a shift leaves the composite's residues
    # less reduced
    for with_x in (False, True):
        tbl = to_table(build_hypergeom_data(LOCAL_P2, with_x=with_x), 2)
        ring = tbl.ring
        omega = {i: tbl.value(0, i, 0) for i in range(3)}
        omega[1] = omega[1] * Factored(ring, [ring.var("lam1") + ring.var("alpha")])
        entries = {key: tbl.value(*key) for key in _grid(2, range(3), _upto)}
        hand_built = EulerDataTable(2, 2, ring, entries, omega)
        report = check_mirror_linked(hand_built)
        assert {(r.d, r.i) for r in report.failures} == {(1, 1), (2, 1)}
        assert len(report.failures) == 4 and not report.inconclusive
        assert report.to_json() == composite_linked(hand_built, None).to_json()
        shifted = composite_linked(hand_built, [0, 2, 1])
        assert [r.status for r in shifted.results] == [r.status for r in report.results]


def test_mirror_linked_runs_no_transform(monkeypatch):
    # the closed form needs neither the q-series powers of a shift nor a
    # product factor of the transform
    def refuse(*args):
        raise AssertionError("the mirror transform ran")

    monkeypatch.setattr(eulerdata, "mirror_powers", refuse)
    monkeypatch.setattr(eulerdata, "_product_factor", refuse)
    st = SplittingType(4, (5,), ())
    for with_x in (False, True):
        tbl = to_table(build_hypergeom_data(st, with_x=with_x), 4)
        report = check_mirror_linked(tbl)
        assert report.all_pass and len(report.results) == 4 * 5 * 4


def test_mirror_transform_checks_the_shift():
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 3)
    with pytest.raises(EulerDataError, match="truncated below d_max"):
        mirror_transform(tbl.restriction_sequence(), None, ScalarQSeries.q(2))
    with pytest.raises(EulerDataError, match="zero constant term"):
        mirror_transform(tbl.restriction_sequence(), None, [1, 1])
    assert check_mirror_linked(tbl).to_json() == check_linked(tbl, tbl).to_json()
    assert check_linked(tbl, tbl).to_json() == per_pair(check_linked, tbl, tbl).to_json()


def test_linked_detects_shift():
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 2)
    entries = dict(tbl.entries)
    entries[(1, 0, 0)] = entries[(1, 0, 0)] + RationalFunction(tbl.ring.one)
    shifted = EulerDataTable(tbl.n, tbl.d_max, tbl.ring, entries, tbl.omega_restrictions)
    report = check_linked(tbl, shifted)
    assert not report.all_pass
    assert all(r.d == 1 and r.i == 0 for r in report.failures)


def test_linked_reports_inconclusive_on_vanishing_denominator():
    tbl = to_table(build_hypergeom_data(MULTICOVER), 1)
    ring = tbl.ring
    entries = dict(tbl.entries)
    # a denominator that dies exactly at alpha = (lam0 - lam1)/1
    pole = RationalFunction(ring.one, ring.var("lam0") - ring.var("lam1") - ring.var("alpha"))
    entries[(1, 0, 0)] = entries[(1, 0, 0)] + pole
    degenerate = EulerDataTable(tbl.n, tbl.d_max, ring, entries, tbl.omega_restrictions)
    report = check_linked(degenerate, tbl)
    statuses = {(r.d, r.i, r.r): r.status for r in report.results}
    assert statuses[(1, 0, 1)] == "inconclusive"


def test_degree_bound_multicover_meets_bound():
    # deg = 2d - 2 meets the bound (n+1)d - 2 exactly
    report = check_degree_bound(to_table(build_hypergeom_data(MULTICOVER), 3))
    assert report.all_pass
    assert {r.witness for r in report.results if r.d == 3} == {"deg=4 bound=4"}


def test_degree_bound_local_p2_fails():
    report = check_degree_bound(to_table(build_hypergeom_data(LOCAL_P2), 3))
    assert not report.all_pass
    for r in report.results:
        assert r.status == "fail" and f"deg={3 * r.d - 1}" in r.witness


def test_degree_bound_prints_the_alpha_denominator_of_each_point():
    # a lam-free rule whose P_1 has the denominator kappa + alpha: the
    # table holds a record, and the degree bound, which decides at p_0 for
    # each p_k, reads P_1 at each p_i to print the denominator there
    def rule(d, ring):
        kappa = ring.var("kappa")
        return Factored(ring, [kappa] * d, [kappa + ring.var("alpha")] * (d == 1))

    data = EulerDataClosed(2, rule, lambda i, ring: Factored(ring, [ring.var(f"lam{i}")]))
    tbl = to_table(data, 2)
    assert tbl._symmetric
    report = check_degree_bound(tbl)
    assert [(r.d, r.i, r.status, r.witness) for r in report.results] == [
        (1, i, "inconclusive", f"denominator involves alpha: lam{i} + alpha") for i in range(3)
    ] + [(2, i, "pass", "deg=0 bound=4") for i in range(3)]
    assert report.to_json() == check_degree_bound(rebuilt(tbl)).to_json()


@pytest.mark.parametrize("with_x", [False, True])
def test_degree_bound_on_a_recorded_table_makes_no_entry_off_p0(monkeypatch, with_x):
    # the quintic at d_max 4: to_table decides its record by the 4 + 3
    # swaps of Omega at p_0, and the degree bound decides at p_0 and reads
    # the record: it swaps nothing, and gives the report of the table
    # through the constructor
    swapped, transposition = [], eulerdata.transposition
    monkeypatch.setattr(eulerdata, "transposition",
                        lambda value, a, b: swapped.append((value, b)) or transposition(value, a, b))
    tbl = to_table(build_hypergeom_data(QUINTIC, with_x=with_x), 4)
    assert all(v is tbl.value(0, 0, 0) for v, _ in swapped)
    assert sorted(b for _, b in swapped) == [1, 2, 2, 3, 3, 4, 4]
    swapped.clear()
    report = check_degree_bound(tbl)
    assert swapped == []
    monkeypatch.undo()
    assert report.to_json() == check_degree_bound(rebuilt(tbl)).to_json()


# ---------------------------------------------------------------------
# the Lagrange map


def test_lagrange_of_zero_sequence():
    seq0 = to_table(build_hypergeom_data(LINE_P1), 2).restriction_sequence()
    values = {key: (val if key[0] == 0 else RationalFunction(seq0.ring.zero))
              for key, val in seq0.values.items()}
    seq = type(seq0)(seq0.n, seq0.d_max, seq0.ring, values)
    tbl = lagrange_map(seq)
    assert all(v.is_zero() for v in tbl.entries.values())


def test_lagrange_inverts_restriction():
    # L(I(Q)) = Q on Euler data, and I(L(B)) = B on sequences
    for data in (build_hypergeom_data(LINE_P1), build_hypergeom_data(LOCAL_P2),
                 endpoint_weights_data(2)):
        tbl = to_table(data, 3)
        rebuilt = lagrange_map(tbl.restriction_sequence())
        assert tables_equal(rebuilt, tbl)
        seq = tbl.restriction_sequence()
        roundtrip = lagrange_map(seq).restriction_sequence()
        assert all(rf_equal(roundtrip.values[key], seq.values[key])
                   for key in seq.values)


def test_lagrange_constant_sequence():
    # B_0 = B_1 = Omega: entry (1,i,0) = Omega(lam_i), entry (1,i,1) = bar
    seq0 = to_table(build_hypergeom_data(LOCAL_P2), 1).restriction_sequence()
    values = {(0, i): seq0.values[(0, i)] for i in range(3)}
    values.update({(1, i): seq0.values[(0, i)] for i in range(3)})
    seq = type(seq0)(seq0.n, 1, seq0.ring, values)
    tbl = lagrange_map(seq)
    for i in range(3):
        omega_i = seq0.values[(0, i)]
        assert rf_equal(tbl.entry(1, i, 0), omega_i)
        assert rf_equal(tbl.entry(1, i, 1), bar_involution(omega_i))


# ---------------------------------------------------------------------
# the mirror-group action


def test_mirror_transform_trivial():
    seq = to_table(build_hypergeom_data(LOCAL_P2), 2).restriction_sequence()
    out = mirror_transform(seq, None, None)
    assert all(rf_equal(out.values[key], seq.values[key]) for key in seq.values)


def test_mirror_transform_first_order_shift():
    # g = c q at d = 1: the new value is B_1 - (lam_i c / alpha) * Omega_i
    # * prod_j (lam_i - lam_j - alpha)
    c = Fraction(3, 2)
    seq = to_table(build_hypergeom_data(LOCAL_P2), 2).restriction_sequence()
    out = mirror_transform(seq, None, [0, c])
    ring = seq.ring
    alpha = ring.var("alpha")
    for i in range(3):
        lam_i = ring.var(f"lam{i}")
        prod = ring.one
        for j in range(3):
            prod = prod * (lam_i - ring.var(f"lam{j}") - alpha)
        correction = (RationalFunction(lam_i * c, alpha) * seq.values[(0, i)]
                      * RationalFunction(prod))
        assert rf_equal(out.values[(1, i)], seq.values[(1, i)] - correction)


def test_mirror_transform_preserves_linked_values():
    # the correction vanishes at alpha = (lam_i - lam_j)/d for every j != i
    seq = to_table(build_hypergeom_data(LOCAL_P2), 2).restriction_sequence()
    out = mirror_transform(seq, None, [0, Fraction(5)])
    ring = seq.ring
    for d in (1, 2):
        for i in range(3):
            diff = out.values[(d, i)] - seq.values[(d, i)]
            for j in range(3):
                if j == i:
                    continue
                binding = (ring.var(f"lam{i}") - ring.var(f"lam{j}")) * Fraction(1, d)
                assert diff.substitute({"alpha": binding}).is_zero()


def test_mirror_transform_inverse_composition():
    from mirrorcalc.qseries import ScalarQSeries, qseries_reversion

    d_max = 2
    seq = to_table(build_hypergeom_data(LOCAL_P2), d_max).restriction_sequence()
    g = ScalarQSeries(d_max, (0, Fraction(2), Fraction(-1, 2)))
    forward = ScalarQSeries.q(d_max) * g.exp()
    g_inverse = -g.compose(qseries_reversion(forward))
    out = mirror_transform(mirror_transform(seq, None, g), None, g_inverse)
    assert all(rf_equal(out.values[key], seq.values[key]) for key in seq.values)


def test_mirror_transform_multiplier():
    # a pure multiplier e^(f/alpha) with f = c q changes B_1 by
    # (c/alpha) * Omega_i * prod_j(lam_i - lam_j - alpha)
    seq = to_table(build_hypergeom_data(LOCAL_P2), 1).restriction_sequence()
    ring = seq.ring
    c = ring.const(Fraction(4))
    out = mirror_transform(seq, [ring.zero, c], None)
    alpha = ring.var("alpha")
    for i in range(3):
        lam_i = ring.var(f"lam{i}")
        prod = ring.one
        for j in range(3):
            prod = prod * (lam_i - ring.var(f"lam{j}") - alpha)
        correction = (RationalFunction(c, alpha) * seq.values[(0, i)]
                      * RationalFunction(prod))
        assert rf_equal(out.values[(1, i)], seq.values[(1, i)] + correction)


# ---------------------------------------------------------------------
# decided by orbit: reciprocity and linking decide the identities at
# i = 0, j = 1 and carry them to every pair of a point-symmetric table


def rebuilt(tbl):
    """tbl through the EulerDataTable, or RestrictionSequence, constructor:
    every value made, and no symmetry record, so each check, transform or
    Lagrange map decides it point by point."""
    if isinstance(tbl, RestrictionSequence):
        return RestrictionSequence(tbl.n, tbl.d_max, tbl.ring, dict(tbl.values))
    keys = _grid(tbl.d_max, range(tbl.n + 1), _upto)
    return EulerDataTable(tbl.n, tbl.d_max, tbl.ring, {key: tbl.value(*key) for key in keys},
                          {i: tbl.value(0, i, 0) for i in range(tbl.n + 1)})


def per_pair(check, *tables):
    """check(*tables) on the per-pair (per-point) route: each table
    rebuilt, and each sequence, so that none holds a record of its
    symmetry and every value is made before the patch, under which any
    swap would give None."""
    tables = [rebuilt(t) if isinstance(t, (EulerDataTable, RestrictionSequence)) else t
              for t in tables]
    with mock.patch.object(eulerdata, "transposition", lambda value, a, b: None):
        return check(*tables)


def ratio_of_forms(draw, ring, names, point=None):
    """A Factored ratio of 0-2 nonzero linear forms over 0-2, in names,
    with small integer coefficients; given a point k, half of the forms
    are lam_k - lam_b - m*alpha, which the binding alpha = (lam_k -
    lam_b)/m sends to zero."""
    def form():
        if point is not None and draw(hs.booleans()):
            b = draw(hs.sampled_from([i for i in range(ring.nvars - 3) if i != point]))
            return (ring.var(f"lam{point}") - ring.var(f"lam{b}")
                    - draw(hs.integers(1, 2)) * ring.var("alpha"))
        return draw(hs.lists(hs.integers(-2, 2), min_size=len(names), max_size=len(names))
                    .map(lambda cs: sum((c * ring.var(v) for c, v in zip(cs, names)), ring.zero))
                    .filter(lambda p: not p.is_zero()))

    return Factored(ring, [form() for _ in range(draw(hs.integers(0, 2)))],
                    [form() for _ in range(draw(hs.integers(0, 2)))])


def perturbed(tbl, key, ratio):
    """tbl with the value at key = (d, i, r), Omega at d = 0, times ratio."""
    entries = {k: tbl.value(*k) for k in _grid(tbl.d_max, range(tbl.n + 1), _upto)}
    omega = {i: tbl.value(0, i, 0) for i in range(tbl.n + 1)}
    d, i, r = key
    values, at = (omega, i) if d == 0 else (entries, key)
    values[at] = values[at] * (ratio if isinstance(values[at], Factored) else expanded(ratio))
    return EulerDataTable(tbl.n, tbl.d_max, tbl.ring, entries, omega)


@hs.composite
def orbit_cases(draw):
    """(table, checks to run on it) for a random concavex type on
    P^1..P^4, with or without x, and one of four tables: as built; one
    value at a point k != 0 times a random ratio of linear forms; built
    from a rule off by such a ratio at one degree, so point-symmetric and
    wrong at every point; and a Lagrange table of a mirror transform with
    one degree-zero entry perturbed."""
    degrees = hs.lists(hs.integers(1, 3), max_size=2)
    st = draw(hs.builds(SplittingType, hs.integers(1, 4), degrees, degrees))
    with_x, kind = draw(hs.booleans()), draw(hs.sampled_from(["built", "entry", "rule",
                                                              "lagrange"]))
    top = 2 if kind == "lagrange" else 3
    d_max = draw(hs.integers(1, max([1] + [d for d in range(1, top + 1)
                                           if st.linear_factors(d) <= 16])))
    data = build_hypergeom_data(st, with_x=with_x)
    names = [f"lam{i}" for i in range(st.n + 1)] + ["alpha"] + ["x"] * with_x
    if kind == "rule":
        wrong, rule = draw(hs.integers(1, d_max)), data._rule
        data = EulerDataClosed(st.n, lambda d, ring: rule(d, ring) * (
            ratio if d == wrong else Factored(ring)), data._omega_restriction)
        ratio = ratio_of_forms(draw, data.ring, ["kappa", "alpha"] + ["x"] * with_x)
    tbl = to_table(data, d_max)
    checks = [check_reciprocity, check_gluing, check_mirror_linked]
    if kind == "entry":
        d, k = draw(hs.integers(0, d_max)), draw(hs.integers(1, st.n))
        key = (d, k, draw(hs.one_of(hs.just(0), hs.integers(0, d))))
        tbl = perturbed(tbl, key, ratio_of_forms(draw, tbl.ring, names, k))
    elif kind == "lagrange":
        coeff = hs.fractions(min_value=-3, max_value=3, max_denominator=4)
        shift = [0] + draw(hs.lists(coeff, min_size=d_max, max_size=d_max))
        lagrange = lagrange_map(mirror_transform(tbl.restriction_sequence(), None, shift))
        d, i = draw(hs.integers(1, d_max)), draw(hs.integers(0, st.n))
        lagrange = perturbed(lagrange, (d, i, 0), ratio_of_forms(draw, tbl.ring, names, i))
        checks.append(functools.partial(check_linked, tbl))
        tbl = lagrange
    return tbl, checks


@settings(max_examples=60, deadline=None)
@given(orbit_cases())
def test_orbit_route_matches_the_per_pair_route(case):
    # reciprocity, gluing, mirror linking and (on Lagrange tables) the
    # composite linking give the per-pair route's JSON; reciprocity and
    # gluing the oracle's too
    tbl, checks = case
    orbit = [check(tbl).to_json() for check in checks]
    assert orbit == [per_pair(check, tbl).to_json() for check in checks]
    assert orbit[:2] == [oracle_reciprocity(tbl).to_json(), oracle_gluing(tbl).to_json()]


def symmetric_but_for_the_stabilizer():
    """LOCAL_P2 at d_max = 2 with every value at p_i, Omega included,
    times f_i, the image of f_0 = lam0*lam1 under lam_0 <-> lam_i: each
    p_k holds the p_0 values under lam_0 <-> lam_k, but lam_1 <-> lam_2
    moves f_0, so a permutation with 0 -> 0 and 1 -> 2 is no symmetry."""
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 2)
    ring = tbl.ring
    lam = [ring.var(f"lam{i}") for i in range(3)]
    f = {0: Factored(ring, [lam[0], lam[1]]), 1: Factored(ring, [lam[1], lam[0]]),
         2: Factored(ring, [lam[2], lam[1]])}
    entries = {key: tbl.value(*key) * f[key[1]] for key in _grid(2, range(3), _upto)}
    omega = {i: tbl.value(0, i, 0) * f[i] for i in range(3)}
    return EulerDataTable(2, 2, ring, entries, omega)


def test_orbit_route_needs_the_stabilizer_of_p0():
    # item (ii) compares f_j with f_i: equal at i, j = 0, 1, where every
    # representative passes, and unequal wherever 2 is one of them
    report = check_reciprocity(symmetric_but_for_the_stabilizer())
    assert report.to_json() == per_pair(check_reciprocity,
                                        symmetric_but_for_the_stabilizer()).to_json()
    failed = {(r.d, r.i, r.r) for r in report.failures if r.witness.startswith("item (ii)")}
    assert failed == {(d, i, j) for d in (1, 2) for i in range(3) for j in range(3)
                      if i != j and 2 in (i, j)}


@pytest.mark.parametrize("key, ratio", [
    ((2, 4, 0), "den"), ((2, 4, 2), "num"), ((0, 4, 0), "alpha"), ((1, 1, 1), "den"),
], ids=["denominator-at-p_n", "numerator-at-p_n", "omega-at-p_n", "denominator-at-p_1"])
def test_orbit_route_sees_one_changed_value(key, ratio):
    # one value at p_k != 0 times a form, in its numerator or only in its
    # denominator, or Omega at p_n times lam4 + alpha: the table is no
    # longer point-symmetric, and the per-pair route reports what fails
    tbl = to_table(build_hypergeom_data(SplittingType(4, (5,), ())), 2)
    ring = tbl.ring
    form = ring.var("lam4") + ring.var("alpha") if ratio == "alpha" else \
        ring.var("lam0") - 3 * ring.var("alpha")
    changed = perturbed(tbl, key, Factored(ring, *([], [form]) if ratio == "den" else ([form],)))
    for check in (check_reciprocity, check_gluing, check_mirror_linked):
        report = check(changed)
        assert report.to_json() == per_pair(check, changed).to_json()
    assert not check_reciprocity(changed).all_pass


def test_orbit_route_substitutes_a_tenth_as_often(monkeypatch):
    # the per-pair route makes 6630 and 2808 Factored substitutions on
    # O(-11) on P^12 at d_max 6, and the composite route 80 Polynomial
    # ones on the quintic at d_max 2; a silent fall-back fails here
    counts = {}
    moved, substitute = eulerdata._moved, algebra.Polynomial.substitute

    def counted(value, binding, call):
        counts[type(value)] = counts.get(type(value), 0) + 1
        return call(value, binding)

    monkeypatch.setattr(eulerdata, "_moved", lambda value, move: counted(value, move, moved))
    monkeypatch.setattr(algebra.Polynomial, "substitute", lambda p, b: counted(p, b, substitute))

    def substitutions(cls, check, *tables):
        counts.clear()
        assert check(*tables).all_pass
        return counts.get(cls, 0)

    tbl = to_table(build_hypergeom_data(SplittingType(12, (), (11,))), 6)
    assert 0 < substitutions(Factored, check_reciprocity, tbl) <= 663
    assert 0 < substitutions(Factored, check_mirror_linked, tbl) <= 280
    quintic = SplittingType(4, (5,), ())
    tbl = to_table(build_hypergeom_data(quintic), 2)
    _, shift = compute_normalization(build_hypergeom_series(quintic, 2), quintic)
    lagrange = lagrange_map(mirror_transform(tbl.restriction_sequence(), None, shift))
    assert 0 < substitutions(algebra.Polynomial, check_linked, tbl, lagrange) <= 8


# ---------------------------------------------------------------------
# built by orbit: the mirror transform and the Lagrange map compute at
# p_0 and swap lam_0 <-> lam_k for p_k on point-symmetric input


def stored(value):
    """A RationalFunction as stored: its polynomials' ints and denominators."""
    return value.num.ints, value.num.den, value.den.ints, value.den.den


@hs.composite
def transform_cases(draw):
    """(sequence, multiplier, shift) for a random concavex type on P^1..P^4,
    with or without x: the restriction sequence as built, or with one value
    at a point k != 0 times a random ratio of linear forms; a multiplier
    that is zero, symmetric in the lam, or dependent on lam_0; and a random
    shift with rational coefficients."""
    degrees = hs.lists(hs.integers(1, 3), max_size=2)
    st = draw(hs.builds(SplittingType, hs.integers(1, 4), degrees, degrees))
    with_x = draw(hs.booleans())
    d_max = draw(hs.integers(1, max([1] + [d for d in (1, 2) if st.linear_factors(d) <= 16])))
    seq = to_table(build_hypergeom_data(st, with_x=with_x), d_max).restriction_sequence()
    ring = seq.ring
    if draw(hs.booleans()):
        d, k = draw(hs.integers(0, d_max)), draw(hs.integers(1, st.n))
        names = [f"lam{i}" for i in range(st.n + 1)] + ["alpha"] + ["x"] * with_x
        ratio = expanded(ratio_of_forms(draw, ring, names))
        seq = RestrictionSequence(st.n, d_max, ring,
                                  {**seq.values, (d, k): seq.value(d, k) * ratio})
    coeff = hs.sampled_from([-2, -1, Fraction(-1, 3), Fraction(1, 2), 1, 3])
    lam = [ring.var(f"lam{i}") for i in range(st.n + 1)]
    moving = draw(hs.sampled_from([None, sum(lam, ring.zero), lam[0]]))
    multiplier = None if moving is None else [0] + [
        draw(coeff) * moving + draw(coeff) * ring.var("alpha") for _ in range(d_max)]
    shift = [0] + draw(hs.lists(coeff | hs.just(0), min_size=d_max, max_size=d_max))
    return seq, multiplier, shift


@settings(max_examples=25, deadline=None)
@given(transform_cases())
def test_orbit_transform_and_lagrange_match_the_per_point_route(case):
    # every transformed value, and every entry of the Lagrange tables of
    # the sequence and of its transform, is stored as the per-point route
    # stores it, not only equal as a rational function
    seq, multiplier, shift = case

    def forms(seq):
        out = mirror_transform(seq, multiplier, shift)
        return ({key: stored(v) for key, v in out.values.items()},
                [{key: stored(t.value(*key)) for key in _grid(t.d_max, range(t.n + 1), _upto)}
                 for t in (lagrange_map(seq), lagrange_map(out))])

    assert forms(seq) == per_pair(forms, seq)


def test_orbit_transform_builds_one_point(monkeypatch):
    # on the quintic at d_max 2 with the normalization shift, the per-point
    # route builds 10 product factors once every value is read, the blocks
    # m = 1, 2 at each p_i; the orbit route builds those at p_0 only, so a
    # silent fall-back fails here; neither builds one before a value is read
    calls = []
    product_factor = eulerdata._product_factor
    monkeypatch.setattr(eulerdata, "_product_factor",
                        lambda *args: calls.append(args) or product_factor(*args))
    quintic = SplittingType(4, (5,), ())
    seq = to_table(build_hypergeom_data(quintic), 2).restriction_sequence()
    _, shift = compute_normalization(build_hypergeom_series(quintic, 2), quintic)
    out = per_pair(mirror_transform, seq, None, shift)
    assert calls == []
    dict(out.values)
    assert len(calls) == 10
    calls.clear()
    out = mirror_transform(seq, None, shift)
    assert calls == []
    dict(out.values)
    assert sorted(args[2:] for args in calls) == [(0, 0, 1), (0, 1, 2)]


# transform_sweep_digest() as the transform that multiplied each summand
# by its whole product factor gives it
TRANSFORM_DIGEST = "2c1538acbf18eb2bea0f31d12968086ecb93d9d3326bb1d3e159c9bfad487c97"


def transform_sweep_digest():
    """The 5 presets, with and without x, at d_max 1-3 (P^4 at 1-2), each
    transformed by the normalization shift g, by the multiplier [0, lam0/3]
    (not point-symmetric), and by [0, sum(lam)/alpha, 2*alpha] with g: the
    stored form of every transformed value, and at d_max 1, and at 2
    without x, the four checks' reports on its Lagrange table."""
    h = hashlib.sha256()
    for preset, (n, bundle, _) in sorted(cli.PRESETS.items()):
        st = cli.parse_bundle(bundle, n)
        for with_x in (False, True):
            for d_max in range(1, 3 if n == 4 else 4):
                tbl = to_table(build_hypergeom_data(st, with_x=with_x), d_max)
                ring = tbl.ring
                alpha = ring.var("alpha")
                lams = sum((ring.var(f"lam{i}") for i in range(n + 1)), ring.zero)
                g = compute_normalization(build_hypergeom_series(st, d_max), st)[1]
                for multiplier, shift in ((None, g), ([0, ring.var("lam0") * Fraction(1, 3)], None),
                                          ([0, RationalFunction(lams, alpha), 2 * alpha], g)):
                    seq = mirror_transform(tbl.restriction_sequence(), multiplier, shift)
                    for key in sorted(seq.values):
                        num, num_den, den, den_den = stored(seq.value(*key))
                        h.update(repr((key, sorted(num.items()), num_den, sorted(den.items()),
                                       den_den)).encode())
                    if d_max == 1 or d_max == 2 and not with_x:
                        lag = lagrange_map(seq)
                        for report in (check_gluing(lag), check_reciprocity(lag),
                                       check_degree_bound(lag), check_linked(tbl, lag)):
                            h.update(report.to_json().encode())
    return h.hexdigest()


def test_transform_values_and_lagrange_reports_are_pinned():
    # Horner's rule in the blocks changes no stored int of a transformed
    # value: each denominator is the product of the same summands'.  The
    # sweep leaves out P^4 at d_max 3 (2 s of transforms) and the checks
    # on the larger Lagrange tables (about 2 min in all)
    assert transform_sweep_digest() == TRANSFORM_DIGEST


# ---------------------------------------------------------------------
# restriction tables by orbit and on read: on a table it records
# point-symmetric, to_table substitutes P_d at p_0 and swaps lam_0 <->
# lam_k for p_k, and a table makes each entry, swapped, substituted or a
# Lagrange product, on its first read

QUINTIC = SplittingType(4, (5,), ())


def factored_form(value):
    """A Factored value as stored: its constant and its forms' exponents."""
    return value.const, value.num, value.den


def per_point_table(data, d_max):
    """{(d, i, r): P_d substituted at lam_i + r*alpha}, in data's ring."""
    ring = data.ring
    return {(d, i, r): data.factors(d).substitute(
                {"kappa": ring.var(f"lam{i}") + r * ring.var("alpha")})
            for d, i, r in _grid(d_max, range(data.n + 1), _upto)}


@hs.composite
def concavex_tables(draw):
    """(data, d_max) for a random concavex type on P^1..P^6, with or
    without x, at a d_max <= 3 where P_dmax has at most 20 factors."""
    degrees = hs.lists(hs.integers(1, 3), max_size=2)
    st = draw(hs.builds(SplittingType, hs.integers(1, 6), degrees, degrees))
    d_max = draw(hs.integers(1, max([1] + [d for d in (1, 2, 3) if st.linear_factors(d) <= 20])))
    return build_hypergeom_data(st, with_x=draw(hs.booleans())), d_max


@settings(max_examples=40, deadline=None)
@given(concavex_tables())
def test_orbit_table_is_stored_as_per_point_substitution(case):
    # every entry, swapped from p_0, is stored as the substitution at its
    # own point stores it, in the same ring; and only p_0 is substituted,
    # each entry on its first read and once
    data, d_max = case
    with mock.patch.object(eulerdata, "_moved", side_effect=eulerdata._moved) as substitute:
        tbl = to_table(data, d_max)
        assert not substitute.called
        for _ in range(2):
            for d, r in _grid(d_max, _upto):
                tbl.value(d, 0, r)
    calls = [(id(value), move) for (value, move), _ in substitute.call_args_list]
    assert len(calls) == len(set(calls)) == sum(d + 1 for d in range(1, d_max + 1))
    oracle = per_point_table(data, d_max)
    assert {key: factored_form(tbl.value(*key)) for key in oracle} == \
        {key: factored_form(value) for key, value in oracle.items()}


def test_rule_with_a_lam_is_substituted_at_every_point():
    # kappa + lam1 at p_1 is 2*lam1 + r*alpha, and the swap of p_0's
    # lam0 + lam1 + r*alpha is not: such a rule swaps nothing
    data = build_hypergeom_data(LOCAL_P2, with_x=True)
    rule = data._rule
    with_lam = EulerDataClosed(2, lambda d, ring: rule(d, ring) * Factored(
        ring, [ring.var("kappa") + ring.var("lam1")]), data._omega_restriction)
    with mock.patch.object(eulerdata, "transposition", side_effect=AssertionError) as swap:
        tbl = to_table(with_lam, 3)
        values = {key: factored_form(tbl.value(*key)) for key in _grid(3, range(3), _upto)}
    assert not swap.called
    assert values == {key: factored_form(v) for key, v in per_point_table(with_lam, 3).items()}


def test_to_table_substitutes_at_p0_and_swaps_on_read(monkeypatch):
    # the quintic at d_max 4: no substitution until an entry is read, and
    # no swap but the 4 + 3 of Omega that decide the record; the
    # degree-zero slice neither substitutes nor swaps until it is read, and
    # then the table's 4 entries at p_0, and the slice swaps its own 5
    # values at p_0 to p_1..p_4, 20 swaps; every entry makes the 14
    # substitutions at p_0, where one per entry makes 70, and 56 swaps
    substituted, swapped = [], []
    substitute, transposition = eulerdata._moved, eulerdata.transposition
    monkeypatch.setattr(eulerdata, "_moved",
                        lambda value, move: substituted.append(move) or substitute(value, move))
    monkeypatch.setattr(eulerdata, "transposition",
                        lambda value, a, b: swapped.append(b) or transposition(value, a, b))
    tbl = to_table(build_hypergeom_data(QUINTIC), 4)
    assert (len(substituted), sorted(swapped)) == (0, [1, 2, 2, 3, 3, 4, 4])
    swapped.clear()
    seq = tbl.restriction_sequence()
    assert (len(substituted), len(swapped)) == (0, 0)
    assert len(dict(seq.values)) == 5 * 5
    assert (len(substituted), sorted(swapped)) == (4, sorted([1, 2, 3, 4] * 5))
    swapped.clear()
    assert len(tbl.entries) == 70 and (len(substituted), len(swapped)) == (14, 14 * 4)


def test_composite_linking_builds_lagrange_entries_at_r0_only(monkeypatch):
    # entry (d, i, r) of a Lagrange table bars B_r(lam_i): check_linked
    # and the degree-zero slice of a fresh table read r = 0 only, so they
    # bar nothing but the B_0(lam_i), and the slice nothing until it is read
    tbl = to_table(build_hypergeom_data(QUINTIC), 3)
    _, shift = compute_normalization(build_hypergeom_series(QUINTIC, 3), QUINTIC)
    seq = mirror_transform(tbl.restriction_sequence(), None, shift)
    degree_zero = [seq.value(0, i) for i in range(5)]
    barred = []
    monkeypatch.setattr(eulerdata, "bar_involution",
                        lambda value: barred.append(value) or bar_involution(value))
    for run in (lambda: check_linked(tbl, lagrange_map(seq)).all_pass,
                lambda: dict(lagrange_map(seq).restriction_sequence().values)):
        barred.clear()
        assert run()
        assert barred and all(any(v is b for b in degree_zero) for v in barred)
    barred.clear()
    lagrange_map(seq).restriction_sequence()
    assert not barred
    assert len(lagrange_map(seq).entries) == 5 * (2 + 3 + 4) and len(barred) == 2 + 3 + 4


def test_to_table_raises_where_it_did():
    # a denominator form kappa - lam0 vanishes at p_0, r = 0: to_table
    # raises, and no check meets it later; a mapping without a grid key
    # is refused when the table is made
    def rule(d, ring):
        return Factored(ring, [ring.var("alpha")], [ring.var("kappa") - ring.var("lam0")])

    data = EulerDataClosed(2, rule, lambda i, ring: Factored(ring, [ring.var(f"lam{i}")]))
    with pytest.raises(algebra.SubstitutionError, match="'kappa'"):
        to_table(data, 2)
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 2)
    entries = {key: tbl.value(*key) for key in _grid(2, range(3), _upto) if key != (2, 1, 1)}
    with pytest.raises(EulerDataError, match=r"^incomplete table: missing entry \(2, 1, 1\)$"):
        EulerDataTable(2, 2, tbl.ring, entries, {i: tbl.value(0, i, 0) for i in range(3)})


def test_tables_keep_no_parent_alive():
    # a Lagrange table holds its sequence, not the table that gave it, and
    # reference counting alone frees both tables once a check is done; a
    # degree-zero slice, and its transform, hold no table either
    tbl = to_table(build_hypergeom_data(QUINTIC), 2)
    lagrange = lagrange_map(tbl.restriction_sequence())
    refs = [weakref.ref(tbl), weakref.ref(lagrange)]
    gc.disable()
    try:
        assert check_linked(tbl, lagrange).all_pass
        del tbl
        assert refs[0]() is None
        seq = lagrange.restriction_sequence()
        out = mirror_transform(seq, None, [0, 1, 2])
        del lagrange
        assert refs[1]() is None
        assert len(dict(seq.values)) == len(dict(out.values)) == 3 * 5
    finally:
        gc.enable()


def test_tables_pickle_with_every_entry_made():
    # a pickled table carries every entry, made before the ring that a
    # swap can add forms to is pickled: the twins decide as the tables do
    tbl = to_table(build_hypergeom_data(QUINTIC, with_x=True), 2)
    lagrange = lagrange_map(tbl.restriction_sequence())
    twin, lagrange_twin = pickle.loads(pickle.dumps((tbl, lagrange)))
    for check in (check_gluing, check_reciprocity, check_mirror_linked):
        assert check(twin).to_json() == check(tbl).to_json()
    assert check_linked(twin, lagrange_twin).to_json() == check_linked(tbl, lagrange).to_json()


def test_sequences_pickle_with_every_value_made():
    # a library-built sequence pickles as a plain one: every value made,
    # and no record, so its twin is decided point by point
    _, shift = compute_normalization(build_hypergeom_series(QUINTIC, 2), QUINTIC)
    tbl = to_table(build_hypergeom_data(QUINTIC, with_x=True), 2)
    seq = mirror_transform(tbl.restriction_sequence(), None, shift)
    twin = pickle.loads(pickle.dumps(seq))
    assert seq._symmetric is True and twin._symmetric is False and type(twin.values) is dict
    with pytest.raises(TypeError):
        seq.values[(1, 0)] = twin.value(1, 0)
    assert RestrictionSequence(4, 2, seq.ring, twin.values).values is twin.values
    assert {key: stored(v) for key, v in twin.values.items()} == \
        {key: stored(v) for key, v in seq.values.items()}
    assert check_linked(tbl, lagrange_map(twin)).to_json() == \
        check_linked(tbl, lagrange_map(seq)).to_json()


# ---------------------------------------------------------------------
# symmetry decided where a table is built: to_table on a lam-free rule
# decides it on Omega, and mirror_transform on its multiplier; the checks
# and lagrange_map read the record, and a table or sequence from the
# constructor holds none and is decided point by point


@pytest.mark.parametrize("omega", ["lam_i*(lam0 + alpha)", "lam_i*(lam_i + i*alpha)"])
def test_to_table_decides_an_omega_that_is_not_symmetric(omega):
    # a lam-free rule with an Omega that is not point-symmetric: the
    # second passes linking at i = 0, j = 1 and fails it at i = 1 and 2,
    # so a table that trusted its Omega would report that every pair passes;
    # such a table holds no record, so it swaps nothing, and each entry is
    # substituted at its own point
    def omega_restriction(i, ring):
        lam, alpha = ring.var(f"lam{i}"), ring.var("alpha")
        other = ring.var("lam0") + alpha if omega.startswith("lam_i*(lam0") else lam + i * alpha
        return Factored(ring, [lam, other])

    data = EulerDataClosed(2, build_hypergeom_data(LOCAL_P2)._rule, omega_restriction)
    tbl = to_table(data, 2)
    with mock.patch.object(eulerdata, "transposition", side_effect=AssertionError) as swap:
        values = {key: factored_form(tbl.value(*key)) for key in _grid(2, range(3), _upto)}
    assert not swap.called
    assert values == {key: factored_form(v) for key, v in per_point_table(data, 2).items()}
    reports = [check(tbl) for check in (check_reciprocity, check_mirror_linked)]
    assert [r.to_json() for r in reports] == \
        [per_pair(check, tbl).to_json() for check in (check_reciprocity, check_mirror_linked)]
    assert {r.i for r in reports[1].failures} == ({0, 1, 2} if "lam0" in omega else {1, 2})


def test_rule_with_a_lam_is_decided_per_check():
    # a form lam1 - lam2 - alpha under P_d, which the binding alpha =
    # lam1 - lam2 of d = 1, i = 1, j = 2 sends to zero: linking is inconclusive
    # there and passes at i = 0, j = 1, so a table that recorded such a
    # rule as point-symmetric would report that every pair passes
    data = build_hypergeom_data(LOCAL_P2)
    rule = data._rule
    with_lam = EulerDataClosed(2, lambda d, ring: rule(d, ring) / Factored(
        ring, [ring.var("lam1") - ring.var("lam2") - ring.var("alpha")]), data._omega_restriction)
    tbl = to_table(with_lam, 2)
    for check in (check_reciprocity, check_mirror_linked):
        assert check(tbl).to_json() == per_pair(check, tbl).to_json()
    assert {(r.d, r.i, r.r) for r in check_mirror_linked(tbl).inconclusive} == {(1, 1, 2)}


def test_composite_linking_reads_p0_only(monkeypatch):
    # the quintic at d_max 2 with the normalization shift: both tables
    # hold a record, so check_linked reads and subtracts at p_0 only, one
    # difference per d, and makes no entry at p_1..p_4; it swaps nothing,
    # as to_table's 4 + 3 swaps decided tbl's Omega; the per-pair route
    # reads and subtracts at every point, one difference per d and point
    _, shift = compute_normalization(build_hypergeom_series(QUINTIC, 2), QUINTIC)
    lagrange = lagrange_map(mirror_transform(
        to_table(build_hypergeom_data(QUINTIC), 2).restriction_sequence(), None, shift))
    read, swapped, subtracted = [], [], []
    entry, transposition = EulerDataTable.entry, eulerdata.transposition
    sub = RationalFunction.__sub__
    monkeypatch.setattr(EulerDataTable, "entry",
                        lambda self, d, i, r: read.append(i) or entry(self, d, i, r))
    monkeypatch.setattr(eulerdata, "transposition",
                        lambda value, a, b: swapped.append(b) or transposition(value, a, b))
    monkeypatch.setattr(RationalFunction, "__sub__",
                        lambda self, other: subtracted.append(1) or sub(self, other))
    tbl = to_table(build_hypergeom_data(QUINTIC), 2)
    assert (read, sorted(swapped), subtracted) == ([], [1, 2, 2, 3, 3, 4, 4], [])
    swapped.clear()
    report = check_linked(tbl, lagrange)
    assert report.all_pass and len(report.results) == 2 * 5 * 4
    assert (set(read), swapped, len(subtracted)) == ({0}, [], 2)
    read.clear()
    subtracted.clear()
    assert per_pair(check_linked, tbl, lagrange).to_json() == report.to_json()
    assert (set(read), len(subtracted)) == (set(range(5)), 10)


def test_recorded_sequences_are_neither_tested_nor_swapped(monkeypatch):
    # the quintic at d_max 2 with the normalization shift: to_table's only
    # swaps, 4 + 3, decide its Factored Omega, and the degree-zero slice
    # hands on the table's record, so mirror_transform tests only f = 0 and
    # swaps no nonzero value; it makes no value at p_1..p_4 until it is
    # read, once each, and lagrange_map on its recorded output swaps nothing
    _, shift = compute_normalization(build_hypergeom_series(QUINTIC, 2), QUINTIC)
    swapped, transposition = [], eulerdata.transposition
    monkeypatch.setattr(eulerdata, "transposition",
                        lambda value, a, b: swapped.append((value, b)) or transposition(value, a, b))
    seq = to_table(build_hypergeom_data(QUINTIC), 2).restriction_sequence()
    assert all(isinstance(v, Factored) for v, _ in swapped)
    assert sorted(b for _, b in swapped) == [1, 2, 2, 3, 3, 4, 4]
    swapped.clear()
    out = mirror_transform(seq, None, shift)
    assert [b for v, b in swapped if not v.is_zero()] == []
    swapped.clear()
    degree_zero = [out.value(0, k) for k in range(5)]
    assert all(out.value(0, k) is v for k, v in enumerate(degree_zero))
    assert sorted(b for _, b in swapped) == [1, 2, 3, 4]
    swapped.clear()
    lagrange = lagrange_map(out)
    assert swapped == [] and lagrange._symmetric


def test_linking_takes_the_orbit_only_when_both_tables_hold_a_record():
    # a to_table table, which holds a record, against its copy from the
    # constructor with one value at p_2 changed: they agree at p_0 and
    # p_1, where every representative passes, and disagree at p_2
    tbl = to_table(build_hypergeom_data(LOCAL_P2), 2)
    changed = perturbed(tbl, (1, 2, 0), Factored(tbl.ring, [tbl.ring.var("lam0")]))
    for pair in ((tbl, changed), (changed, tbl)):
        report = check_linked(*pair)
        assert report.to_json() == per_pair(check_linked, *pair).to_json()
        assert {(r.d, r.i) for r in report.failures} == {(1, 2)}


@pytest.mark.parametrize("with_x", [False, True])
def test_only_the_builders_decide_symmetry(monkeypatch, with_x):
    # the quintic at d_max 2 with the normalization shift: to_table on a
    # lam-free rule tests its Omega, once, and mirror_transform on recorded
    # input its multiplier, once; a rule with a lam, a transform of a
    # constructor copy, every check and every Lagrange map test nothing,
    # on recorded tables and on their constructor copies alike
    calls, point_symmetric = [], eulerdata._point_symmetric
    monkeypatch.setattr(eulerdata, "_point_symmetric",
                        lambda *args: calls.append(args) or point_symmetric(*args))
    _, shift = compute_normalization(build_hypergeom_series(QUINTIC, 2), QUINTIC)
    data = build_hypergeom_data(QUINTIC, with_x=with_x)
    tbl = to_table(data, 2)
    assert len(calls) == 1 and tbl._symmetric
    seq = mirror_transform(tbl.restriction_sequence(), None, shift)
    assert len(calls) == 2 and seq._symmetric
    calls.clear()
    with_lam = EulerDataClosed(4, lambda d, ring: data._rule(d, ring) * Factored(
        ring, [ring.var("kappa") + ring.var("lam1")]), data._omega_restriction)
    assert not to_table(with_lam, 2)._symmetric
    assert not mirror_transform(rebuilt(seq), None, shift)._symmetric
    lagranges = [lagrange_map(seq), lagrange_map(rebuilt(seq))]
    checks = [check_gluing, check_reciprocity, check_mirror_linked, check_degree_bound] + [
        functools.partial(check_linked, table_b=lagrange) for lagrange in lagranges]
    recorded, copied = ([check(table).to_json() for check in checks]
                        for table in (tbl, rebuilt(tbl)))
    assert recorded == copied and calls == []


# ---------------------------------------------------------------------
# P_d built from its ints, and gluing decided by orbit: the identity at
# p_k is the one at p_0 under lam_0 <-> lam_k


def polynomial_rule(st, with_x):
    """build_hypergeom_data's rule built with Polynomial arithmetic: each
    factor x + a*kappa + b*alpha a linear Polynomial, read back as ints."""
    def rule(d, ring):
        kappa, alpha = ring.var("kappa"), ring.var("alpha")
        x = ring.var("x") if with_x else ring.zero
        return Factored(ring, [x + a * kappa + b * alpha for a, b in st.factors(d)])

    return rule


@settings(max_examples=60, deadline=None)
@given(hs.builds(SplittingType, hs.integers(1, 6), hs.lists(hs.integers(1, 5), max_size=2),
                 hs.lists(hs.integers(1, 5), max_size=2)), hs.booleans(), hs.integers(1, 4))
def test_rule_is_stored_as_the_polynomial_rule(st, with_x, d_max):
    # each P_d, built from its ints, has the constant and the forms that
    # the Polynomial-built rule gives it, in the same ring
    data = build_hypergeom_data(st, with_x=with_x)
    oracle = polynomial_rule(st, with_x)
    for d in range(1, d_max + 1):
        assert factored_form(data.factors(d)) == factored_form(oracle(d, data.ring))


@pytest.mark.parametrize("with_x", (False, True))
def test_rule_builds_no_polynomial(monkeypatch, with_x):
    # P_d takes no Polynomial product or sum, each of its factors once; and
    # to_table and the four checks that verify runs, on the 5 presets at
    # d_max 3, spell no Polynomial: no variable, and no sum or product
    def refuse(*args):
        raise AssertionError("Polynomial arithmetic")

    st = SplittingType(4, (2, 2), (1,))
    data = build_hypergeom_data(st, with_x=with_x)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(algebra.Polynomial, name, refuse)
    monkeypatch.setattr(algebra.PolyRing, "var", refuse)
    assert [sum(data.factors(d).num.values()) for d in (1, 2, 3)] == \
        [st.linear_factors(d) for d in (1, 2, 3)]
    for n, bundle, _ in cli.PRESETS.values():
        tbl = to_table(build_hypergeom_data(cli.parse_bundle(bundle, n), with_x=with_x), 3)
        for check in (check_gluing, check_reciprocity, check_mirror_linked, check_degree_bound):
            assert check(tbl).to_json()


# the Omega restrictions, the endpoint data and the moves as they were
# spelled with Polynomial arithmetic before each was built as its ints


def polynomial_omega(st, with_x):
    """build_hypergeom_data's Omega restriction, built from linear Polynomials."""
    def omega(i, ring):
        lam = ring.var(f"lam{i}")
        if with_x:
            x = ring.var("x")
            return Factored(ring, [x + l * lam for l in st.convex],
                            [x - k * lam for k in st.concave])
        om = omega_class(st)
        return Factored(ring, [lam] * om.h_exponent, [lam] * -om.h_exponent, om.scalar)

    return omega


def polynomial_endpoint_rule(d, ring):
    kappa = ring.var("kappa")
    return Factored(ring, [kappa, kappa - d * ring.var("alpha")])


def polynomial_endpoint_omega(i, ring):
    return Factored(ring, [ring.var(f"lam{i}")] * 2)


def polynomial_weight(ring, i, r):
    """The value lam_i + r*alpha that kappa takes at a fixed-point weight."""
    return ring.var(f"lam{i}") + r * ring.var("alpha")


def polynomial_alpha(ring, j, i, d):
    """The special alpha value (lam_j - lam_i)/d."""
    return (ring.var(f"lam{j}") - ring.var(f"lam{i}")) * Fraction(1, d)


@settings(max_examples=60, deadline=None)
@given(hs.builds(SplittingType, hs.integers(1, 6), hs.lists(hs.integers(1, 5), max_size=2),
                 hs.lists(hs.integers(1, 5), max_size=2)), hs.booleans(), hs.integers(1, 6))
def test_omega_and_endpoint_data_are_stored_as_the_polynomial_ones(st, with_x, d):
    # each Omega restriction of both builders, and the endpoint rule, built
    # from its ints, has the constant and the forms of the Polynomial-built
    # one, in the same ring
    data, endpoint = build_hypergeom_data(st, with_x=with_x), endpoint_weights_data(st.n)
    omega = polynomial_omega(st, with_x)
    for i in range(st.n + 1):
        assert factored_form(data.omega_restriction(i)) == factored_form(omega(i, data.ring))
        assert factored_form(endpoint.omega_restriction(i)) == \
            factored_form(polynomial_endpoint_omega(i, endpoint.ring))
    assert factored_form(endpoint.factors(d)) == \
        factored_form(polynomial_endpoint_rule(d, endpoint.ring))


@hs.composite
def moved_cases(draw):
    """(n, forms, binding): the ints of 1-3 numerator and 0-2 nonzero
    denominator forms on P^1..P^6, small entries, and the kappa or the
    alpha binding at random points, r = 0..4 and d = 1..4; half the time
    with one more denominator form that the binding sends to zero."""
    n = draw(hs.integers(1, 6))
    ints = hs.lists(hs.integers(-3, 3), min_size=n + 4, max_size=n + 4)
    num = draw(hs.lists(ints, min_size=1, max_size=3))
    den = draw(hs.lists(ints.filter(any), max_size=2))
    i, j = draw(hs.lists(hs.integers(0, n), min_size=2, max_size=2, unique=True))
    pole = [0] * (n + 4)  # lam0..lam<n>, alpha, kappa, x
    if draw(hs.booleans()):
        r = draw(hs.integers(0, 4))
        pole[i], pole[n + 1], pole[n + 2] = -1, -r, 1  # kappa - lam_i - r*alpha
        binding = ("kappa", _weight, polynomial_weight, (i, r))
    else:
        d = draw(hs.integers(1, 4))
        pole[i], pole[j], pole[n + 1] = 1, -1, d  # d*alpha - lam_j + lam_i
        binding = ("alpha", _alpha_binding, polynomial_alpha, (j, i, d))
    return n, (num, den + [pole] * draw(hs.booleans())), binding


@settings(max_examples=80, deadline=None)
@given(moved_cases())
def test_moves_share_the_images_of_the_polynomial_bindings(case):
    # a value under each move, and under substitute({name: polynomial}) in
    # a twin ring: the same images keys, forms and value, Factored or
    # expanded, or the same SubstitutionError
    n, (num, den), (name, move, polynomial, args) = case

    def apply(substitute):
        ring = algebra.weight_ring(n)
        value = algebra._factored(ring, *algebra._int_parts(
            ring, [(f, 1) for f in num], [(f, 1) for f in den]))
        out = []
        for v in (value, value.expand()):
            try:
                out.append(substitute(ring, v))
            except algebra.SubstitutionError as exc:
                out.append(exc.symbol)
        factored, rf = out
        return (list(ring.images), ring.forms,
                factored if isinstance(factored, str) else factored_form(factored),
                rf if isinstance(rf, str) else stored(rf))

    assert apply(lambda ring, v: algebra._moved(v, move(ring, *args))) == \
        apply(lambda ring, v: v.substitute({name: polynomial(ring, *args)}))


def permuted(tbl):
    """tbl in a ring that lists alpha first and the lam's in reverse: each
    Factored value rebuilt from its forms, each variable moved by name."""
    names = ("alpha", *(f"lam{i}" for i in reversed(range(tbl.n + 1))), "kappa", "x")
    ring = algebra.PolyRing(names)

    def form(f):
        return sum((c * ring.var(v) for v, c in zip(tbl.ring.names, tbl.ring.forms[f]) if c),
                   ring.zero)

    def moved(value):
        return Factored(ring, [form(f) for f, e in value.num.items() for _ in range(e)],
                        [form(f) for f, e in value.den.items() for _ in range(e)], value.const)
    keys = _grid(tbl.d_max, range(tbl.n + 1), _upto)
    return EulerDataTable(tbl.n, tbl.d_max, ring, {key: moved(tbl.value(*key)) for key in keys},
                          {i: moved(tbl.value(0, i, 0)) for i in range(tbl.n + 1)})


@pytest.mark.parametrize("with_x", [False, True])
def test_checks_read_each_variable_by_name(with_x):
    # a table whose ring does not list lam0..lam<n> first, alpha next: the
    # moves look each variable up by name, so every check's report on the
    # 5 CLI presets at d_max 3 is the one on the same table in weight_ring
    for preset, (n, bundle, _) in sorted(cli.PRESETS.items()):
        tbl = to_table(build_hypergeom_data(cli.parse_bundle(bundle, n), with_x=with_x), 3)
        other = permuted(tbl)
        assert other.ring.names[:2] == ("alpha", f"lam{n}")
        for check in (check_gluing, check_reciprocity, check_mirror_linked, check_degree_bound):
            assert check(other).to_json() == check(tbl).to_json(), (preset, check)
        assert check_linked(other, other).all_pass

def test_gluing_on_a_recorded_table_makes_no_entry_off_p0(monkeypatch):
    # the quintic at d_max 4: to_table decides its record by the 4 + 3
    # swaps of Omega at p_0, and gluing decides at p_0 and reads the
    # record; it swaps nothing, so makes no entry at p_1..p_4: reading
    # them afterwards swaps all 56
    swapped, transposition = [], eulerdata.transposition
    monkeypatch.setattr(eulerdata, "transposition",
                        lambda value, a, b: swapped.append((value, b)) or transposition(value, a, b))
    tbl = to_table(build_hypergeom_data(QUINTIC), 4)
    assert all(v is tbl.value(0, 0, 0) for v, _ in swapped)
    assert sorted(b for _, b in swapped) == [1, 2, 2, 3, 3, 4, 4]
    swapped.clear()
    report = check_gluing(tbl)
    assert report.all_pass and len(report.results) == 5 * (2 + 3 + 4 + 5)
    assert swapped == []
    assert len(tbl.entries) == 70 and len(swapped) == 4 * 14
