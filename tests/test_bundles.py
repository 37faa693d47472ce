"""Splitting types: derived quantities, criticality, the critical list,
and properties over random types: the spelling parses back, classify is
total, run_pipeline supports exactly the critical types, and P_d's
linear factors come in the count and order the Euler data needs."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from mirrorcalc.bundles import (CRITICAL_BUNDLES, OmegaClass, SplittingType,
                                omega_class)
from mirrorcalc.cli import parse_bundle
from mirrorcalc.pipeline import PipelineCase, classify, unsupported_reason


def test_degrees_sorted_canonically():
    st = SplittingType(4, (2, 2), (1,))
    assert SplittingType(4, (2, 2), (1,)) == st
    assert SplittingType(5, (4, 2), ()).convex == (2, 4)


def test_rejects_zero_degree():
    with pytest.raises(ValueError):
        SplittingType(2, (0,), ())
    with pytest.raises(ValueError):
        SplittingType(2, (), (0,))


def test_total_and_block_degree():
    st = SplittingType(3, (2,), (2,))
    assert st.total == 4
    # delta_d = d*total + P - N - (n+1)d = 0 for every d here
    assert [st.block_degree(d) for d in (1, 2, 3)] == [0, 0, 0]
    quintic = SplittingType(4, (5,), ())
    assert [quintic.block_degree(d) for d in (1, 2)] == [1, 1]
    noncritical = SplittingType(2, (2,), ())
    assert [noncritical.block_degree(d) for d in (1, 2)] == [0, -1]


def test_criticality():
    assert all(st.is_critical for st in CRITICAL_BUNDLES)
    assert len(CRITICAL_BUNDLES) == 9
    assert not SplittingType(2, (2,), ()).is_critical
    assert not SplittingType(1, (), (2,)).is_critical  # rank drops short
    assert not SplittingType(4, (4,), ()).is_critical


def test_omega_trivial_bundle():
    assert omega_class(SplittingType(3, (), ())) == OmegaClass(Fraction(1), 0)


def test_omega_concave_signs():
    om = omega_class(SplittingType(1, (), (1, 1)))
    assert om == OmegaClass(Fraction(1), -2)
    om = omega_class(SplittingType(4, (2, 2), (1,)))
    assert om == OmegaClass(Fraction(-4), 1)


# ---------------------------------------------------------------------
# properties over random splitting types

degrees = hs.lists(hs.integers(1, 64), max_size=4)
splitting_types = hs.builds(SplittingType, hs.integers(1, 8), degrees, degrees)
# random types are rarely critical, so the critical list is mixed in
with_critical = hs.one_of(hs.sampled_from(CRITICAL_BUNDLES), splitting_types)


@given(splitting_types.filter(lambda st: st.convex or st.concave))
def test_spelling_parses_back(st):
    assert parse_bundle(str(st), st.n) == st


@given(with_critical)
def test_classify_is_total(st):
    assert isinstance(classify(st), PipelineCase)


@given(with_critical)
def test_supported_exactly_when_critical(st):
    assert (unsupported_reason(st) is None) == st.is_critical


small_degrees = hs.lists(hs.integers(1, 6), max_size=4)


@given(hs.builds(SplittingType, hs.integers(1, 6), small_degrees, small_degrees),
       hs.integers(1, 6))
def test_factors_count_increments_and_order(st, d):
    factors = st.factors(d)
    assert len(factors) == st.linear_factors(d)
    # each increment lists every summand, so they concatenate to P_d's
    # factors up to order
    increments = [f for k in range(1, d + 1) for f in st.factors(k, k - 1)]
    assert sorted(increments) == sorted(factors)
    assert st.factors(d, d) == []
    # the ranges as the hypergeometric Euler data spelled them, in order
    assert factors == ([(l, -m) for l in st.convex for m in range(l * d + 1)]
                       + [(-k, m) for k in st.concave for m in range(1, k * d)])
