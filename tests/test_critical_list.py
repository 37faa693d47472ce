"""The complete critical list end to end, with an independent
enumerative oracle for the convex cases and the published instanton
numbers as anchors.

For a generic complete intersection of degrees (l_1..l_P) cut out in
P^n by a critical convex sum, the degree-1 number counts its lines.
That count has a classical closed form on the Grassmannian of lines:
expand prod_a prod_{m=0}^{l_a} (m x1 + (l_a - m) x2) against Schur
polynomials in the two Chern roots and take the coefficient of the top
class, i.e. the coefficient of x1^n x2^(n-1) after multiplying by
(x1 - x2).  This shares no code with the pipeline.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from mirrorcalc.bundles import CRITICAL_BUNDLES, SplittingType
from mirrorcalc.pipeline import PipelineCase, classify, run_pipeline


def line_count(st):
    # dense bivariate polynomial as {(e1, e2): coeff}
    poly = {(0, 0): 1}
    for l in st.convex:
        for m in range(l + 1):
            new = {}
            for (e1, e2), c in poly.items():
                if m:
                    new[(e1 + 1, e2)] = new.get((e1 + 1, e2), 0) + c * m
                if l - m:
                    new[(e1, e2 + 1)] = new.get((e1, e2 + 1), 0) + c * (l - m)
            poly = new
    n = st.n
    return poly.get((n - 1, n - 1), 0) - poly.get((n, n - 2), 0)


def test_line_counts_match_degree_one():
    for st in CRITICAL_BUNDLES:
        if classify(st) is not PipelineCase.CASE1:
            continue
        result = run_pipeline(st, 2)
        d, value, integral = result.instanton[0]
        assert (d, integral) == (1, True)
        assert value == line_count(st), st


def test_quintic_line_count_is_classical():
    assert line_count(CRITICAL_BUNDLES[3]) == 2875


# Published genus-zero instanton numbers n_1, n_2, ...: the complete
# intersections in P^5, P^6 and P^7 from Libgober-Teitelbaum
# (alg-geom/9301001) and Hosono-Klemm-Theisen-Yau (hep-th/9406055), and
# local P^2 from Chiang-Klemm-Yau-Zaslow (hep-th/9903053).  The values
# were recalled without network access, not read from the papers.  The
# line counts above already pin n_1 of the complete intersections.
PUBLISHED = [
    (SplittingType(5, (3, 3), ()), [1053, 52812, 6424326]),
    (SplittingType(5, (2, 4), ()), [1280, 92288, 15655168]),
    (SplittingType(6, (2, 2, 3), ()), [720, 22428, 1611504]),
    (SplittingType(7, (2, 2, 2, 2), ()), [512, 9728, 416256]),
    (SplittingType(2, (), (3,)), [3, -6, 27, -192, 1695]),
]


@pytest.mark.parametrize("st, numbers", PUBLISHED, ids=[f"P{st.n}:{st}" for st, _ in PUBLISHED])
def test_published_instanton_numbers(st, numbers):
    result = run_pipeline(st, len(numbers))
    assert result.instanton == [(d, n, True) for d, n in enumerate(numbers, 1)]


@given(st=hs.sampled_from(CRITICAL_BUNDLES), order=hs.integers(1, 40))
@example(st=CRITICAL_BUNDLES[-1], order=40)
def test_whole_critical_list_runs_clean(st, order):
    result = run_pipeline(st, order)
    assert all(result.checks.values()), (st, result.checks)
    assert all(v.denominator == 1 and flag for _, v, flag in result.instanton), st
    assert all(isinstance(k, Fraction) for k in result.K)
