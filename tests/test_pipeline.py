"""The end-to-end pipeline: classification, series construction, the
Frobenius basis, normalization against the known closed forms, K_d
extraction, and the multiple-cover inversion."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import mirrorcalc
from mirrorcalc.bundles import CRITICAL_BUNDLES, SplittingType, omega_class
from mirrorcalc.cli import MAX_ORDER
from mirrorcalc.cohomseries import CohomSeries, homogeneity_violations, integrate_pn, scale_by
from mirrorcalc.pipeline import (PipelineCase, PipelineError, _normalized_columns,
                                 build_hypergeom_series,
                                 canonical_alpha_degrees, classify,
                                 compute_normalization, extract_euler_numbers,
                                 f0_closed_form, frobenius_basis, g1_closed_form,
                                 invert_multicover, recompose_multicover,
                                 run_pipeline)
from mirrorcalc.qseries import ScalarQSeries, TSeries, mirror_powers
from test_qseries import tseries_product

MULTICOVER = SplittingType(1, (), (1, 1))
LOCAL_P2 = SplittingType(2, (), (3,))
P3_CONCAVEX = SplittingType(3, (2,), (2,))
P4_CONCAVEX = SplittingType(4, (2, 2), (1,))
QUINTIC = SplittingType(4, (5,), ())

PRESET_TYPES = (MULTICOVER, LOCAL_P2, P3_CONCAVEX, P4_CONCAVEX, QUINTIC)


def test_classify():
    assert classify(MULTICOVER) is PipelineCase.IDENTITY
    assert classify(QUINTIC) is PipelineCase.CASE1
    assert classify(LOCAL_P2) is PipelineCase.CASE2
    assert classify(P3_CONCAVEX) is PipelineCase.CASE2
    assert classify(P4_CONCAVEX) is PipelineCase.CASE2
    assert classify(SplittingType(2, (2,), ())) is PipelineCase.CASE3
    assert classify(SplittingType(3, (1, 1), ())) is PipelineCase.IDENTITY
    assert classify(SplittingType(2, (2, 2), ())) is PipelineCase.UNSUPPORTED
    assert classify(SplittingType(5, (), ())) is PipelineCase.IDENTITY


def test_series_quintic_leading_coefficient():
    # coefficient of q H alpha^0 is 5 * 120: the constant term of the
    # first block times the omega scalar
    series = build_hypergeom_series(QUINTIC, 2)
    assert series.degrees[1] == 1
    assert series.cells[1][1] == 600


def test_series_multicover_blocks_telescope():
    # the q^d block cancels down to (H - d alpha)^-2 = alpha^-2 (1/d^2 +
    # 2x/d^3); the H cell of the t^0 slice is 2/(d^3 alpha^3) and of the
    # t^1 slice is -1/(d^2 alpha^3), and nothing survives beyond H^n
    series = build_hypergeom_series(MULTICOVER, 4)
    integrated = integrate_pn(series)
    assert list(integrated) == [-3]
    for d in range(1, 5):
        assert series.degrees[d] == -2
        assert series.cells[d] == [Fraction(1, d ** 2), Fraction(2, d ** 3)]
        assert integrated[-3].terms[(d, 0)] == Fraction(2, d ** 3)
        assert integrated[-3].terms[(d, 1)] == Fraction(-1, d ** 2)
    assert integrated[-3].t_degree() == 1


def test_series_trivial_bundle():
    # only the inverted denominators remain in Sigma
    st = SplittingType(1, (), ())
    series = build_hypergeom_series(st, 2)
    assert series.degrees[1] == -2
    assert series.cells[1][0] == 1  # 1/(H-alpha)^2 at H^0


def test_series_homogeneity_all_presets():
    for st in PRESET_TYPES:
        series = build_hypergeom_series(st, 4)
        assert homogeneity_violations(series, st) == []


def test_frobenius_basis_quintic():
    series = build_hypergeom_series(QUINTIC, 4)
    f0, f1, f2, f3 = frobenius_basis(series, QUINTIC)
    closed = f0_closed_form(QUINTIC, 4)
    assert closed.coeffs[:3] == (Fraction(1), Fraction(120), Fraction(113400))
    assert f0.t_coefficient(0) == closed
    g1 = g1_closed_form(QUINTIC, 4)
    assert g1.coeffs[1] == 770  # 120 * 5 * (1/2 + 1/3 + 1/4 + 1/5)
    assert f1.t_coefficient(0) == g1
    assert f1.t_coefficient(1) == closed
    assert f3.t_degree() == 3


def _picard_fuchs(st, f):
    """theta^(n+1) f - q prod_a prod_{m=1..l_a} (l_a theta + m) f, with
    theta the total t-derivative (q = e^t)."""
    lhs = f
    for _ in range(st.n + 1):
        lhs = lhs.ddt()
    rhs = f
    for l in st.convex:
        for m in range(1, l + 1):
            rhs = rhs.ddt() * l + rhs * m
    return lhs - rhs.mul_q()


CASE1_CRITICAL = [st for st in CRITICAL_BUNDLES if classify(st) is PipelineCase.CASE1]


@pytest.mark.parametrize("st", CASE1_CRITICAL, ids=str)
@given(order=hs.integers(1, 10))
def test_picard_fuchs_annihilates_basis(st, order):
    # mul_q leaves the top q^order coefficient of the operator unknown
    basis = run_pipeline(st, order).f_basis
    assert len(basis) == 4 and basis[3].t_degree() == 3
    for f in basis:
        assert _picard_fuchs(st, f).truncate(order - 1).is_zero()


def test_frobenius_rejects_concave():
    series = build_hypergeom_series(LOCAL_P2, 2)
    with pytest.raises(PipelineError):
        frobenius_basis(series, LOCAL_P2)


@pytest.mark.parametrize("offset, message", [
    (-1, "f_0 acquired t-dependence"),
    (0, "f_0 disagrees with its closed form"),
    (1, "f_1 disagrees with f_0*t + g_1"),
], ids=["below-h", "h", "h+1"])
def test_frobenius_basis_names_the_broken_row(offset, message):
    # q^2 added to the quintic's column S_(h+offset)
    order, h = 4, omega_class(QUINTIC).h_exponent
    series = build_hypergeom_series(QUINTIC, order)
    columns = list(series.columns)
    columns[h + offset] = columns[h + offset] + q_power(order, 2)
    broken = CohomSeries(QUINTIC.n, order, columns, series.degrees)
    with pytest.raises(PipelineError) as exc:
        frobenius_basis(broken, QUINTIC)
    assert str(exc.value) == message


@pytest.mark.parametrize("which", ["scaling", "shift"])
def test_run_pipeline_matches_the_normalization_with_the_frobenius_route(which, monkeypatch):
    import mirrorcalc.pipeline as pipeline

    def bumped(series, st):
        scaling, shift = compute_normalization(series, st)
        bump = q_power(series.order, 2)
        return (scaling + bump, shift) if which == "scaling" else (scaling, shift + bump)

    monkeypatch.setattr(pipeline, "compute_normalization", bumped)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(QUINTIC, 4)
    assert str(exc.value) == "normalization disagrees with the Frobenius route"


def reference_prepotential_route(f_basis, st, inv_f0, shift):
    """K_d the long way: the prepotential (c/2)(f1 f2/f0^2 - f3/f0)
    - (c/6)T^3, T = t + g, built from t-series products, must be t-free,
    and its t^0 row is sum_d K_d Q^d."""
    _, f1, f2, f3 = f_basis
    order, c = shift.order, omega_class(st).scalar
    script_f = (tseries_product(f1, f2, TSeries.from_scalar(inv_f0 * inv_f0))
                - tseries_product(f3, TSeries.from_scalar(inv_f0))) * (c / 2)
    T = TSeries.t_monomial(order) + TSeries.from_scalar(shift)
    phi = script_f - tseries_product(T, T, T) * (c / 6)
    assert phi.t_degree() == 0
    target, powers, K = phi.t_coefficient(0), mirror_powers(shift), []
    for D in range(1, order + 1):  # powers[D] = q^D + O(q^(D+1))
        K.append(target[D] - sum(k * powers[d][D] for d, k in enumerate(K, 1)))
    return K


@pytest.mark.parametrize("order", [1, 2, 5, 12, 30])
@pytest.mark.parametrize("st", CASE1_CRITICAL, ids=lambda st: f"P{st.n}:{st}")
def test_closed_form_prepotential_matches_the_t_series_route(st, order):
    result = run_pipeline(st, order)
    assert reference_prepotential_route(result.f_basis, st, result.scaling,
                                        result.mirror_shift) == result.K


@pytest.mark.parametrize("row", [0])
def test_prepotential_route_catches_perturbed_f2(row, monkeypatch):
    # one coefficient of the t^0 row a_2 of f_2 changed: the prepotential,
    # read off the rows, then disagrees with the integral route
    import mirrorcalc.pipeline as pipeline

    basis_of = pipeline.frobenius_basis

    def perturbed(series, st):
        basis = basis_of(series, st)
        rows = [basis[2].t_coefficient(j) for j in range(4)]
        coeffs = list(rows[row].coeffs)
        coeffs[3] += 1
        rows[row] = ScalarQSeries(series.order, coeffs)
        basis[2] = TSeries.from_rows(series.order, rows)
        return basis

    monkeypatch.setattr(pipeline, "frobenius_basis", perturbed)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(QUINTIC, 6)
    assert str(exc.value) == "prepotential route disagrees with the integral route"


def test_run_pipeline_multiplies_no_t_series(monkeypatch):
    # t-series are built only for PipelineResult.f_basis: run_pipeline
    # neither multiplies nor compares them
    calls = []
    mul, eq = TSeries.__mul__, TSeries.__eq__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    def compared(self, other):
        calls.append("==")
        return eq(self, other)

    monkeypatch.setattr(TSeries, "__mul__", counted)
    monkeypatch.setattr(TSeries, "__rmul__", counted)
    monkeypatch.setattr(TSeries, "__eq__", compared)
    for st in CRITICAL_BUNDLES:
        run_pipeline(st, 6)
    assert calls == []
    TSeries.t_monomial(6) * 2
    assert TSeries.t_monomial(6) != TSeries.t_monomial(6, 2)
    assert calls == [2, "=="]
    assert not hasattr(TSeries, "__pow__")


def closed_shift(order, sign, factor):
    """sum_d sign^d/d * factor(d) q^d, the closed-form mirror shifts."""
    coeffs = [Fraction(0)]
    for d in range(1, order + 1):
        coeffs.append(Fraction(sign ** d, d) * factor(d))
    return ScalarQSeries(order, coeffs)


def test_normalization_closed_forms():
    order = 6
    # local P^2: g_d = (-1)^d (3d)!/(d!^3 d)
    series = build_hypergeom_series(LOCAL_P2, order)
    scaling, shift = compute_normalization(series, LOCAL_P2)
    assert scaling == ScalarQSeries.one(order)
    assert shift == closed_shift(
        order, -1, lambda d: Fraction(math.factorial(3 * d), math.factorial(d) ** 3))
    assert shift.coeffs[1:3] == (Fraction(-6), Fraction(45))

    # P^3 pair: g_d = (2d)!^2/(d!^4 d)
    series = build_hypergeom_series(P3_CONCAVEX, order)
    scaling, shift = compute_normalization(series, P3_CONCAVEX)
    assert scaling == ScalarQSeries.one(order)
    assert shift == closed_shift(
        order, 1, lambda d: Fraction(math.factorial(2 * d) ** 2, math.factorial(d) ** 4))
    assert shift.coeffs[1:3] == (Fraction(4), Fraction(18))

    # P^4 concavex: same with alternating signs
    series = build_hypergeom_series(P4_CONCAVEX, order)
    scaling, shift = compute_normalization(series, P4_CONCAVEX)
    assert scaling == ScalarQSeries.one(order)
    assert shift == closed_shift(
        order, -1, lambda d: Fraction(math.factorial(2 * d) ** 2, math.factorial(d) ** 4))


def test_normalization_quintic_matches_frobenius():
    order = 5
    series = build_hypergeom_series(QUINTIC, order)
    scaling, shift = compute_normalization(series, QUINTIC)
    f0 = f0_closed_form(QUINTIC, order)
    g1 = g1_closed_form(QUINTIC, order)
    assert scaling == f0.inverse()
    assert shift == g1 * f0.inverse()
    assert shift.coeffs[1] == 770


def test_normalization_identity_case():
    series = build_hypergeom_series(MULTICOVER, 5)
    scaling, shift = compute_normalization(series, MULTICOVER)
    assert scaling == ScalarQSeries.one(5)
    assert shift == ScalarQSeries.zero(5)


def test_normalization_requires_critical():
    st = SplittingType(2, (2,), ())
    series = build_hypergeom_series(st, 3)
    with pytest.raises(PipelineError):
        compute_normalization(series, st)


def test_canonical_form_all_presets():
    for st in PRESET_TYPES:
        order = 5
        series = build_hypergeom_series(st, order)
        scaling, shift = compute_normalization(series, st)
        degrees = canonical_alpha_degrees(series, st, scaling, shift)
        assert all(deg <= -2 for deg in degrees.values()), st


def test_normalized_block_cells_local_p2():
    # worked by hand: the first block of the local P^2 data is
    # 6 H^2/alpha^3 + 3 H/alpha^2 - 2/alpha, the shift g_1 = -6 kills the
    # 1/alpha cell, and what remains encodes d*K_1 = 3 and 2*K_1 = 6
    st = LOCAL_P2
    series = build_hypergeom_series(st, 1)
    assert series.degrees[1] == -1
    assert series.cells[1] == [-2, 3, 6]  # x^i sits at alpha-degree -1 - i
    scaling, shift = compute_normalization(series, st)
    columns = _normalized_columns(series, omega_class(st), scaling, shift)
    block = {(i, -1 - i): s.coeffs[1] for i, s in columns.items() if s.coeffs[1]}
    assert block == {(1, -2): 3, (2, -3): 6}


def test_canonical_check_catches_wrong_normalization():
    # a perturbed F0 leaves an alpha^0 cell, a perturbed g an alpha^-1 cell
    for st in PRESET_TYPES:
        order = 4
        series = build_hypergeom_series(st, order)
        scaling, shift = compute_normalization(series, st)
        bump = ScalarQSeries(order, (0, 0, 1))
        degrees = canonical_alpha_degrees(series, st, scaling + bump, shift)
        assert max(degrees.values()) == 0 and degrees[1] <= -2, st
        degrees = canonical_alpha_degrees(series, st, scaling, shift + bump)
        assert max(degrees.values()) == -1 and degrees[1] <= -2, st


def test_homogeneity_catches_wrong_factor_range(monkeypatch):
    # the recorded alpha-degree counts the factors actually multiplied,
    # so a range that stops one short breaks delta_d
    def short_range(st, d, since=0):
        return ([(l, -m) for l in st.convex for m in range(l * since + (since > 0), l * d)]
                + [(-k, m) for k in st.concave for m in range(max(1, k * since), k * d)])

    for st in (QUINTIC, P3_CONCAVEX):
        assert homogeneity_violations(build_hypergeom_series(st, 3), st) == []
        monkeypatch.setattr(SplittingType, "factors", short_range)
        violations = homogeneity_violations(build_hypergeom_series(st, 3), st)
        assert [d for d, _ in violations] == [1, 2, 3], st
        monkeypatch.undo()


def _times_denominators(block, n, d):
    """An (i, k) -> coeff block times prod_{m<=d} (H - m*alpha)^(n+1),
    truncated at H^(n+1)."""
    for m in range(1, d + 1):
        for _ in range(n + 1):
            out = {}
            for (i, k), c in block.items():
                if i < n:
                    out[(i + 1, k)] = out.get((i + 1, k), 0) + c
                out[(i, k + 1)] = out.get((i, k + 1), 0) - m * c
            block = {key: c for key, c in out.items() if c}
    return block


def critical_examples(test):
    """The 9 critical bundles at d <= 4, as explicit examples."""
    for st in CRITICAL_BUNDLES:
        test = example(st=st, order=4)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(st=hs.builds(SplittingType, hs.integers(1, 6), hs.lists(hs.integers(1, 4), max_size=3),
                    hs.lists(hs.integers(1, 4), max_size=2)),
       order=hs.integers(1, 4))
@critical_examples
def test_series_blocks_match_symbolic_restrictions(st, order):
    # bridge between the symbolic table layer and the series layer: the
    # q^d block times prod (H - m*alpha)^(n+1) must equal the restriction
    # polynomial (lam_i renamed to H, truncated by nilpotency); that
    # product is a unit, so this pins the block itself.  The series builds
    # each block from the last (SplittingType.factors with since = d - 1),
    # the table each P_d whole, on any splitting type, critical or not.
    from mirrorcalc.eulerdata import build_hypergeom_data, to_table

    n = st.n
    data = build_hypergeom_data(st)
    ring = data.ring
    tbl = to_table(data, order)
    lam_idx = ring.index["lam0"]
    alpha_idx = ring.index["alpha"]
    series = build_hypergeom_series(st, order)
    for d in range(1, order + 1):
        block = {(i, series.degrees[d] - i): c
                 for i, c in enumerate(series.cells[d]) if c}
        expected = {}
        for exp, coeff in tbl.entry(d, 0, 0).num.terms.items():
            i, k = exp[lam_idx], exp[alpha_idx]
            if i <= n:
                expected[(i, k)] = coeff
        assert _times_denominators(block, n, d) == expected, (st, d)


def test_extract_multicover():
    order = 8
    series = build_hypergeom_series(MULTICOVER, order)
    shift = ScalarQSeries.zero(order)
    K = extract_euler_numbers(series, MULTICOVER, ScalarQSeries.one(order), shift)
    assert K == [Fraction(1, d ** 3) for d in range(1, order + 1)]


@pytest.mark.parametrize("st", CRITICAL_BUNDLES, ids=lambda st: f"P{st.n}:{st}")
def test_top_columns_are_the_integral(st):
    # the integral over P^n of F0 e^(-Ht/alpha)(Omega + Sigma)
    # - e^(-H(t+g)/alpha) Omega, built the long way (Sigma scaled by F0
    # and integrated term by term, plus Omega's closed form), is
    # N_n - (t+g) N_(n-1) from the two top normalized columns
    order, n = 8, st.n
    series = build_hypergeom_series(st, order)
    scaling, shift = compute_normalization(series, st)
    om = omega_class(st)
    integrated = integrate_pn(scale_by(series, scaling))
    assert list(integrated) == [-3]
    T = TSeries.t_monomial(order) + TSeries.from_scalar(shift)
    omega_part = (tseries_product(TSeries.from_scalar(scaling), TSeries.t_monomial(order, 3))
                  - tseries_product(T, T, T)) * (-om.scalar / 6)
    columns = _normalized_columns(series, om, scaling, shift)
    top = TSeries.from_scalar(columns[n]) - tseries_product(T, TSeries.from_scalar(columns[n - 1]))
    assert integrated[-3] + omega_part == top


@pytest.mark.parametrize("st", PRESET_TYPES, ids=str)
def test_t_degree_check_catches_wrong_normalization(st):
    # q^k added to F0 leaves N_h, added to g leaves N_(h+1), both at q^k;
    # either column lies below N_(n-1), so the integral gains t^2 and t^3
    order = 4
    series = build_hypergeom_series(st, order)
    scaling, shift = compute_normalization(series, st)
    for k in range(1, order + 1):
        bump = ScalarQSeries(order, [0] * k + [1])
        for wrong in ((scaling + bump, shift), (scaling, shift + bump)):
            with pytest.raises(PipelineError) as exc:
                extract_euler_numbers(series, st, *wrong)
            assert str(exc.value) == f"integrated series has t-degree > 1 at q^{k}"


def _bumped_normalizations(series, st):
    """(k, scaling, shift) with q^k added to F0 or to g, k = 1..order."""
    scaling, shift = compute_normalization(series, st)
    for k in range(1, series.order + 1):
        bump = ScalarQSeries(series.order, [0] * k + [1])
        yield k, scaling + bump, shift
        yield k, scaling, shift + bump


@pytest.mark.parametrize("st", CRITICAL_BUNDLES, ids=lambda st: f"P{st.n}:{st}")
def test_canonical_report_and_t_degree_scan_agree(st):
    # canonical_alpha_degrees > -2 at q^d exactly where the extraction's
    # scan finds N_i != 0 for some i <= n - 2: the same predicate
    series = build_hypergeom_series(st, 4)
    for k, scaling, shift in _bumped_normalizations(series, st):
        degrees = canonical_alpha_degrees(series, st, scaling, shift)
        first = min(d for d, deg in degrees.items() if deg > -2)
        with pytest.raises(PipelineError) as exc:
            extract_euler_numbers(series, st, scaling, shift)
        assert str(exc.value) == f"integrated series has t-degree > 1 at q^{first}"
        assert first == k


@pytest.mark.parametrize("st", CRITICAL_BUNDLES, ids=lambda st: f"P{st.n}:{st}")
def test_run_pipeline_rejects_wrong_normalization(st, monkeypatch):
    # with canonical_alpha_degrees out of run_pipeline, a wrong F0 or g is
    # caught by the Frobenius match (CASE1) or the extraction's scan
    import mirrorcalc.pipeline as pipeline

    order = 4
    bumped = list(_bumped_normalizations(build_hypergeom_series(st, order), st))
    for _, scaling, shift in bumped:
        monkeypatch.setattr(pipeline, "compute_normalization",
                            lambda series, st, pair=(scaling, shift): pair)
        with pytest.raises(PipelineError):
            run_pipeline(st, order)


def test_alpha_purity_catches_tampered_degree():
    order = 3
    for st in PRESET_TYPES:
        for d in range(1, order + 1):
            for step, powers in ((1, [-3, -2]), (-1, [-4, -3])):
                series = build_hypergeom_series(st, order)
                scaling, shift = compute_normalization(series, st)
                series.degrees[d] += step
                with pytest.raises(PipelineError) as exc:
                    extract_euler_numbers(series, st, scaling, shift)
                assert str(exc.value) == f"integral is not a pure alpha^-3 series: powers {powers}"


@pytest.mark.parametrize("st", (LOCAL_P2, QUINTIC), ids=("local-p2", "quintic"))
@pytest.mark.parametrize("bumped", (1, 4))
def test_t0_check_catches_wrong_k(st, bumped, monkeypatch):
    # the t-constant block is rebuilt from the solved K_d, so one wrong K_d
    # shows first at its own q^d
    import mirrorcalc.pipeline as pipeline

    solve = pipeline._solve_from_weighted_sum

    def bump(*args):
        K = solve(*args)
        K[bumped - 1] += 1
        return K

    order = 6
    series = build_hypergeom_series(st, order)
    scaling, shift = compute_normalization(series, st)
    monkeypatch.setattr(pipeline, "_solve_from_weighted_sum", bump)
    with pytest.raises(PipelineError) as exc:
        extract_euler_numbers(series, st, scaling, shift)
    assert str(exc.value) == f"t-constant block disagrees first at q^{bumped}"


def test_run_pipeline_catches_wrong_power_table(monkeypatch):
    # one wrong coefficient in one row of the Q^d table: K is solved from
    # that table too, and the t-constant block shows the error first
    import mirrorcalc.pipeline as pipeline

    table = pipeline.mirror_powers

    def perturbed(g):
        powers = table(g)
        coeffs = list(powers[2].coeffs)
        coeffs[4] += 1
        powers[2] = ScalarQSeries(g.order, coeffs)
        return powers

    assert all(run_pipeline(QUINTIC, 6).checks.values())
    monkeypatch.setattr(pipeline, "mirror_powers", perturbed)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(QUINTIC, 6)
    assert str(exc.value) == "t-constant block disagrees first at q^4"


def test_run_pipeline_catches_wrong_multicover_inversion(monkeypatch):
    # one perturbed n_d no longer recomposes to K, and the round trip
    # raises as every other identity does
    import mirrorcalc.pipeline as pipeline

    invert = pipeline.invert_multicover

    def perturbed(K):
        out = invert(K)
        d, v, _ = out[1]
        out[1] = (d, v + 1, True)
        return out

    monkeypatch.setattr(pipeline, "invert_multicover", perturbed)
    for st in (LOCAL_P2, QUINTIC):
        with pytest.raises(PipelineError) as exc:
            run_pipeline(st, 3)
        assert str(exc.value) == "multiple-cover inversion does not recompose to K"


# The checks of each critical type, pinned as literals: six identities
# in every case, and the Frobenius route's five more for the convex-only
# (CASE1) types.
EVERY_CASE = {"alpha_purity": True, "canonical_form": True, "homogeneity": True,
              "multicover_roundtrip": True, "t0_consistency": True, "t_degree_bound": True}
FROBENIUS_ROUTE = {"dual_route_agreement": True, "frobenius_closed_forms": True,
                   "mirror_map_match": True, "phi_t_independent": True,
                   "scaling_match": True}
CONVEX_ONLY = {st for st in CRITICAL_BUNDLES if not st.concave}


@pytest.mark.parametrize("st", CRITICAL_BUNDLES, ids=lambda st: f"P{st.n}:{st}")
def test_checks_are_the_asserted_identities(st):
    expected = EVERY_CASE | (FROBENIUS_ROUTE if st in CONVEX_ONLY else {})
    assert run_pipeline(st, 4).checks == expected


def test_invert_multicover_examples():
    out = invert_multicover([Fraction(1), Fraction(1, 8), Fraction(1, 27)])
    assert [(d, v) for d, v, _ in out] == [(1, 1), (2, 0), (3, 0)]
    assert all(flag for _, _, flag in out)
    out = invert_multicover([Fraction(3)])
    assert out == [(1, Fraction(3), True)]
    # round trip
    K = [Fraction(3), Fraction(-45, 8), Fraction(244, 9)]
    assert recompose_multicover(invert_multicover(K)) == K


def test_invert_multicover_flags_non_integral():
    out = invert_multicover([Fraction(1, 2)])
    assert out == [(1, Fraction(1, 2), False)]


def test_run_pipeline_rejects_unsupported():
    with pytest.raises(PipelineError) as exc:
        run_pipeline(SplittingType(2, (2, 2), ()), 3)
    assert "list-critical" in str(exc.value)
    with pytest.raises(PipelineError):
        run_pipeline(SplittingType(2, (2,), ()), 3)  # CASE3, not critical


def test_run_pipeline_p4_relation():
    res3 = run_pipeline(P3_CONCAVEX, 6)
    res4 = run_pipeline(P4_CONCAVEX, 6)
    for d in range(1, 7):
        assert res4.K[d - 1] == 4 * (-1) ** d * res3.K[d - 1]


def test_run_pipeline_quintic_checks():
    res = run_pipeline(QUINTIC, 4)
    assert res.case is PipelineCase.CASE1
    assert all(res.checks.values())
    assert res.checks["dual_route_agreement"]
    assert [v for _, v, _ in res.instanton[:3]] == [2875, 609250, 317206375]


@pytest.mark.parametrize("st", CRITICAL_BUNDLES, ids=lambda st: f"P{st.n}:{st}")
def test_instanton_numbers_integral_at_bench_depth(st):
    result = run_pipeline(st, 30)
    assert all(result.checks.values())
    assert [d for d, _, integral in result.instanton if not integral] == []
    if st == QUINTIC:
        assert [v for _, v, _ in result.instanton[:4]] == [2875, 609250, 317206375,
                                                          242467530000]


def test_instanton_numbers_integral_at_the_order_cap():
    # the quintic at the --order cap carries the widest coefficients of any
    # admitted input (K_d of up to 324 integer digits)
    result = run_pipeline(QUINTIC, MAX_ORDER)
    assert all(result.checks.values())
    assert [d for d, _, _ in result.instanton] == list(range(1, MAX_ORDER + 1))
    assert [d for d, _, integral in result.instanton if not integral] == []
    assert max(len(str(abs(int(k)))) for k in result.K) == 324
    assert [v for _, v, _ in result.instanton[:4]] == [2875, 609250, 317206375, 242467530000]


# ---------------------------------------------------------------------
# the full expansion and the Fraction-arithmetic forms, kept as the
# oracles of the Horner and integer forms the pipeline computes


def reference_normalized_columns(series, om, scaling, shift):
    """{i: q-series}: the x^i coefficients of
    F0 * e^(xg) * (c x^h + S(x)) - c x^h for min(h, 0) <= i <= n, each
    summed over every power g^j/j!."""
    c, h, n = om.scalar, om.h_exponent, series.n
    lo = min(h, 0)
    target = {i: series.column(i) * scaling for i in range(n + 1)}
    target[h] = target.get(h, ScalarQSeries.zero(series.order)) + scaling * c
    powers = [ScalarQSeries.one(series.order)]  # g^j / j!
    for j in range(1, n - lo + 1):
        powers.append(powers[-1] * shift * Fraction(1, j))
    out = {}
    for i in range(lo, n + 1):
        acc = ScalarQSeries.zero(series.order) - (c if i == h else 0)
        for j in range(i - lo + 1):
            if i - j in target:
                acc = acc + powers[j] * target[i - j]
        out[i] = acc
    return out


def reference_f0(st, order):
    """sum_d prod_a (l_a d)! / (d!)^(n+1) q^d, one Fraction per term."""
    return ScalarQSeries(order, [Fraction(math.prod(math.factorial(l * d) for l in st.convex),
                                          math.factorial(d) ** (st.n + 1))
                                 for d in range(order + 1)])


def reference_g1(st, order):
    """f0[d] * sum_a l_a (H[l_a d] - H[d]), H the Fraction harmonic numbers."""
    f0 = reference_f0(st, order)
    H = [Fraction(0)]
    for m in range(1, max(st.convex, default=0) * order + 1):
        H.append(H[-1] + Fraction(1, m))
    return ScalarQSeries(order, [Fraction(0)] + [
        f0[d] * sum((l * (H[l * d] - H[d]) for l in st.convex), Fraction(0))
        for d in range(1, order + 1)])


def reference_invert_multicover(K):
    """n_d = K_d - sum over proper divisors k of n_(d/k) / k^3, in Fractions."""
    values, out = {}, []
    for d in range(1, len(K) + 1):
        val = K[d - 1]
        for k in range(2, d + 1):
            if d % k == 0:
                val -= values[d // k] * Fraction(1, k ** 3)
        values[d] = val
        out.append((d, val, val.denominator == 1))
    return out


def reference_recompose_multicover(n_values):
    return [sum((n_values[d // k - 1][1] * Fraction(1, k ** 3)
                 for k in range(1, d + 1) if d % k == 0), Fraction(0))
            for d in range(1, len(n_values) + 1)]


def q_power(order, k, coeff=1):
    return ScalarQSeries(order, [0] * k + [coeff])


@pytest.mark.parametrize("order", [1, 2, 5, 12, 30])
@pytest.mark.parametrize("st", CRITICAL_BUNDLES, ids=lambda st: f"P{st.n}:{st}")
def test_normalized_columns_match_the_full_expansion(st, order):
    # with the true F0 and g, and with q^1 or q^D terms added to either
    series = build_hypergeom_series(st, order)
    om = omega_class(st)
    scaling, shift = compute_normalization(series, st)
    pairs = [(scaling, shift)]
    for k in sorted({1, order}):
        bump = q_power(order, k, Fraction(-7, 3))
        pairs += [(scaling + bump, shift), (scaling, shift + bump), (scaling - bump, shift + bump)]
    for pair in pairs:
        assert (_normalized_columns(series, om, *pair)
                == reference_normalized_columns(series, om, *pair))


def test_normalized_columns_make_at_most_ten_products(monkeypatch):
    # 4 products F0 A_i and 1 + 2 + 3 Horner steps in g per bundle
    import mirrorcalc.qseries as qseries

    calls = []
    product = qseries._int_product

    def counted(a, b):
        calls.append(len(a))
        return product(a, b)

    monkeypatch.setattr(qseries, "_int_product", counted)
    for st in CRITICAL_BUNDLES:
        series = build_hypergeom_series(st, 30)
        scaling, shift = compute_normalization(series, st)
        calls.clear()
        _normalized_columns(series, omega_class(st), scaling, shift)
        assert len(calls) == 10, st


def test_run_pipeline_solves_once_per_bundle(monkeypatch):
    import mirrorcalc.pipeline as pipeline

    calls = []
    solve = pipeline._solve_from_weighted_sum

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(pipeline, "_solve_from_weighted_sum", counted)
    for st in CRITICAL_BUNDLES:
        run_pipeline(st, 6)
    assert len(calls) == len(CRITICAL_BUNDLES)


@pytest.mark.parametrize("st", CASE1_CRITICAL, ids=str)
def test_closed_forms_match_the_fraction_oracle(st):
    for order in range(61):
        assert f0_closed_form(st, order) == reference_f0(st, order)
        assert g1_closed_form(st, order) == reference_g1(st, order)


def test_closed_forms_and_multicover_do_no_fraction_arithmetic(monkeypatch):
    # Fractions are built only for the returned n_d and recomposed K_d
    K = run_pipeline(QUINTIC, 30).K
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, method=method, name=name: calls.append(name)
                            or method(*args))
    f0_closed_form(QUINTIC, 30)
    g1_closed_form(QUINTIC, 30)
    recompose_multicover(invert_multicover(K))
    assert calls == []


rationals = hs.builds(Fraction, hs.integers(-2 ** 400, 2 ** 400), hs.integers(1, 2 ** 400))
k_values = hs.lists(hs.one_of(hs.just(Fraction(0)), hs.integers(-9, 9).map(Fraction), rationals),
                    min_size=1, max_size=40)


@settings(max_examples=150)
@given(k_values)
def test_multicover_matches_the_fraction_oracle(K):
    # Moebius inversion and the recomposition, each on K and on n
    # values taken as given, against the Fraction recursions
    instanton = invert_multicover(K)
    assert instanton == reference_invert_multicover(K)
    assert recompose_multicover(instanton) == K
    given_n = [(d, v, v.denominator == 1) for d, v in enumerate(K, 1)]
    assert recompose_multicover(given_n) == reference_recompose_multicover(given_n)


RAISED_H = [st for st in CRITICAL_BUNDLES if omega_class(st).h_exponent >= 1]


@pytest.mark.parametrize("st", RAISED_H, ids=lambda st: f"P{st.n}:{st}")
def test_t_degree_check_catches_a_raw_column_below_h(st):
    # q^k added to a raw column S_i, i < h, leaves N_i = F0 q^k + ... in
    # the full expansion; the scan reports q^k, or q^j when F0 is also
    # off at a lower q^j
    order, h = 4, omega_class(st).h_exponent
    series = build_hypergeom_series(st, order)
    for i in range(h):
        for k in range(1, order + 1):
            columns = list(series.columns)
            columns[i] = columns[i] + q_power(order, k)
            broken = CohomSeries(st.n, order, columns, series.degrees)
            scaling, shift = compute_normalization(broken, st)
            for j in (None, 1, order):
                wrong = scaling if j is None else scaling + q_power(order, j)
                first = k if j is None else min(j, k)
                with pytest.raises(PipelineError) as exc:
                    extract_euler_numbers(broken, st, wrong, shift)
                assert str(exc.value) == f"integrated series has t-degree > 1 at q^{first}"
                degrees = canonical_alpha_degrees(broken, st, wrong, shift)
                assert min(d for d, deg in degrees.items() if deg > -2) == first


def perturb_prepotential(monkeypatch, k):
    """Make frobenius_basis add q^k a_0 to the t^0 row a_3 of f_3: then
    b_3 = a_3/a_0 and the prepotential change at q^k alone."""
    import mirrorcalc.pipeline as pipeline

    basis_of = pipeline.frobenius_basis

    def perturbed(series, st):
        basis = basis_of(series, st)
        rows = list(basis[3].rows)
        rows[0] = rows[0] + basis[0].t_coefficient(0).shift(k)
        basis[3] = TSeries.from_rows(series.order, rows)
        return basis

    monkeypatch.setattr(pipeline, "frobenius_basis", perturbed)


@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("st", CASE1_CRITICAL, ids=str)
def test_dual_route_catches_a_perturbed_prepotential(st, k, monkeypatch):
    perturb_prepotential(monkeypatch, k)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(st, 6)
    assert str(exc.value) == "prepotential route disagrees with the integral route"


def test_dual_route_checks_the_prepotential_at_q0(monkeypatch):
    # 2 Phi == N_n holds at q^0 too; solving Phi for K never read q^0
    perturb_prepotential(monkeypatch, 0)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(QUINTIC, 6)
    assert str(exc.value) == "prepotential route disagrees with the integral route"


def test_public_names_resolve():
    missing = [name for name in mirrorcalc.__all__ if not hasattr(mirrorcalc, name)]
    assert missing == []
