from __future__ import annotations

import random
from fractions import Fraction

import pytest

from siegelcy.mpoly import MPoly, graded_membership, rational_jacobian
from siegelcy.variety import (
    G_VARS,
    PARAM_VARS,
    SMOOTH_CONTROL_POINT_Y,
    Y_VARS,
    CurveRep,
    SignedMonomialMap,
    _linear_quotient,
    ambient_group,
    blowup_chart_check,
    canonical_curve_key,
    case1_chart,
    case3_chart,
    coordinate_change_check,
    curve_checks,
    curve_orbits,
    curve_to_x,
    equation_invariance,
    group_closure,
    jacobian_closed_form,
    jacobian_identity_check,
    jacobian_rank_at,
    line_curve_y,
    nested_radical_maps,
    omega_pullback_sign,
    omega_stabilizer,
    point_on_variety,
    presentation_x,
    presentation_y,
    quadric_curve_y,
    symmetry_generators,
)


def test_sample_points_on_both_presentations():
    pres_x = presentation_x()
    assert point_on_variety(pres_x, (1, 0, 0, 0, 0, 1))
    pres_y = presentation_y()
    assert point_on_variety(pres_y, (0, 1, 0, 0, 1, 0))


def test_presentations_are_homogeneous():
    for pres in (presentation_y(), presentation_x()):
        assert pres.quartic.homogeneous_degree() == 4
        assert pres.quadric.homogeneous_degree() == 2


def test_coordinate_change():
    report = coordinate_change_check()
    assert report.failed_step is None
    assert report.matrix_determinant != 0
    # 2*y5^2 maps to 2*x5^2, and both quadrics carry the squared last
    # coordinate with coefficient +-(1 resp. 2), so the scalar is exactly 2
    assert report.quadric_scalar == Fraction(2)
    assert report.inverse_quadric_scalar == Fraction(1, 2)
    # exact division: a float would print as "2.0" in the report
    assert [str(report.quadric_scalar), str(report.inverse_quadric_scalar),
            str(report.matrix_determinant)] == ["2", "1/2", "1024"]


# -- group ------------------------------------------------------------------

def test_symmetry_closure_has_order_48():
    group = group_closure(symmetry_generators())
    assert len(group) == 48
    assert SignedMonomialMap.identity(6) in group


def test_closure_safety_bound():
    with pytest.raises(RuntimeError):
        group_closure(symmetry_generators(), bound=10)


def test_all_48_fix_both_equations_with_plus_sign():
    pres = presentation_x()
    for g in group_closure(symmetry_generators()):
        assert equation_invariance(g, pres) == (1, 1)


def test_x5_flip_fixes_equations():
    pres = presentation_x()
    assert equation_invariance(SignedMonomialMap.sign_flip(6, 5), pres) == (1, 1)


def test_swapping_x0_x1_is_not_an_automorphism():
    pres = presentation_x()
    swap01 = SignedMonomialMap((1, 0, 2, 3, 4, 5), (1,) * 6)
    assert equation_invariance(swap01, pres) is None


@pytest.mark.parametrize("perm, sign", [
    ((0, 0, 2), (1, 1, 1)),  # not a permutation
    ((1, 2, 3), (1, 1, 1)),
    ((0, 1, 2), (1, 1)),  # sign vector of the wrong length
    ((0, 1, 2), (1, 0, -1)),  # a sign outside +-1
    ((0, 1, 2), (1, 2, 1)),
])
def test_signed_monomial_map_refuses_non_signed_permutations(perm, sign):
    with pytest.raises(ValueError):
        SignedMonomialMap(perm, sign)


def test_replaced_signed_monomial_maps_are_validated():
    # `_replace` and `_make` build through the same check as construction
    with pytest.raises(ValueError):
        SignedMonomialMap.identity(3)._replace(sign=(5, 5))
    with pytest.raises(ValueError):
        SignedMonomialMap._make(((0, 0, 1), (1, 1, 1)))
    assert (SignedMonomialMap.identity(3)._replace(sign=(1, -1, 1))
            == SignedMonomialMap.sign_flip(3, 1))


def test_signed_monomial_maps_are_values():
    a = SignedMonomialMap((0, 2, 1, 3, 4, 5), (1, 1, 1, 1, 1, -1))
    b = SignedMonomialMap(tuple([0, 2, 1, 3, 4, 5]), tuple([1] * 5 + [-1]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != a.negate_all()
    assert repr(a) == "SignedMonomialMap(perm=(0, 2, 1, 3, 4, 5), sign=(1, 1, 1, 1, 1, -1))"


def test_group_composition_and_inverse():
    rng = random.Random(12)
    group = list(group_closure(symmetry_generators()))
    for _ in range(50):
        g, h = rng.choice(group), rng.choice(group)
        gh = g * h
        assert gh in set(group)
        assert (g * g.inverse()) == SignedMonomialMap.identity(6)
        f = MPoly.var(("x0", "x1", "x2", "x3", "x4", "x5"), "x1")
        assert g.apply(h.apply(f)) == gh.apply(f)


def test_apply_is_the_defining_substitution():
    # f o sigma with x_i -> sign[i] * x_perm[i], on every ambient element
    polys = [f for pres in (presentation_x(), presentation_y()) for f in pres.gens()]
    for curve in (quadric_curve_y(), line_curve_y()):
        polys += curve.ideal + curve_to_x(curve).ideal
    for g in ambient_group():
        for f in polys:
            gens = MPoly.ring(f.vars)
            assignment = {v: g.sign[i] * gens[g.perm[i]] for i, v in enumerate(f.vars)}
            assert g.apply(f) == f.substitute(assignment)


# -- omega -------------------------------------------------------------------

def test_perm_parity_on_an_invariant_index_set():
    swap = SignedMonomialMap((0, 2, 1, 3, 4, 5), (1,) * 6)
    cycle = SignedMonomialMap((0, 2, 3, 1, 4, 5), (1,) * 6)
    outside = SignedMonomialMap((4, 1, 2, 3, 0, 5), (1,) * 6)
    assert swap.perm_parity_on((1, 2, 3)) == -1
    assert cycle.perm_parity_on((1, 2, 3)) == 1
    assert (swap * cycle).perm_parity_on((1, 2, 3)) == -1
    assert (outside * swap).perm_parity_on((1, 2, 3)) == -1
    assert outside.perm_parity_on((1, 2, 3)) == 1
    assert outside.perm_parity_on((0, 4)) == -1


def test_omega_signs_of_named_generators():
    swap_with_flip = SignedMonomialMap((0, 2, 1, 3, 4, 5), (1, 1, 1, 1, 1, -1))
    assert omega_pullback_sign(swap_with_flip) == 1
    assert omega_pullback_sign(SignedMonomialMap.sign_flip(6, 1, 2)) == 1
    assert omega_pullback_sign(SignedMonomialMap.sign_flip(6, 4, 5)) == 1
    assert omega_pullback_sign(SignedMonomialMap.sign_flip(6, 4)) == -1


def test_omega_stabilizer_report():
    report = omega_stabilizer()
    assert report.ambient_order == 192
    assert report.equation_fixing_order == 96
    assert report.stabilizer_order == 48
    # the coordinate swap (with the last flip), the 3-cycle and the double
    # flips inside x1..x3 all fix the form
    assert SignedMonomialMap((0, 2, 1, 3, 4, 5), (1, 1, 1, 1, 1, -1)) in report.stabilizer
    assert SignedMonomialMap((0, 2, 3, 1, 4, 5), (1,) * 6) in report.stabilizer
    for i, j in ((1, 2), (2, 3), (1, 3)):
        assert SignedMonomialMap.sign_flip(6, i, j) in report.stabilizer
    assert report.x4_flip_sign == -1
    assert report.x4_x5_flip_sign == 1
    assert report.projective_order == 48
    # closure: the stabilizer is a group
    stab = report.stabilizer
    rng = random.Random(9)
    stab_list = list(stab)
    for _ in range(50):
        assert rng.choice(stab_list) * rng.choice(stab_list) in stab


def test_omega_sign_is_multiplicative_on_equation_fixers():
    pres = presentation_x()
    fixers = [g for g in ambient_group() if equation_invariance(g, pres) == (1, 1)]
    rng = random.Random(2)
    for _ in range(30):
        g, h = rng.choice(fixers), rng.choice(fixers)
        assert omega_pullback_sign(g * h) == omega_pullback_sign(g) * omega_pullback_sign(h)


def test_omega_sign_matches_its_closed_form_on_every_equation_fixer():
    # u_i -> s_i s4 u_pi(i) multiplies du1^du2^du3 by s1 s2 s3 s4 * parity;
    # quartic invariance forces s1 s2 s3 = 1, so u1 u2 u3 - 2 u0 and u5 go to
    # s4 and s4 s5 times themselves, and the coefficient picks up s5
    pres = presentation_x()
    fixers = [g for g in ambient_group() if equation_invariance(g, pres) == (1, 1)]
    assert len(fixers) == 96
    for g in fixers:
        assert omega_pullback_sign(g) == g.sign[4] * g.sign[5] * g.perm_parity_on((1, 2, 3))


# -- curves -------------------------------------------------------------------

def test_quadric_curve_checks_in_y():
    report = curve_checks(quadric_curve_y(), presentation_y())
    assert report.all_ok()


def test_line_curve_checks_in_y():
    report = curve_checks(line_curve_y(), presentation_y())
    assert report.all_ok()


def test_transported_curves_check_in_x():
    pres = presentation_x()
    for seed in (quadric_curve_y(), line_curve_y()):
        report = curve_checks(curve_to_x(seed), pres)
        assert report.all_ok(), seed.name


def test_transported_parametrizations_are_integral():
    for seed in (quadric_curve_y(), line_curve_y()):
        for p in curve_to_x(seed).param:
            assert all(type(c) is int for c in p.terms.values()), seed.name


def _smooth_point_line() -> CurveRep:
    point = [int(2 * c) for c in SMOOTH_CONTROL_POINT_Y]
    y = MPoly.ring(Y_VARS)
    t, _ = MPoly.ring(PARAM_VARS)
    ideal = tuple(point[0] * y[i] - point[i] * y[0] for i in range(1, 6))
    return CurveRep("smooth_point", ideal, tuple(c * t for c in point))


def test_minors_catch_a_line_through_a_smooth_point():
    # the cone over the smooth control point lies on the threefold and in
    # its linear ideal, but the Jacobian has rank two along it
    report = curve_checks(_smooth_point_line(), presentation_y())
    assert report.param_satisfies_ideal and report.equations_in_ideal
    assert not report.minors_vanish


def _curves_with_presentations():
    seeds = [quadric_curve_y(), line_curve_y()]
    x_curves = curve_orbits(omega_stabilizer().stabilizer, [curve_to_x(c) for c in seeds])
    pres_x, pres_y = presentation_x(), presentation_y()
    return ([(c, pres_x) for orbit in x_curves for c in orbit]
            + [(c, pres_y) for c in seeds + [_smooth_point_line()]])


def test_linear_quotient_membership_matches_the_full_ideal():
    # the full-ideal membership is the reference the quotient replaces
    pairs = _curves_with_presentations()
    assert len(pairs) == 18
    for curve, pres in pairs:
        _, reduce = _linear_quotient(curve)
        quotient = [reduce(g) for g in curve.ideal]
        assert sum(not g.is_zero() for g in quotient) <= 1, curve.name
        for f in pres.gens():
            in_quotient = graded_membership(reduce(f), quotient) is not None
            assert in_quotient == (graded_membership(f, list(curve.ideal)) is not None)
            assert in_quotient == curve_checks(curve, pres).equations_in_ideal


def test_linear_quotient_is_sound():
    # reduce is idempotent, kills the linear generators and moves every
    # polynomial only by a member of their span
    for curve, pres in _curves_with_presentations():
        _, reduce = _linear_quotient(curve)
        linear = [g for g in curve.ideal if g.total_degree() == 1]
        assert linear and all(reduce(g).is_zero() for g in linear)
        for f in pres.gens() + list(curve.ideal):
            assert reduce(reduce(f)) == reduce(f)
            assert graded_membership(f - reduce(f), linear) is not None, curve.name


def test_a_line_off_the_threefold_fails_containment():
    # on y0 = y1 = y2 = y3 = 0 the quartic restricts to y5^4
    y = MPoly.ring(Y_VARS)
    t, u = MPoly.ring(PARAM_VARS)
    zero = MPoly.zero(PARAM_VARS)
    curve = CurveRep("y_line", tuple(y[:4]), (zero, zero, zero, zero, t, u))
    report = curve_checks(curve, presentation_y())
    assert report.param_satisfies_ideal
    assert not report.equations_in_ideal
    _, reduce = _linear_quotient(curve)
    assert reduce(presentation_y().quartic) == y[5] ** 4


def test_curve_key_ignores_how_the_ideal_is_written():
    curve = curve_to_x(quadric_curve_y())
    linear = [g for g in curve.ideal if g.total_degree() == 1]
    (quadric,) = [g for g in curve.ideal if g.total_degree() == 2]
    x0 = MPoly.ring(curve.ideal[0].vars)[0]
    key = canonical_curve_key(curve)
    rewritten = [
        tuple(reversed(curve.ideal)),
        (-3 * linear[0], *linear[1:], quadric),
        (*linear, quadric + linear[1] * x0),
    ]
    for ideal in rewritten:
        assert canonical_curve_key(curve._replace(ideal=ideal)) == key
    assert canonical_curve_key(curve._replace(ideal=(*linear, 3 * quadric))) == key
    assert canonical_curve_key(curve._replace(ideal=(*linear[1:], quadric))) != key


def test_curve_orbits_sizes():
    stab = omega_stabilizer().stabilizer
    seeds = [curve_to_x(quadric_curve_y()), curve_to_x(line_curve_y())]
    orbits = curve_orbits(stab, seeds)
    assert sorted(len(o) for o in orbits) == [3, 12]
    pres = presentation_x()
    all_curves = [c for orbit in orbits for c in orbit]
    assert len(all_curves) == 15
    keys = {canonical_curve_key(c) for c in all_curves}
    assert len(keys) == 15
    for c in all_curves:
        assert curve_checks(c, pres).all_ok()


def test_smooth_control_point():
    pres = presentation_y()
    assert point_on_variety(pres, SMOOTH_CONTROL_POINT_Y)
    assert jacobian_rank_at(pres, SMOOTH_CONTROL_POINT_Y) == 2


def test_singular_point_has_rank_below_two():
    # a point on the quadric-type curve: parameters t = u = 1
    pres = presentation_y()
    point = (-1, -1, -1, 1, 1, 1)
    assert point_on_variety(pres, point)
    assert jacobian_rank_at(pres, point) < 2


# -- jacobian identities -------------------------------------------------------

def test_jacobian_identity():
    assert jacobian_identity_check()


def test_jacobian_identity_falsification_control():
    assert not jacobian_identity_check(scale=1)
    assert not jacobian_identity_check(scale=5)


def test_jacobian_closed_form_vanishes_at_unit_point():
    values = {"g1": 1, "g2": 1, "g3": 1}
    for num, den in (jacobian_closed_form(),
                     rational_jacobian(*nested_radical_maps(), list(G_VARS))):
        assert num.evaluate(values) == 0
        assert den.evaluate(values) != 0


def test_nested_radical_maps_are_the_papers_combinations():
    # N_i / (g1 g2 g3) against g1g2/g3 + g3/(g1g2) and its two relabellings
    numerators, den = nested_radical_maps()
    rng = random.Random(11)
    for _ in range(20):
        g1, g2, g3 = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                      for _ in range(3))
        values = {"g1": g1, "g2": g2, "g3": g3}
        paper = [g1 * g2 / g3 + g3 / (g1 * g2),
                 g1 * g3 / g2 + g2 / (g1 * g3),
                 g2 * g3 / g1 + g1 / (g2 * g3)]
        d = den.evaluate(values)
        assert [n.evaluate(values) / d for n in numerators] == paper


def test_bordered_jacobian_sign_is_minus_one():
    # with the function row on top the bordered determinant is minus
    # f4^4 times the affine Jacobian; the plain-stated identity is the
    # +1 case and is therefore false with this row placement
    from siegelcy.variety import bordered_jacobian_sign

    assert bordered_jacobian_sign() == -1


def test_bordered_jacobian_trivial_case():
    # f = (z0, z1, z2, 1): bordered determinant is -1, affine Jacobian is 1
    from siegelcy.variety import H_VARS
    from siegelcy.mpoly import determinant

    gens = {v: MPoly.var(H_VARS, v) for v in H_VARS}
    f = [gens[f"f{j}"] for j in range(1, 5)]
    d = [[gens[f"d{i}{j}"] for j in range(1, 5)] for i in range(3)]
    bordered = determinant([f, d[0], d[1], d[2]])
    values = {v: 0 for v in H_VARS}
    values.update({"f4": 1, "d01": 1, "d12": 1, "d23": 1})
    assert bordered.evaluate(values) == Fraction(-1)


def test_homogeneous_jacobian_random_specializations():
    # 20 seeded integer evaluations of bordered = -f4^4 * J
    from siegelcy.variety import H_VARS
    from siegelcy.mpoly import determinant

    gens = {v: MPoly.var(H_VARS, v) for v in H_VARS}
    f = [gens[f"f{j}"] for j in range(1, 5)]
    d = [[gens[f"d{i}{j}"] for j in range(1, 5)] for i in range(3)]
    bordered = determinant([f, d[0], d[1], d[2]])
    rng = random.Random(20)
    for _ in range(20):
        values = {v: rng.randint(-4, 4) for v in H_VARS}
        if values["f4"] == 0:
            values["f4"] = 1
        w = bordered.evaluate(values)
        f4 = Fraction(values["f4"])
        entries = [[(Fraction(values[f"d{i}{j}"]) * f4
                     - Fraction(values[f"f{j}"]) * Fraction(values[f"d{i}4"])) / f4 ** 2
                    for j in range(1, 4)] for i in range(3)]
        det3 = (
            entries[0][0] * (entries[1][1] * entries[2][2] - entries[1][2] * entries[2][1])
            - entries[0][1] * (entries[1][0] * entries[2][2] - entries[1][2] * entries[2][0])
            + entries[0][2] * (entries[1][0] * entries[2][1] - entries[1][1] * entries[2][0])
        )
        assert w == -(f4 ** 4) * det3


# -- blow-up charts ---------------------------------------------------------------

def test_case1_blowup_chart():
    report = blowup_chart_check(case1_chart())
    assert report.pullback_matches
    assert report.zero_divisors == ("z2",)
    assert report.transformed_group_matches
    assert not report.inverted_identity_holds


def test_case3_blowup_chart():
    report = blowup_chart_check(case3_chart())
    assert report.pullback_matches
    assert report.zero_divisors == ("z2", "z3")
    assert report.transformed_group_matches
    assert not report.inverted_identity_holds


def test_group_transport_follows_the_chart_exponents():
    chart = case3_chart()
    first_ratio = {**chart.substitution_monomials, "z1": (1, 1, 0)}
    report = blowup_chart_check(chart._replace(substitution_monomials=first_ratio))
    assert not report.transformed_group_matches
