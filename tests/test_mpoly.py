from __future__ import annotations

import random
from fractions import Fraction

import pytest

from siegelcy import mpoly
from siegelcy.mpoly import (
    MPoly,
    RingMap,
    ThreeForm,
    graded_membership,
    monomials_of_degree,
    rational_jacobian,
    threeform_pullback,
)
from siegelcy.variety import COORD_MATRIX

XY = ("x", "y")
UV = ("u", "v")


def test_binomial_substitution():
    x, y = MPoly.ring(XY)
    u, v = MPoly.ring(UV)
    f = x ** 2
    expanded = RingMap(XY, {"x": u + v})(f)
    assert expanded == u ** 2 + 2 * u * v + v ** 2


def test_substituting_zero():
    x, _ = MPoly.ring(XY)
    assert RingMap(XY, {"x": MPoly.zero(UV)})(x).is_zero()


def test_unassigned_variable_is_named():
    x, y = MPoly.ring(XY)
    with pytest.raises(KeyError, match="y"):
        RingMap(XY, {"x": MPoly.var(UV, "u")})(x * y)


def test_values_from_two_rings_or_kinds_are_refused():
    x, y = MPoly.ring(XY)
    u, v = MPoly.ring(UV)
    with pytest.raises(ValueError):
        RingMap(XY, {"x": u, "y": MPoly.var(XY, "y")})(x * y)
    with pytest.raises(ValueError):
        RingMap(XY, {"x": u, "y": Fraction(1, 2)})(x * y)
    with pytest.raises(ValueError):
        RingMap(XY, {"x": Fraction(1, 2)})(x)


def _random_poly(rng: random.Random, variables) -> MPoly:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(0, 3) for _ in variables)
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MPoly(variables, terms)


def test_one_ring_map_equals_a_fresh_substitution_per_polynomial():
    # the map keeps every monomial image it builds, so later polynomials read
    # images of earlier ones; the reference expands each term by products
    xyz = ("x", "y", "z")
    rng = random.Random(39)
    for _ in range(20):
        assignment = {v: _random_poly(rng, UV) for v in xyz}
        ring_map = RingMap(xyz, assignment)
        for _ in range(6):
            f = _random_poly(rng, xyz)
            expanded = MPoly.zero(UV)
            for e, c in f.terms.items():
                term = MPoly.const(UV, c)
                for v, k in zip(xyz, e):
                    term = term * assignment[v] ** k
                expanded = expanded + term
            assert ring_map(f) == RingMap(xyz, assignment)(f) == expanded
    with pytest.raises(ValueError):
        ring_map(MPoly.ring(XY)[0])


def _eliminated_determinant(rows) -> Fraction:
    """Gaussian elimination over Q with row swaps, the reference."""
    a = [[Fraction(v) for v in row] for row in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            ratio = a[i][k] / a[k][k]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[k])]
    return det


def test_determinant_over_the_integers():
    # seeded int matrices up to 5 x 5, most entries zero, against exact
    # elimination: the permutation sum stays in int arithmetic
    rng = random.Random(40)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)]
                for _ in range(n)]
        det = mpoly.determinant(rows)
        assert type(det) is int and det == _eliminated_determinant(rows)
    singular = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]
    assert mpoly.determinant(singular) == 0 == _eliminated_determinant(singular)
    assert mpoly.determinant(COORD_MATRIX) == 1024 == _eliminated_determinant(COORD_MATRIX)


def test_ring_axioms_on_seeded_triples():
    rng = random.Random(21)
    for _ in range(100):
        a, b, c = (_random_poly(rng, XY) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_sums_and_equality_take_polynomials_of_one_ring():
    x, _ = MPoly.ring(XY)
    u, _ = MPoly.ring(UV)
    for scalar in (1, Fraction(1, 2)):
        for refused in (lambda: x + scalar, lambda: scalar + x,
                        lambda: x - scalar, lambda: scalar - x):
            with pytest.raises(TypeError):
                refused()
        assert MPoly.const(XY, scalar) != scalar
    assert MPoly.zero(XY) != 0
    with pytest.raises(ValueError):
        x + u
    assert x != u
    # scalars enter through * and const
    assert 2 * x == x * 2 == x + x
    assert x * Fraction(1, 2) + MPoly.const(XY, 1) == MPoly(XY, {(1, 0): Fraction(1, 2),
                                                                (0, 0): 1})


def test_degree_and_homogeneity():
    x, y = MPoly.ring(XY)
    f = x ** 2 * y + x * y ** 2
    assert f.total_degree() == 3
    assert f.is_homogeneous()
    assert not (f + x).is_homogeneous()
    assert MPoly.zero(XY).is_homogeneous()


def test_monomial_enumeration_counts():
    assert len(monomials_of_degree(("a", "b", "c"), 4)) == 15
    assert len(monomials_of_degree(("a",) * 6, 2)) == 21
    assert monomials_of_degree(XY, 0) == [(0, 0)]


# -- graded membership ----------------------------------------------------

def test_membership_square_in_linear_ideal():
    x, y = MPoly.ring(XY)
    assert graded_membership(x ** 2, [x]) == (x,)
    # a generator of f's degree takes a constant cofactor, a higher one zero
    assert graded_membership(3 * x * y, [x * y, x ** 4]) == (MPoly.const(XY, 3),
                                                            MPoly.zero(XY))
    assert graded_membership(MPoly.zero(XY), [x, y]) == (MPoly.zero(XY),) * 2


def test_membership_degree_obstruction():
    x, _ = MPoly.ring(XY)
    assert graded_membership(x, [x ** 2]) is None


def test_membership_rejects_inhomogeneous():
    x, y = MPoly.ring(XY)
    with pytest.raises(ValueError):
        graded_membership(x + x ** 2, [x])


def test_membership_certificate_iff_reexpansion():
    rng = random.Random(5)
    x, y = MPoly.ring(XY)
    gens = [x ** 2 + y ** 2, x * y]
    for _ in range(20):
        # random degree-3 combination must come back as a member
        q1 = rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
        q2 = rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
        f = q1 * gens[0] + q2 * gens[1]
        if f.is_zero():
            continue
        q1_found, q2_found = graded_membership(f, gens)
        assert q1_found * gens[0] + q2_found * gens[1] == f
    # and a non-member is refused: x^3 is not in (x^2+y^2) in degree 3
    assert graded_membership(x ** 3, [x ** 2 + y ** 2]) is None


def test_membership_refuses_a_solution_that_does_not_reexpand(monkeypatch):
    solve_exact = mpoly.solve_exact

    def perturbed(columns, target):
        solution = solve_exact(columns, target)
        if solution is not None:
            solution[0] += 1
        return solution

    x, y = MPoly.ring(XY)
    monkeypatch.setattr(mpoly, "solve_exact", perturbed)
    with pytest.raises(ArithmeticError):
        graded_membership(x ** 2 * y, [x ** 2 + y ** 2, x * y])
    # a non-member is still decided by the solver alone
    assert graded_membership(x ** 3, [x ** 2 + y ** 2]) is None


# -- jacobians ------------------------------------------------------------

G3 = ("g1", "g2", "g3")


def test_identity_map_jacobian():
    one = MPoly.const(G3, 1)
    num, den = rational_jacobian(MPoly.ring(G3), one, list(G3))
    assert num == den == one


def test_diagonal_jacobian():
    g1, g2, g3 = MPoly.ring(G3)
    num, den = rational_jacobian([g1 * g1, g2, g3], MPoly.const(G3, 1), list(G3))
    assert num == 2 * g1 * den


def test_jacobian_of_maps_over_a_common_denominator():
    # (g1/g3, g2/g3, 1/g3) has Jacobian -1/g3^4; the pair is -g3^2 over g3^6
    g1, g2, g3 = MPoly.ring(G3)
    num, den = rational_jacobian([g1, g2, MPoly.const(G3, 1)], g3, list(G3))
    assert den == g3 ** 6
    assert num * g3 ** 4 == -den


def test_jacobian_multiplicative_under_composition():
    rng = random.Random(17)
    vars3 = G3
    one = MPoly.const(vars3, 1)

    def random_map(rng) -> list[MPoly]:
        gens = [MPoly.var(vars3, v) for v in vars3]
        out = []
        for i in range(3):
            p = gens[i] + rng.randint(0, 2) * gens[(i + 1) % 3] * gens[i]
            out.append(p * Fraction(1, rng.randint(1, 3)))
        return out

    for _ in range(20):
        f = random_map(rng)
        g = random_map(rng)
        at_g = dict(zip(vars3, g))
        # compose: (f o g)_i = f_i(g1, g2, g3)
        along_g = RingMap(vars3, at_g)
        comp = [along_g(fi) for fi in f]
        jf, jf_den = rational_jacobian(f, one, list(vars3))
        jg, jg_den = rational_jacobian(g, one, list(vars3))
        lhs, lhs_den = rational_jacobian(comp, one, list(vars3))
        rhs, rhs_den = along_g(jf) * jg, along_g(jf_den) * jg_den
        assert lhs * rhs_den == rhs * lhs_den


# -- three-forms --------------------------------------------------------------

Z3 = ("z1", "z2", "z3")


def _dz() -> ThreeForm:
    one = MPoly.const(Z3, 1)
    return ThreeForm(Z3, one, one, ("z1", "z2", "z3"))


def test_wedge_outside_chart_order_is_refused():
    # no sort and no sign: a swapped, repeated, foreign or short wedge
    one = MPoly.const(Z3, 1)
    for wedge in (("z2", "z1", "z3"), ("z1", "z1", "z2"), ("z1", "z2", "w"), ("z1", "z2")):
        with pytest.raises(ValueError, match="chart order"):
            ThreeForm(Z3, one, one, wedge)


def test_threeform_equality_by_cross_multiplication():
    z1, z2, z3 = MPoly.ring(Z3)
    one = MPoly.const(Z3, 1)
    wedge = ("z1", "z2", "z3")
    spurious = ThreeForm(Z3, z1 * z2, z1 * (z3 + one), wedge)   # z2/(z3 + 1)
    assert spurious == ThreeForm(Z3, z2, z3 + one, wedge)
    assert spurious != ThreeForm(Z3, z2, one, wedge)
    assert -spurious == ThreeForm(Z3, -z2, z3 + one, wedge)
    # forms on two wedges differ
    z4 = (*Z3, "z4")
    one4 = MPoly.const(z4, 1)
    assert ThreeForm(z4, one4, one4, Z3) != ThreeForm(z4, one4, one4, ("z1", "z2", "z4"))
    with pytest.raises(ZeroDivisionError):
        ThreeForm(Z3, one, MPoly.zero(Z3), wedge)


def test_pullback_identity():
    omega = _dz()
    subs = {v: MPoly.var(Z3, v) for v in Z3}
    assert threeform_pullback(omega, subs, Z3) == omega


def test_pullback_first_blowup_chart():
    omega = _dz()
    w_vars = ("w1", "z2", "z3")
    w1, z2, z3 = MPoly.ring(w_vars)
    subs = {"z1": w1 * z2, "z2": z2, "z3": z3}
    pulled = threeform_pullback(omega, subs, w_vars)
    assert pulled.wedge == ("w1", "z2", "z3")
    assert pulled.num == z2 * pulled.den


def test_pullback_second_blowup_chart():
    omega = _dz()
    u_vars = ("u1", "z2", "z3")
    u1, z2, z3 = MPoly.ring(u_vars)
    subs = {"z1": u1 * z2 * z3, "z2": z2, "z3": z3}
    pulled = threeform_pullback(omega, subs, u_vars)
    assert pulled.num == z2 * z3 * pulled.den


def test_pullback_degenerate_map_is_flagged():
    omega = _dz()
    z2 = MPoly.var(Z3, "z2")
    subs = {"z1": z2, "z2": z2, "z3": MPoly.var(Z3, "z3")}
    pulled = threeform_pullback(omega, subs, Z3)
    assert not omega.is_zero()
    assert pulled.is_zero()


def test_signed_chart_map_forms_one_minor(monkeypatch):
    # u_i -> +-u_j touches only three target columns, so of the C(5, 3)
    # minors formed exactly one is nonzero
    u_vars = ("u0", "u1", "u2", "u3", "u5")
    u0, u1, u2, u3, u5 = MPoly.ring(u_vars)
    omega = ThreeForm(u_vars, MPoly.const(u_vars, 1), (u1 * u2 * u3 - 2 * u0) * u5,
                      ("u1", "u2", "u3"))
    subs = {"u0": -u1, "u1": u0, "u2": u3, "u3": -u2, "u5": u5}
    minors = []
    determinant = mpoly.determinant
    monkeypatch.setattr(mpoly, "determinant", lambda m: minors.append(m) or determinant(m))
    pulled = threeform_pullback(omega, subs, u_vars)
    assert len(minors) == 10
    assert sum(not determinant(m).is_zero() for m in minors) == 1
    # du0 ^ du3 ^ d(-u2) = du0 ^ du2 ^ du3
    assert pulled == ThreeForm(u_vars, MPoly.const(u_vars, 1), (2 * u1 - u0 * u2 * u3) * u5,
                               ("u0", "u2", "u3"))


def test_pullback_contravariant_functorial():
    rng = random.Random(3)
    for _ in range(20):
        # polynomial chart maps keep the composition exact
        gens = [MPoly.var(Z3, v) for v in Z3]
        def rand_subs():
            out = {}
            for i, v in enumerate(Z3):
                out[v] = gens[i] + rng.randint(0, 1) * gens[(i + 1) % 3] ** 2
            return out

        f = rand_subs()
        g = rand_subs()
        omega = ThreeForm(Z3, gens[0] + MPoly.const(Z3, 1), gens[1] + MPoly.const(Z3, 2),
                          ("z1", "z2", "z3"))
        # pull back along f, then along g
        step = threeform_pullback(omega, f, Z3)
        twice = threeform_pullback(step, g, Z3)
        # compose f after g as a single substitution: (f o g)(v) = f(v) evaluated at g
        fog = {v: RingMap(Z3, g)(f[v]) for v in Z3}
        direct = threeform_pullback(omega, fog, Z3)
        assert twice == direct


# -- integer coefficients --------------------------------------------------------

def _all_int(f: MPoly) -> bool:
    return all(type(c) is int for c in f.terms.values())


def test_integral_fraction_is_stored_as_int():
    f = MPoly(XY, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
    assert type(f.terms[(1, 0)]) is int and f.terms[(1, 0)] == 2
    assert f.terms[(0, 1)] == Fraction(1, 2)
    assert _all_int(MPoly.const(XY, Fraction(6, 3)) * Fraction(3))
    assert _all_int(f * 2 - MPoly(XY, {(0, 1): 1}))


def test_variety_polynomials_have_int_coefficients():
    from siegelcy.variety import (
        OMEGA_CHART,
        _bordered_and_affine,
        ambient_group,
        omega_form,
        presentation_x,
        presentation_y,
    )

    for pres in (presentation_x(), presentation_y()):
        assert all(_all_int(f) for f in pres.gens())
    assert all(_all_int(f) for f in _bordered_and_affine())
    omega = omega_form()
    # u_i = x_i / x4 goes to sign[i] * sign[4] * u_perm[i]
    chart = dict(zip((0, 1, 2, 3, 5), MPoly.ring(OMEGA_CHART)))
    for g in ambient_group():
        subs = {u: g.sign[i] * g.sign[4] * chart[g.perm[i]]
                for u, i in zip(OMEGA_CHART, chart)}
        pulled = threeform_pullback(omega, subs, OMEGA_CHART)
        assert _all_int(pulled.num) and _all_int(pulled.den)
