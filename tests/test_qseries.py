from __future__ import annotations

import random

import pytest

from siegelcy.characteristics import Char, even_characteristics, odd_characteristics
from siegelcy.qseries import (
    QSeries,
    koecher_check,
    negate_offdiag,
    second_kind_qexp,
    theta_qexp,
    translate_action,
    unimodular_action,
    vanishing_order,
)


def brute_force_theta_terms(m: Char, max_g: int) -> dict:
    """Independent oracle: raw double sum over the whole lattice window of
    the phases i^(b.r), each coefficient an exact Gaussian integer
    (real part, imaginary part); no point is paired with its mirror image."""
    phases = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^0, i^1, i^2, i^3
    terms: dict = {}
    for g1 in range(-max_g, max_g + 1):
        for g2 in range(-max_g, max_g + 1):
            r1, r2 = 2 * g1 + m.a1, 2 * g2 + m.a2
            key = (r1 * r1, (r1 - r2) ** 2, r2 * r2)
            re, im = terms.get(key, (0, 0))
            dre, dim = phases[(m.b1 * r1 + m.b2 * r2) % 4]
            terms[key] = (re + dre, im + dim)
    return {k: v for k, v in terms.items() if v != (0, 0)}


def test_constant_term_of_even_zero_characteristic():
    s = theta_qexp(Char(0, 0, 0, 0), 8)
    assert s.coefficient((0, 0, 0)) == 1


def test_lowest_term_of_1100():
    s = theta_qexp(Char(1, 1, 0, 0), 8)
    oracle = brute_force_theta_terms(Char(1, 1, 0, 0), 2)
    assert s.coefficient((1, 0, 1)) == 2
    assert oracle[(1, 0, 1)] == (2, 0)
    assert min(n[0] + n[2] for n in s.terms) == 2
    assert min(s.terms, key=lambda n: (n[0] + n[2], n[1])) == (1, 0, 1)


def test_odd_characteristics_vanish_identically():
    for m in odd_characteristics():
        assert theta_qexp(m, 12).is_zero()


def test_theta_matches_brute_force_window():
    for m in even_characteristics():
        s = theta_qexp(m, 12)
        oracle = brute_force_theta_terms(m, 4)
        for n, c in s.terms.items():
            assert oracle[n] == (c, 0)
        for n, c in oracle.items():
            if n[0] + n[2] <= 12:
                assert (s.coefficient(n), 0) == c


def test_even_theta_coefficients_are_rational_integers():
    for m in even_characteristics():
        s = theta_qexp(m, 12)
        assert all(isinstance(c, int) for c in s.terms.values())


def test_second_kind_examples():
    assert second_kind_qexp((0, 0), 8).coefficient((0, 0, 0)) == 1
    s = second_kind_qexp((1, 1), 12)
    assert s.coefficient((2, 0, 2)) == 2
    assert min(n[0] + n[2] for n in s.terms) == 4
    assert all(n[0] % 2 == 0 and n[1] % 2 == 0 and n[2] % 2 == 0 for n in s.terms)


def test_series_multiplication_examples():
    one = QSeries.one(8)
    s = theta_qexp(Char(0, 0, 1, 1), 8)
    assert one * s == s
    sq = theta_qexp(Char(0, 0, 0, 0), 8) ** 2
    assert sq.coefficient((0, 0, 0)) == 1
    sq2 = theta_qexp(Char(1, 1, 0, 0), 8) ** 2
    assert sq2.coefficient((2, 0, 2)) == 4


def test_vanishing_orders_match_characteristic_bits():
    # order along q0 is a1, along q2 is a2, along q1 is a1 + a2 - 2*a1*a2
    for m in even_characteristics():
        s = theta_qexp(m, 12)
        assert vanishing_order(s, 0) == m.a1
        assert vanishing_order(s, 2) == m.a2
        assert vanishing_order(s, 1) == m.a1 + m.a2 - 2 * m.a1 * m.a2


def test_vanishing_order_examples():
    assert vanishing_order(theta_qexp(Char(1, 0, 0, 0), 12), 0) == 1
    assert vanishing_order(theta_qexp(Char(0, 0, 0, 0), 12), 0) == 0
    assert vanishing_order(theta_qexp(Char(1, 0, 0, 1), 12), 1) == 1
    with pytest.raises(ValueError):
        vanishing_order(QSeries.zero(4), 0)


def test_koecher_check():
    for m in even_characteristics():
        assert koecher_check(theta_qexp(m, 12))
    bad = QSeries({(1, 5, 1): 1}, 8)
    assert not koecher_check(bad)
    assert koecher_check(QSeries.zero(4))


def test_translate_identity_and_periodicity():
    s = theta_qexp(Char(0, 0, 1, 1), 10)
    zero = ((0, 0), (0, 0))
    assert translate_action(s, zero) == s
    eight = ((8, 0), (0, 8))
    assert translate_action(s, eight) == s


def test_translation_makes_a_non_real_phase():
    # Z -> Z + diag(1, 0) multiplies the n-term by zeta^n0, and n0 = r1^2
    # is odd on every term of an a1 = 1 theta
    s = theta_qexp(Char(1, 0, 0, 0), 12)
    with pytest.raises(ValueError, match=r"the term \(\d+, \d+, \d+\)"):
        translate_action(s, ((1, 0), (0, 0)))


def test_negate_offdiag_on_thetas():
    for m in even_characteristics():
        s = theta_qexp(m, 12)
        image = negate_offdiag(s)
        if m == Char(1, 1, 1, 1):
            assert image == -s
        else:
            assert image == s
        assert negate_offdiag(image) == s


def test_unimodular_identity():
    s = theta_qexp(Char(1, 0, 0, 1), 12)
    assert unimodular_action(s, ((1, 0), (0, 1))) == s


def test_actions_are_ring_homomorphisms():
    rng = random.Random(31)
    evens = even_characteristics()
    # translations whose phases are +-1 on thetas and their products: a
    # theta term has k = r1^2 * s0 + 2 * r1 * r2 * s1 + r2^2 * s2, so
    # diagonal entries divisible by 4 and an even off-diagonal entry give
    # 4 | k, and k adds up in a product
    mats_s = [((4, 0), (0, 0)), ((0, 2), (2, 0)), ((4, 2), (2, 12))]
    mats_u = [((0, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1))]
    for _ in range(50):
        s = theta_qexp(rng.choice(evens), 16)
        t = theta_qexp(rng.choice(evens), 16)
        S = rng.choice(mats_s)
        assert translate_action(s * t, S) == translate_action(s, S) * translate_action(t, S)
        U = rng.choice(mats_u)
        left = unimodular_action(s * t, U)
        right = unimodular_action(s, U) * unimodular_action(t, U)
        assert left == right


def test_truncation_equality_semantics():
    a = theta_qexp(Char(0, 0, 0, 0), 12)
    b = theta_qexp(Char(0, 0, 0, 0), 4)
    assert a == b  # compared up to the smaller bound
    assert a.restrict(4).truncation == 4


def test_ring_results_store_no_zero_and_nothing_past_the_bound():
    x = (1, 1, 0)
    plus = QSeries({(0, 0, 0): 1, x: 1}, 4)
    minus = QSeries({(0, 0, 0): 1, x: -1}, 4)
    # (1 + x)(1 - x) = 1 - x^2: the x terms cancel and are not stored
    assert (plus * minus).terms == {(0, 0, 0): 1, (2, 2, 0): -1}
    assert (plus + minus).terms == {(0, 0, 0): 2}
    assert (plus - plus).terms == {}
    assert (0 * plus).terms == {}
    # 1 + u + u^2 at bound 4 times 1 - u at bound 6, with u of weight
    # n0 + n2 = 2: the product 1 - u^3 has its u^3 past bound 4
    u = (1, 0, 1)
    geometric = QSeries({(k, 0, k): 1 for k in range(3)}, 4)
    step = QSeries({(0, 0, 0): 1, u: -1}, 6)
    for result in (geometric * step, step * geometric):
        assert result.truncation == 4
        assert result.terms == {(0, 0, 0): 1}
    assert all(n[0] + n[2] <= 4 and c for s in (geometric + step, geometric - step)
               for n, c in s.terms.items())


def test_powers_match_repeated_products():
    s = theta_qexp(Char(1, 0, 0, 1), 12) + QSeries.one(12)
    expected = QSeries.one(12)
    for n in range(6):
        power = s ** n
        assert power.truncation == 12
        assert power.terms == expected.terms
        expected = expected * s
    with pytest.raises(ValueError):
        s ** -1
