from __future__ import annotations

import random

import pytest

from siegelcy.characteristics import (
    IDENTITY4,
    J4,
    SP4F2_GENERATORS,
    Char,
    STANDARD_QUADRUPLE,
    STANDARD_SEXTUPLE,
    all_characteristics,
    all_sextuples,
    char_sum,
    complement_sextuple,
    even_characteristics,
    is_even,
    is_syzygetic,
    odd_characteristics,
    parity,
    quadruple_scan,
    sp4f2_act,
    sp4f2_class,
    sp4f2_elements,
    sp4f2_sign,
    syzygetic_quadruples,
    mat_mul,
    mat_transpose,
    mod2,
)


def test_parity_examples():
    assert parity(Char(0, 0, 0, 0)) == 0
    assert parity(Char(1, 1, 1, 1)) == 0
    assert parity(Char(1, 0, 1, 0)) == 1


def test_ten_even_six_odd():
    evens = even_characteristics()
    odds = odd_characteristics()
    assert len(evens) == 10
    assert len(odds) == 6
    assert Char(0, 0, 0, 0) in evens
    assert all(not is_even(m) for m in odds)
    assert len(all_characteristics()) == 16


def test_standard_quadruple_is_syzygetic():
    assert is_syzygetic(STANDARD_QUADRUPLE)


def test_quadruple_with_odd_triple_sum_is_not_syzygetic():
    q = [Char(0, 0, 0, 0), Char(0, 0, 1, 0), Char(0, 0, 0, 1), Char(1, 1, 0, 0)]
    # (0,0,0,0) + (0,0,1,0) + (1,1,0,0) = (1,1,1,0), which is odd
    assert parity(char_sum(q[0], q[1], q[3])) == 1
    assert not is_syzygetic(q)


def test_duplicates_are_rejected():
    m = Char(0, 0, 0, 0)
    with pytest.raises(ValueError):
        is_syzygetic([m, m, Char(0, 0, 1, 0), Char(0, 0, 0, 1)])


def test_fifteen_syzygetic_quadruples():
    quads = syzygetic_quadruples()
    assert len(quads) == 15
    assert STANDARD_QUADRUPLE in quads
    sextuples = {complement_sextuple(q) for q in quads}
    assert len(sextuples) == 15


def test_sextuples_are_the_complements_of_the_quadruples():
    assert all_sextuples() == tuple(complement_sextuple(q) for q in syzygetic_quadruples())


def test_complement_of_standard_quadruple():
    sextuple = complement_sextuple(STANDARD_QUADRUPLE)
    assert sextuple == STANDARD_SEXTUPLE
    assert len(sextuple) == 6
    # exactly the even characteristics with a != (0, 0)
    assert all((m.a1, m.a2) != (0, 0) for m in sextuple)
    # complementing again recovers the quadruple
    evens = set(even_characteristics())
    assert evens - sextuple == set(STANDARD_QUADRUPLE)


def test_complement_rejects_non_syzygetic():
    q = [Char(0, 0, 0, 0), Char(0, 0, 1, 0), Char(0, 0, 0, 1), Char(1, 1, 0, 0)]
    with pytest.raises(ValueError):
        complement_sextuple(q)


def test_group_order_is_720():
    assert len(sp4f2_elements()) == 720


def test_every_element_is_symplectic_mod_2():
    for x in sp4f2_elements():
        assert mod2(mat_mul(mat_mul(mat_transpose(x), J4), x)) == mod2(J4)


def block_formula(x, m):
    """x{m} for x = (A B; C D), from 4x4 products: the linear part is the
    transpose-inverse J x J^-1 = (D C; B A) mod 2, and the correction
    (diag C tD; diag A tB) is read off x S tx = (A tB  A tD; C tB  C tD)
    with S = (0 E; 0 0)."""
    s = (IDENTITY4[2], IDENTITY4[3], (0, 0, 0, 0), (0, 0, 0, 0))
    lin = mat_mul(mat_mul(J4, x), mat_transpose(J4))
    p = mat_mul(mat_mul(x, s), mat_transpose(x))
    shift = (p[2][2], p[3][3], p[0][0], p[1][1])
    return Char(*((sum(lin[i][k] * m[k] for k in range(4)) + shift[i]) % 2
                  for i in range(4)))


def permutation_sign(image):
    seen, sign = set(), 1
    for start in range(len(image)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = image[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def test_action_and_sign_match_the_block_formula_everywhere():
    odds = odd_characteristics()
    for x in sp4f2_elements():
        for m in all_characteristics():
            assert sp4f2_act(x, m) == block_formula(x, m)
        image = [odds.index(block_formula(x, m)) for m in odds]
        assert sp4f2_sign(x) == permutation_sign(image)


NOT_SYMPLECTIC = [
    ((1, 1, 0, 0),) + IDENTITY4[1:],                          # singular
    ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # D is not tA^-1
    ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # B not symmetric
]


@pytest.mark.parametrize("x", NOT_SYMPLECTIC)
def test_non_symplectic_matrix_is_refused(x):
    with pytest.raises(ValueError, match="not symplectic mod 2"):
        sp4f2_class(x)
    with pytest.raises(ValueError, match="not symplectic mod 2"):
        sp4f2_act(x, Char(0, 0, 0, 0))
    with pytest.raises(ValueError, match="not symplectic mod 2"):
        sp4f2_sign(x)


def test_identity_acts_trivially():
    for m in all_characteristics():
        assert sp4f2_act(IDENTITY4, m) == m


def test_offdiagonal_block_swaps_halves():
    j = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    for m in all_characteristics():
        assert sp4f2_act(j, m) == Char(m.b1, m.b2, m.a1, m.a2)


def test_action_preserves_parity():
    rng = random.Random(50)
    elements = sp4f2_elements()
    chars = all_characteristics()
    for _ in range(50):
        x = rng.choice(elements)
        m = rng.choice(chars)
        assert parity(sp4f2_act(x, m)) == parity(m)


def test_action_is_a_group_action():
    rng = random.Random(99)
    elements = sp4f2_elements()
    chars = all_characteristics()
    for _ in range(100):
        x, y = rng.choice(elements), rng.choice(elements)
        m = rng.choice(chars)
        assert sp4f2_act(mod2(mat_mul(x, y)), m) == sp4f2_act(x, sp4f2_act(y, m))


def test_orbit_of_standard_quadruple_is_everything():
    orbit, _ = quadruple_scan(STANDARD_QUADRUPLE)
    assert orbit == set(syzygetic_quadruples())
    assert len(orbit) == 15


def test_orbit_images_stay_syzygetic():
    for q in quadruple_scan(STANDARD_QUADRUPLE)[0]:
        assert is_syzygetic(q)


def test_stabilizer_order():
    assert quadruple_scan(STANDARD_QUADRUPLE)[1] == 720 // 15


def test_even_enumeration_is_ascending_in_the_encoding():
    evens = even_characteristics()
    codes = [8 * m.a1 + 4 * m.a2 + 2 * m.b1 + m.b2 for m in evens]
    assert codes == sorted(codes)
    assert evens[0] == Char(0, 0, 0, 0)
    # the tuple order of characteristics is the order of the encoding
    assert sorted(all_characteristics()) == all_characteristics()


def test_action_is_transitive_on_parity_classes():
    elements = sp4f2_elements()
    even_orbit = {sp4f2_act(x, Char(0, 0, 0, 0)) for x in elements}
    odd_orbit = {sp4f2_act(x, Char(1, 0, 1, 0)) for x in elements}
    assert even_orbit == set(even_characteristics())
    assert odd_orbit == set(odd_characteristics())


def test_upper_translation_shifts_lower_half():
    # z0 -> z0 + 1 sends theta[(0,a2;b)] to theta[(0,a2; b + (1,0))]: the
    # affine correction lands on the b-side for upper translations
    s_diag = ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for b1 in (0, 1):
        for b2 in (0, 1):
            m = Char(0, 0, b1, b2)
            assert sp4f2_act(s_diag, m) == Char(0, 0, (b1 + 1) % 2, b2)


def test_sign_character_is_multiplicative_and_onto():
    elements = sp4f2_elements()
    signs = {x: sp4f2_sign(x) for x in elements}
    assert sum(1 for v in signs.values() if v == 1) == 360
    j, *translations = SP4F2_GENERATORS
    assert signs[j] == 1
    assert [signs[t] for t in translations] == [-1, -1, -1]
    # multiplicative on every element times every generator, hence everywhere
    for x in elements:
        for g in SP4F2_GENERATORS:
            assert signs[mod2(mat_mul(x, g))] == signs[x] * signs[g]


def test_sign_character_rejects_non_symplectic():
    with pytest.raises(ValueError):
        sp4f2_sign(((1, 1, 0, 0),) + IDENTITY4[1:])
