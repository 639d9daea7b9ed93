from __future__ import annotations

import random
from collections import deque

import pytest

import corrections_reference
from siegelcy.characteristics import (
    IDENTITY4,
    all_characteristics,
    mat_mul,
    mod2,
    sp4f2_act,
    sp4f2_class,
    sp4f2_elements,
    sp4f2_sign,
    sp4f2_steps,
    sp4f2_walk,
)
from siegelcy.numeric import conditioned_samples
from siegelcy.symplectic import (
    _GENERATORS,
    LOWER_TWOS,
    SpMat,
    Subgroup,
    _corrections,
    cusp_form_character,
    is_symplectic,
    sample_element,
    subgroup_membership,
    theta_character,
)


# Every sampling generator has absolute row sums at most 2, so a word of
# length L has entries at most 2 ** L.  That cap keeps every full-group
# sample; a level-2 sample appends a correction to its word and may exceed it.


def lower(c) -> SpMat:
    return SpMat.from_blocks(((1, 0), (0, 1)), ((0, 0), (0, 0)), c, ((1, 0), (0, 1)))


MEMBER_TAGS = [
    Subgroup.full(),
    Subgroup.principal(),
    Subgroup.hecke(),
    Subgroup.chi_kernel(),
    Subgroup.hecke_chi_kernel(),
]

#: the groups' usual names, the pytest ids
NAMES = {"full": "Sp(4,Z)", "principal": "Gamma2[{}]", "hecke": "Gamma2,0[{}]",
         "chi_kernel": "Gamma_n", "hecke_chi_kernel": "Gamma2,0[2]_n"}


def tag_id(value):
    if isinstance(value, Subgroup):
        return NAMES[value.kind].format(value.level)
    return None


def test_identity_and_inversion_are_symplectic():
    assert is_symplectic(SpMat.identity().rows)
    assert is_symplectic(SpMat.inversion().rows)


def test_translation_requires_symmetric_block():
    assert is_symplectic(SpMat.translation(((1, 2), (2, 3))).rows)
    rows = [
        [1, 0, 1, 2],
        [0, 1, 0, 3],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert not is_symplectic(rows)
    with pytest.raises(ValueError):
        SpMat(rows)


def test_inverse_and_product():
    m = SpMat.translation(((1, 2), (2, 3))) * SpMat.inversion()
    assert m * m.inverse() == SpMat.identity()
    assert m.inverse() * m == SpMat.identity()


def test_membership_examples():
    m = lower(((2, 0), (0, 2)))
    assert subgroup_membership(m, Subgroup.principal())
    assert subgroup_membership(m, Subgroup.chi_kernel())  # 2 + 0 + 2 = 4

    m2 = lower(((2, 0), (0, 0)))
    assert subgroup_membership(m2, Subgroup.principal())
    assert not subgroup_membership(m2, Subgroup.chi_kernel())  # sum = 2

    ident = SpMat.identity()
    for tag in MEMBER_TAGS:
        assert subgroup_membership(ident, tag)


def test_theta_character_values():
    assert theta_character(SpMat.identity()) == 1
    assert theta_character(lower(((2, 2), (2, 2)))) == -1  # (2+2+2)/2 = 3
    assert theta_character(lower(((2, 0), (0, 2)))) == 1   # (2+0+2)/2 = 2


def test_theta_character_rejects_odd_c():
    m = SpMat.inversion()  # C = E is not 0 mod 2
    with pytest.raises(ValueError):
        theta_character(m)


def test_theta_character_is_multiplicative():
    tag = Subgroup.hecke()
    pairs = conditioned_samples(tag, 200, seed=210, word_length=6, max_entry=2 ** 6)
    for i in range(0, 200, 2):
        a, b = pairs[i], pairs[i + 1]
        assert theta_character(a * b) == theta_character(a) * theta_character(b)


def test_cusp_form_character_is_multiplicative():
    tag = Subgroup.hecke()
    mats = conditioned_samples(tag, 60, seed=321, word_length=6, max_entry=2 ** 6)
    for i in range(0, 60, 2):
        a, b = mats[i], mats[i + 1]
        assert cusp_form_character(a * b) == cusp_form_character(a) * cusp_form_character(b)


def test_mod2_action_and_sign_read_integer_matrices():
    # callers pass a matrix's integer rows, with entries far from 0 and 1
    mats = conditioned_samples(Subgroup.full(), 40, seed=55, word_length=8,
                               max_entry=2 ** 8)
    assert any(v < 0 or v > 1 for m in mats for row in m.rows for v in row)
    for x in (m.rows for m in mats):
        assert sp4f2_sign(x) == sp4f2_sign(mod2(x))
        assert all(sp4f2_act(x, c) == sp4f2_act(mod2(x), c) for c in all_characteristics())
    # the kernel correction lies in Gamma2[2], with theta character -1
    assert mod2(LOWER_TWOS.rows) == mod2(SpMat.identity().rows)
    assert theta_character(LOWER_TWOS) == -1


@pytest.mark.parametrize("tag", MEMBER_TAGS, ids=tag_id)
def test_membership_closed_under_product_and_inverse(tag):
    mats = conditioned_samples(tag, 20, seed=77, word_length=8, max_entry=2 ** 8)
    rng = random.Random(7)
    for _ in range(100):
        a, b = rng.choice(mats), rng.choice(mats)
        assert subgroup_membership(a * b, tag)
        assert subgroup_membership(a.inverse(), tag)


def test_sampling_returns_members_and_is_deterministic():
    for tag in MEMBER_TAGS:
        for word_length in (0, 5, 8):
            for seed in range(40):
                m = sample_element(tag, word_length, seed)
                assert subgroup_membership(m, tag), (tag, word_length, seed)
    for seed in range(1, 21):
        m = sample_element(Subgroup.chi_kernel(), word_length=8, seed=seed)
        assert m == sample_element(Subgroup.chi_kernel(), word_length=8, seed=seed)


def test_full_group_sample_is_the_first_word():
    # the bytes of numeric.modulus_law rest on these samples
    for word_length in (0, 5, 8):
        for seed in range(40):
            rng = random.Random(f"{seed}:{word_length}:full:1")
            m = SpMat.identity()
            for _ in range(word_length):
                m = m * rng.choice(_GENERATORS)
            assert sample_element(Subgroup.full(), word_length, seed) == m


def _target_classes(tag) -> set[int]:
    """Classes of the matrices mod 2 that members of a level-2 tag reduce to."""
    if tag.kind in ("principal", "chi_kernel"):
        return {sp4f2_class(SpMat.identity().rows)}
    return {sp4f2_class(x) for x in sp4f2_elements() if x[2][:2] == x[3][:2] == (0, 0)}


@pytest.mark.parametrize("tag, longest", [
    (Subgroup.principal(), 7),
    (Subgroup.chi_kernel(), 7),
    (Subgroup.hecke(), 3),
    (Subgroup.hecke_chi_kernel(), 3),
], ids=tag_id)
def test_corrections_are_shortest_words_into_the_target(tag, longest):
    step = sp4f2_steps(tuple(g.rows for g in _GENERATORS))
    target = _target_classes(tag)
    # breadth-first distance to the target along reversed steps
    into = [[] for _ in step]
    for c, row in enumerate(step):
        for d in row:
            into[d].append(c)
    distance = dict.fromkeys(target, 0)
    queue = deque(target)
    while queue:
        d = queue.popleft()
        for c in into[d]:
            if c not in distance:
                distance[c] = distance[d] + 1
                queue.append(c)
    corrections = _corrections(tag)
    assert len(corrections) == len(distance) == 720
    for c, word in enumerate(corrections):
        end = c
        for g in word:
            end = step[end][g]
        assert end in target, (c, word)
        assert len(word) == distance[c], (c, word)
    assert max(map(len, corrections)) == longest


@pytest.mark.parametrize("tag", MEMBER_TAGS, ids=tag_id)
def test_corrections_are_the_round_by_round_search(tag):
    # the same word for every class, so every sample is unchanged: among the
    # shortest words, each takes the first generator into an earlier round
    assert _corrections(tag) == corrections_reference.corrections(tag)


def test_equal_subgroups_share_their_corrections():
    a, b = Subgroup.hecke(), Subgroup("hecke", 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert _corrections(a) is _corrections(b)
    assert _corrections(a) is not _corrections(Subgroup.hecke_chi_kernel())


@pytest.mark.parametrize("tag", [Subgroup("principal", 3), Subgroup("principal", 4),
                                 Subgroup("hecke", 3)], ids=tag_id)
def test_sampling_refuses_other_levels(tag):
    # a tuple built at another level names no subgroup of the table
    with pytest.raises(ValueError, match="level 2"):
        sample_element(tag, word_length=5, seed=0)
    with pytest.raises(ValueError, match="level 2"):
        subgroup_membership(SpMat.identity(), tag)


def test_level_is_not_a_parameter():
    for make in (Subgroup.principal, Subgroup.hecke):
        assert make().level == 2
        with pytest.raises(TypeError):
            make(2)


def _reference_membership(m: SpMat, tag: Subgroup) -> bool:
    """The congruence definitions: Gamma2[2] is the identity mod 2, the Hecke
    group C = 0 mod 2, Gamma_n adds alpha + beta + gamma = 0 mod 4 for
    C tD = (alpha beta; beta gamma), and the Hecke kernel adds that the
    cusp-form character, (-1)^((alpha+beta+gamma)/2) times the sign
    character, is 1."""
    principal = all((v - IDENTITY4[i][j]) % 2 == 0
                    for i, row in enumerate(m.rows) for j, v in enumerate(row))
    hecke = all(v % 2 == 0 for row in m.C for v in row)
    (c00, c01, d00, d01), (c10, c11, d10, d11) = m.rows[2:]
    alpha, beta, gamma = c00 * d00 + c01 * d01, c00 * d10 + c01 * d11, c10 * d10 + c11 * d11
    theta = -1 if (alpha + beta + gamma) % 4 else 1
    return {"full": True,
            "principal": principal,
            "hecke": hecke,
            "chi_kernel": principal and theta == 1,
            "hecke_chi_kernel": hecke and theta * sp4f2_sign(m.rows) == 1}[tag.kind]


def test_membership_is_the_congruence_definitions():
    samples = [sample_element(Subgroup.full(), 8, seed) for seed in range(200)]
    mats = [*samples, *(m * LOWER_TWOS for m in samples),
            *(m * lower(((2, 0), (0, 2))) for m in samples)]
    for tag in MEMBER_TAGS:
        seen = {subgroup_membership(m, tag) for m in mats}
        assert all(subgroup_membership(m, tag) == _reference_membership(m, tag)
                   for m in mats), tag
        # every level-2 kind sees members and non-members
        assert seen == ({True} if tag == Subgroup.full() else {True, False}), tag


def test_inverse_is_the_block_formula():
    def block_inverse(m):
        """(tD -tB; -tC tA) for m = (A B; C D)."""
        r = m.rows

        def t(i, j, sign=1):  # the transposed 2x2 block at (i, j)
            return ((sign * r[i][j], sign * r[i + 1][j]),
                    (sign * r[i][j + 1], sign * r[i + 1][j + 1]))

        return SpMat.from_blocks(t(2, 2), t(0, 2, -1), t(2, 0, -1), t(0, 0))

    products = [sample_element(Subgroup.full(), 8, seed) for seed in range(50)]
    for m in _GENERATORS + products:
        assert m.inverse() == block_inverse(m)


def test_mod2_walk_is_the_multiplication_table_of_sp4f2():
    classes = sp4f2_walk()[0]
    step = sp4f2_steps(tuple(g.rows for g in _GENERATORS))
    assert sp4f2_class(SpMat.identity().rows) == 0
    matrices = {sp4f2_class(x): x for x in sp4f2_elements()}
    assert sorted(matrices) == list(range(720))
    for c, x in matrices.items():
        # a class is the rows of its matrix read as binary numbers
        assert classes[c] == tuple(int("".join(map(str, row)), 2) for row in x)
        for g, gen in enumerate(_GENERATORS):
            assert step[c][g] == sp4f2_class(mod2(mat_mul(x, gen.rows)))


def test_word_length_zero_gives_identity():
    assert sample_element(Subgroup.full(), 0, seed=3) == SpMat.identity()


def test_chi_kernel_has_index_two():
    level2 = Subgroup.principal()
    kernel = Subgroup.chi_kernel()
    mats = conditioned_samples(level2, 200, seed=1234, word_length=8, max_entry=2 ** 8)
    nonmembers = [m for m in mats if not subgroup_membership(m, kernel)]
    members = [m for m in mats if subgroup_membership(m, kernel)]
    assert nonmembers and members
    rng = random.Random(0)
    for _ in range(50):
        a, b = rng.choice(nonmembers), rng.choice(nonmembers)
        assert subgroup_membership(a * b, kernel)


def test_chi_kernel_is_hecke_kernel_restricted_to_level_two():
    mats = conditioned_samples(Subgroup.principal(), 80, seed=4321, word_length=8,
                               max_entry=2 ** 8)
    for m in mats:
        assert subgroup_membership(m, Subgroup.chi_kernel()) == (
            cusp_form_character(m) == 1
        )
