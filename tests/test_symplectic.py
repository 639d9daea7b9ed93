from __future__ import annotations

import random
from collections import deque

import pytest

import corrections_reference
from siegelcy.characteristics import (
    mat_mul,
    mod2,
    sp4f2_class,
    sp4f2_elements,
    sp4f2_steps,
    sp4f2_walk,
)
from siegelcy.numeric import conditioned_samples
from siegelcy.symplectic import (
    _GENERATORS,
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
    assert subgroup_membership(m, Subgroup.principal(2))
    assert subgroup_membership(m, Subgroup.chi_kernel())  # 2 + 0 + 2 = 4

    m2 = lower(((2, 0), (0, 0)))
    assert subgroup_membership(m2, Subgroup.principal(2))
    assert not subgroup_membership(m2, Subgroup.chi_kernel())  # sum = 2

    ident = SpMat.identity()
    for tag in (Subgroup.full(), Subgroup.principal(2), Subgroup.principal(4),
                Subgroup.hecke(2), Subgroup.chi_kernel(),
                Subgroup.hecke_chi_kernel()):
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
    tag = Subgroup.hecke(2)
    pairs = conditioned_samples(tag, 200, seed=210, word_length=6, max_entry=2 ** 6)
    for i in range(0, 200, 2):
        a, b = pairs[i], pairs[i + 1]
        assert theta_character(a * b) == theta_character(a) * theta_character(b)


def test_cusp_form_character_is_multiplicative():
    tag = Subgroup.hecke(2)
    mats = conditioned_samples(tag, 60, seed=321, word_length=6, max_entry=2 ** 6)
    for i in range(0, 60, 2):
        a, b = mats[i], mats[i + 1]
        assert cusp_form_character(a * b) == cusp_form_character(a) * cusp_form_character(b)


MEMBER_TAGS = [
    Subgroup.full(),
    Subgroup.principal(2),
    Subgroup.hecke(2),
    Subgroup.chi_kernel(),
    Subgroup.hecke_chi_kernel(),
]


@pytest.mark.parametrize("tag", MEMBER_TAGS, ids=str)
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
    (Subgroup.principal(2), 7),
    (Subgroup.chi_kernel(), 7),
    (Subgroup.hecke(2), 3),
    (Subgroup.hecke_chi_kernel(), 3),
], ids=str)
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


@pytest.mark.parametrize("tag", [
    Subgroup.full(), Subgroup.principal(2), Subgroup.chi_kernel(), Subgroup.hecke(2),
    Subgroup.hecke_chi_kernel(),
], ids=str)
def test_corrections_are_the_round_by_round_search(tag):
    # the same word for every class, so every sample is unchanged: among the
    # shortest words, each takes the first generator into an earlier round
    assert _corrections(tag) == corrections_reference.corrections(tag)


def test_equal_subgroups_share_their_corrections():
    a, b = Subgroup.hecke(2), Subgroup("hecke", 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert _corrections(a) is _corrections(b)
    assert _corrections(a) is not _corrections(Subgroup.hecke_chi_kernel())


@pytest.mark.parametrize("tag", [Subgroup.principal(3), Subgroup.principal(4),
                                 Subgroup.hecke(3)], ids=str)
def test_sampling_refuses_other_levels(tag):
    with pytest.raises(ValueError, match="level 2"):
        sample_element(tag, word_length=5, seed=0)


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
    level2 = Subgroup.principal(2)
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
    mats = conditioned_samples(Subgroup.principal(2), 80, seed=4321, word_length=8,
                               max_entry=2 ** 8)
    for m in mats:
        assert subgroup_membership(m, Subgroup.chi_kernel()) == (
            cusp_form_character(m) == 1
        )
