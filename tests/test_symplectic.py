from __future__ import annotations

import random

import pytest

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
    _passing_classes,
    cusp_form_character,
    is_symplectic,
    sample_element,
    subgroup_membership,
    theta_character,
)


# Every sampling generator has absolute row sums at most 2, so a word of
# length L has entries at most 2 ** L and that cap never rejects a sample.


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
    for seed in range(1, 21):
        m = sample_element(Subgroup.chi_kernel(), word_length=8, seed=seed)
        assert subgroup_membership(m, Subgroup.chi_kernel())
        again = sample_element(Subgroup.chi_kernel(), word_length=8, seed=seed)
        assert m == again


def unfiltered_sample(tag, word_length, seed, max_tries):
    """The sampler without the mod-2 pre-filter: every word is multiplied
    out and tested with the exact predicate."""
    rng = random.Random(f"{seed}:{word_length}:{tag.kind}:{tag.level}")
    for _ in range(max_tries):
        m = rng.choice(_GENERATORS)
        for _ in range(word_length - 1):
            m = m * rng.choice(_GENERATORS)
        if subgroup_membership(m, tag):
            return m
    return None


EVERY_KIND = [
    Subgroup.full(),
    Subgroup.principal(2),
    Subgroup.principal(3),
    Subgroup.hecke(2),
    Subgroup.hecke(3),
    Subgroup.chi_kernel(),
    Subgroup.hecke_chi_kernel(),
]


@pytest.mark.parametrize("tag", EVERY_KIND, ids=str)
def test_prefilter_keeps_the_unfiltered_samples(tag):
    # a budget of 300 words keeps the unfiltered reference affordable and
    # still finds a member in at least 33 of the 80 cases of every kind
    passing = _passing_classes(tag)
    found = 0
    for word_length in (5, 8):
        for seed in range(40):
            expected = unfiltered_sample(tag, word_length, seed, max_tries=300)
            try:
                got = sample_element(tag, word_length, seed, max_tries=300)
            except RuntimeError:
                got = None
            assert got == expected, (word_length, seed)
            if got is not None:
                found += 1
                if passing is not None:
                    assert passing[sp4f2_class(got.rows)]
    assert found >= 20


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


def test_budget_exhaustion_raises():
    with pytest.raises(RuntimeError, match="word_length"):
        sample_element(Subgroup.principal(4), word_length=1, seed=0, max_tries=5)


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
