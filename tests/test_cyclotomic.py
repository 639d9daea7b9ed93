from __future__ import annotations

import random

from siegelcy.cyclotomic import CycInt8


def zeta() -> CycInt8:
    return CycInt8.zeta_power(1)


def test_zeta_times_zeta_cubed_is_minus_one():
    assert zeta() * CycInt8.zeta_power(3) == -1


def test_difference_of_squares():
    z2 = CycInt8.zeta_power(2)
    assert (1 + z2) * (1 + -z2) == 2
    assert (z2 + 1) * 3 == CycInt8(3, 0, 3, 0)


def test_zeta_has_order_eight():
    z = zeta()
    w = z * z  # zeta^2
    w = w * w  # zeta^4
    w = w * w  # zeta^8
    assert w == 1
    assert CycInt8.zeta_power(8) == 1


def test_zeta_power_table():
    z = zeta()
    acc = CycInt8(1)
    for k in range(17):
        assert acc == CycInt8.zeta_power(k)
        assert -acc == CycInt8.zeta_power(k + 4)
        acc = acc * z


def _random_element(rng: random.Random) -> CycInt8:
    return CycInt8(*(rng.randint(-9, 9) for _ in range(4)))


def test_ring_axioms_on_seeded_triples():
    rng = random.Random(8)
    for _ in range(100):
        a, b, c = (_random_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + b == b + a
        n = rng.randint(-9, 9)
        assert a * (b + n) == a * b + a * n
        assert n * a == a * n == a * CycInt8(n)
        assert n + a == a + n == a + CycInt8(n)


def test_canonical_representation():
    assert CycInt8(1, 0, 0, 0) == 1
    assert CycInt8(1, 0, 0, 0) != CycInt8(1, 1, 0, 0)
    assert CycInt8(1, 1, 0, 0) != 1
    assert not CycInt8() and CycInt8() == 0
    assert CycInt8(0, 0, 0, -2)

