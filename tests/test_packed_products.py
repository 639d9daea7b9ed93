"""The packed product kernel against the term-pair reference.

Every series product, chain and power must give the terms and the
truncation of `tests/pair_reference.py`.  The drawn factors cover
coefficients that cancel to zero, coefficients far above 2^64, middle
exponents n1 of any size (semipositive or not), factors whose n1 are all 0
or all multiples of 4 or 8, factors whose n1 follow n0 + n2 mod 4 as a
theta's do, mixed truncations and empty series.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import pair_reference as ref
from siegelcy import qseries
from siegelcy.characteristics import (PRODUCT_FORM_CHARS, Char, all_sextuples,
                                      even_characteristics)
from siegelcy.qseries import QSeries, product, theta_qexp

SMALL = st.integers(-2, 2)
COEFFICIENTS = st.one_of(SMALL, st.integers(-2 ** 80, 2 ** 80))

#: how the middle exponents of all factors of one case are drawn: any n1,
#: all zero, or multiples of a common step
N1_MODES = ("any", "zero", "step4", "step8")


@st.composite
def factor(draw, mode: str) -> QSeries:
    exponents = st.tuples(st.integers(0, 5), st.integers(0, 12), st.integers(0, 5))
    terms = draw(st.dictionaries(exponents, COEFFICIENTS, max_size=8))
    if mode == "zero":
        terms = {(n0, 0, n2): c for (n0, _, n2), c in terms.items()}
    elif mode != "any":
        step = int(mode.removeprefix("step"))
        terms = {(n0, step * n1, n2): c for (n0, n1, n2), c in terms.items()}
    return QSeries(terms, draw(st.integers(0, 10)))


@st.composite
def factors(draw, min_size: int = 1, max_size: int = 6) -> list[QSeries]:
    mode = draw(st.sampled_from(N1_MODES))
    return draw(st.lists(factor(mode), min_size=min_size, max_size=max_size))


def _same(got: QSeries, want: QSeries) -> None:
    assert got.truncation == want.truncation
    assert got.terms == want.terms
    assert all(got.terms.values())


#: coefficients that reach the slot bound: -15 = 3 * -5 is the sum of
#: |c| over the factors, so one bit fewer per slot cannot hold it
AT_THE_BOUND = [QSeries({(1, 4, 0): 3}, 6), QSeries({(0, 4, 1): -5}, 6)]
#: (1 + x)(1 - x): the x terms cancel to zero
CANCELLING = [QSeries({(0, 0, 0): 1, (1, 2, 1): 1}, 8),
              QSeries({(0, 0, 0): 1, (1, 2, 1): -1}, 8)]

#: two thetas at N=8 with residues 2 and 0 mod step 4: their n1 have gcd 1
THETA_PAIR = [theta_qexp(Char(1, 1, 0, 0), 8), theta_qexp(Char(1, 0, 0, 0), 8)]


@settings(max_examples=300, deadline=None)
@given(factors(min_size=2, max_size=2))
@example(AT_THE_BOUND)
@example(CANCELLING)
def test_series_product_is_the_pair_loop(pair):
    a, b = pair
    _same(a * b, ref.mul(a, b))


@settings(max_examples=300, deadline=None)
@given(factors())
@example(AT_THE_BOUND)
@example(CANCELLING + CANCELLING[::-1])
@example([QSeries({}, 4), QSeries({(0, 0, 0): 2}, 6)])
def test_chain_product_is_the_pair_loop(items):
    _same(product(items), ref.product(items))


@settings(max_examples=300, deadline=None)
@given(factors(max_size=1), st.integers(0, 5))
@example(CANCELLING[1:], 5)
@example([QSeries({(0, 3, 0): -2}, 3)], 4)
def test_power_is_the_pair_loop(base, exponent):
    (s,) = base
    _same(s ** exponent, ref.power(s, exponent))


def test_one_bit_narrower_slots_fail_on_a_planted_case(monkeypatch):
    """Negative control: the bound is what keeps the signed slots apart."""
    init = qseries._Layout.__init__

    def narrower(self, *args):
        init(self, *args)
        self.bits -= 1

    monkeypatch.setattr(qseries._Layout, "__init__", narrower)
    with pytest.raises(AssertionError):
        _same(product(AT_THE_BOUND), ref.product(AT_THE_BOUND))


def test_a_chain_without_its_residue_fails_on_a_planted_case(monkeypatch):
    """Negative control: decoding needs the residue the chain carries."""
    init = qseries._Layout.__init__

    def residue_dropped(self, *args):
        init(self, *args)
        self.residue = 0

    monkeypatch.setattr(qseries._Layout, "__init__", residue_dropped)
    with pytest.raises(AssertionError):
        _same(product(THETA_PAIR), ref.product(THETA_PAIR))


@st.composite
def lattice_factor(draw) -> QSeries:
    """A factor whose n1 is n0 + n2 + d mod 4, with d its own: the n1 of
    its terms can have gcd 1 while phi = n1 + 3(n0 + n2) is d mod 4 on
    every term."""
    d = draw(st.integers(0, 3))
    exponents = st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5))
    terms = draw(st.dictionaries(exponents, COEFFICIENTS, max_size=8))
    terms = {(n0, 4 * k + (n0 + n2 + d) % 4, n2): c
             for (n0, k, n2), c in terms.items()}
    return QSeries(terms, draw(st.integers(0, 10)))


@settings(max_examples=300, deadline=None)
@given(st.lists(lattice_factor(), min_size=1, max_size=6), st.integers(0, 5))
@example(THETA_PAIR, 3)
def test_lattice_chains_and_powers_are_the_pair_loop(items, exponent):
    _same(product(items), ref.product(items))
    _same(items[0] ** exponent, ref.power(items[0], exponent))


def test_theta_chains_pack_at_their_lattice_step():
    """Every sextuple chain at N=48 packs at step 4 and the product of the
    four a = 0 thetas at step 8, although the n1 of each sextuple have
    gcd 1."""
    theta = {m: theta_qexp(m, 48) for m in even_characteristics()}
    for sextuple in all_sextuples():
        factors = [theta[m] for m in sorted(sextuple)]
        assert math.gcd(*(n[1] for s in factors for n in s.terms)) == 1
        assert qseries._Layout(factors).step == 4
    assert qseries._Layout([theta[m] for m in PRODUCT_FORM_CHARS]).step == 8

