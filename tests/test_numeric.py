from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import box_reference
from siegelcy import numeric
from siegelcy.characteristics import (
    J4,
    Char,
    all_characteristics,
    char_from_index,
    even_characteristics,
    odd_characteristics,
)
from siegelcy.numeric import (
    CONST_BITS,
    FIXED_BITS,
    LAWS,
    MANTISSA_BITS,
    SiegelPoint,
    _expjpi,
    _inverse,
    _summation_radius,
    _tail_remainder,
    conditioned_samples,
    diagonal_vanishing_check,
    evaluate_qseries,
    law_signs,
    modulus_law,
    series_numeric_consistency,
    siegel_transform,
    theta_eval_batch,
    theta_product_eval,
)
from siegelcy.qseries import negate_offdiag, theta_qexp
from siegelcy.suite import _BASE, run_suite
from siegelcy.symplectic import (
    SpMat,
    Subgroup,
    cusp_form_character,
    theta_character,
)


def rand_point(rng: random.Random, y: float = 1.2) -> SiegelPoint:
    return SiegelPoint(
        complex(rng.uniform(-0.5, 0.5), rng.uniform(y, y + 0.5)),
        complex(rng.uniform(-0.25, 0.25), rng.uniform(0.1, 0.3)),
        complex(rng.uniform(-0.5, 0.5), rng.uniform(y, y + 0.5)),
    )


def test_point_validation():
    with pytest.raises(ValueError):
        SiegelPoint(1j, 2j, 1j)  # det Y < 0
    with pytest.raises(ValueError):
        SiegelPoint(-1j, 0j, 1j)
    # points are values: equal parts give equal points with equal hashes
    a, b = SiegelPoint(0.5 + 1.2j, 0.1j, 1.3j), SiegelPoint(0.5 + 1.2j, 0.1j, 1.3j)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != SiegelPoint(0.5 + 1.2j, 0.1j, 1.4j)
    assert repr(a) == "SiegelPoint(z0=(0.5+1.2j), z1=0.1j, z2=1.3j)"
    # each part is stored as a complex, whatever number it was given as
    assert all(type(z) is complex for z in SiegelPoint(1j, 0, 2j))
    # the diagonal check reads the point's own validation
    with pytest.raises(ValueError, match="positive definite"):
        diagonal_vanishing_check(1j, -2j)


def test_replaced_points_are_validated():
    # `_replace` and `_make` build through the same check as construction
    with pytest.raises(ValueError):
        SiegelPoint(1j, 0j, 1j)._replace(z0=-1j)
    with pytest.raises(ValueError):
        SiegelPoint._make((1j, 2j, 1j))
    assert SiegelPoint(1j, 0j, 1j)._replace(z1=0.5j) == SiegelPoint(1j, 0.5j, 1j)


def test_theta_at_scaled_identity_points():
    # separable oracle: (sum over n of e^(pi i z n^2))^2 on diagonal points
    val = theta_eval_batch([Char(0, 0, 0, 0)], SiegelPoint(1j, 0j, 1j), tol=1e-10)[0]
    oracle = sum(math.exp(-math.pi * n * n) for n in range(-6, 7)) ** 2
    assert abs(val.value - oracle) < 1e-6
    assert abs(val.value - 1.1803406) < 1e-6

    val2 = theta_eval_batch([Char(0, 0, 0, 0)], SiegelPoint(2j, 0j, 2j), tol=1e-10)[0]
    oracle2 = sum(math.exp(-2 * math.pi * n * n) for n in range(-6, 7)) ** 2
    assert abs(val2.value - oracle2) < 1e-6


@settings(max_examples=40, deadline=None)
@given(y0=st.floats(0.3, 2.0), y2=st.floats(0.3, 2.0), rho=st.floats(-0.8, 0.8),
       x=st.tuples(*[st.floats(-0.5, 0.5)] * 3), k=st.integers(1, 3),
       index=st.integers(0, 15), data=st.data())
def test_tail_bound_covers_the_terms_past_the_radius(y0, y2, rho, x, k, index, data):
    Z = SiegelPoint(complex(x[0], y0), complex(x[1], rho * math.sqrt(y0 * y2)),
                    complex(x[2], y2))
    lam = Z.min_eigenvalue()
    # radii whose bound sits far above the rounding of the double-valued sums
    radius = data.draw(st.sampled_from(
        [r for r in range(1, 13) if _tail_remainder(lam, r) > 1e-10]))
    bound = _tail_remainder(lam, radius)

    def summed_to(r: int) -> complex:
        tol = _tail_remainder(lam, r) * (1 + 1e-9)
        assert _summation_radius(lam, tol)[0] == r
        return theta_eval_batch([char_from_index(index)], Z, tol=tol)[0].value

    assert abs(summed_to(radius + k) - summed_to(radius)) <= bound


def test_tail_bound_is_honest():
    # summing with a loose tolerance stays within the claimed bound of a
    # much more precise value
    Z = SiegelPoint(1j, 0.3j, 1.1j)
    coarse = theta_eval_batch([Char(0, 0, 0, 0)], Z, tol=1e-4)[0]
    fine = theta_eval_batch([Char(0, 0, 0, 0)], Z, tol=1e-20)[0]
    assert abs(coarse.value - fine.value) <= coarse.tail_bound


def theta_by_definition(m: Char, Z: SiegelPoint, window: int = 8):
    """theta[a; b](Z) = sum over n in Z^2 of exp(pi i x^T Z x + pi i x^T b),
    x = n + a/2, summed term by term over |n_i| <= window."""
    with mpmath.workdps(40):
        z0, z1, z2 = box_reference.as_mpc(Z)
        total = mpmath.mpc(0)
        for n1 in range(-window, window + 1):
            for n2 in range(-window, window + 1):
                x1 = n1 + mpmath.mpf(m.a1) / 2
                x2 = n2 + mpmath.mpf(m.a2) / 2
                quad = z0 * x1 * x1 + 2 * z1 * x1 * x2 + z2 * x2 * x2
                total += mpmath.exp(mpmath.pi * 1j * (quad + x1 * m.b1 + x2 * m.b2))
        return total


def test_batch_matches_the_defining_sum():
    # Im Z has smallest eigenvalue above 0.7 at these points, so terms past
    # the window are below exp(-pi * 0.7 * 81 / 4) in modulus; the kernel
    # returns a double, whose rounding adds at most 2^-52 |theta|
    rng = random.Random(11)
    for tol in (1e-6, 1e-12, 1e-16):
        Z = rand_point(rng)
        results = theta_eval_batch(all_characteristics(), Z, tol=tol)
        for m, r in zip(all_characteristics(), results):
            with mpmath.workdps(40):
                exact = theta_by_definition(m, Z)
                diff = abs(exact - r.value)
            rounding = 2.0 ** -52 * float(abs(exact))
            assert diff <= r.tail_bound + rounding + 1e-20, (m, diff)


SKEWED_POINTS = [
    # a small eigenvalue (0.025) with y1 < 0: radius 42 at tol 1e-13, where
    # the character laws' pulled-back points sit
    SiegelPoint(0.21 + 0.169j, -0.13 - 0.357j, 0.37 + 0.911j),
    SiegelPoint(-0.3 + 0.45j, 0.2 + 0.38j, 0.1 + 0.52j),  # y1 > 0
    SiegelPoint(0.5 + 1j, 1e-6j, 1.5j),  # near the diagonal: [11;11] is near 0
    # |y1 / y2| = 3: each next row starts three steps further from the last
    # row's start, downward for y1 > 0 and upward for y1 < 0
    SiegelPoint(0.1 + 6j, 0.2 + 1.8j, -0.3 + 0.6j),
    SiegelPoint(0.1 + 6j, 0.2 - 1.8j, -0.3 + 0.6j),
]


@pytest.mark.parametrize("Z", SKEWED_POINTS)
def test_batch_matches_the_defining_sum_at_skewed_points(Z):
    # one even characteristic per parity class of the upper half; rows whose
    # Gaussian peak sits far from r2 = 0 are where a fixed-point walk in the
    # wrong direction amplifies its rounding
    chars = [Char(0, 0, 0, 0), Char(0, 1, 1, 0), Char(1, 0, 0, 1), Char(1, 1, 1, 1)]
    radius = _summation_radius(Z.min_eigenvalue(), 1e-13)[0]
    results = theta_eval_batch(chars, Z, tol=1e-13)
    for m, r in zip(chars, results):
        with mpmath.workdps(40):
            # |2n + a| <= 2 window + a covers the kernel's window, and the
            # tail bound covers every term outside that
            exact = theta_by_definition(m, Z, window=radius // 2 + 1)
            diff = abs(exact - r.value)
        rounding = 2.0 ** -52 * float(abs(exact))
        assert diff <= r.tail_bound + rounding + 1e-25, (m, diff)


def test_exponentials_per_batch_do_not_grow_with_the_radius(monkeypatch):
    calls = []

    def counted(w):
        calls.append(w)
        return _expjpi(w)

    monkeypatch.setattr(numeric, "_expjpi", counted)
    # one characteristic per parity class of the upper half
    chars = [Char(0, 0, 0, 0), Char(0, 1, 1, 0), Char(1, 0, 0, 1), Char(1, 1, 1, 1)]
    counts = []
    for Z, radius in ((SiegelPoint(2j, 0.2j, 2j), 4),
                      (SiegelPoint(0.21 + 0.169j, -0.13 - 0.357j, 0.37 + 0.911j), 42)):
        assert _summation_radius(Z.min_eigenvalue(), 1e-13)[0] == radius
        calls.clear()
        theta_eval_batch(chars, Z, tol=1e-13)
        counts.append(len(calls))
    assert counts == [3, 3]


def test_constants_are_pi_and_ln2_rounded_down():
    with mpmath.workprec(CONST_BITS + 64):
        scale = mpmath.mpf(2) ** CONST_BITS
        assert numeric._PI == int(mpmath.floor(mpmath.pi * scale))
        assert numeric._LN2 == int(mpmath.floor(mpmath.ln2 * scale))


def exact(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """(a, b, e) with x + i y = (a + i b) 2^e, for dyadic x and y."""
    e = -max(x.denominator, y.denominator).bit_length() + 1
    return int(x * 2 ** -e), int(y * 2 ** -e), e


#: imaginary parts of exponents: the kernel's and the series' for points
#: of the sizes the checks use, and every double past them
_IMAG = st.one_of(st.floats(-64, 64), st.floats(-1e300, 1e300),
                  st.sampled_from([0.0, 2.0 ** 1020, -(2.0 ** 1020)]))


@settings(max_examples=300, deadline=None)
@given(quarters=st.integers(-64, 64), near=st.integers(-(2 ** 40), 2 ** 40),
       digits=st.integers(0, 120), imag=_IMAG)
# exactly on an odd multiple of 1/4, where the reduction's k ties
@example(quarters=1, near=0, digits=0, imag=0.0)
@example(quarters=-3, near=0, digits=0, imag=-40.0)
def test_exponential_is_within_three_units(quarters, near, digits, imag):
    # Re w on a multiple of 1/4 or within 2^-40 of one: at the odd ones the
    # quarter-turn reduction changes k, at the even ones t is near zero
    w = exact(Fraction(quarters, 4) + Fraction(near, 2 ** (40 + digits)), Fraction(imag))
    re, im, e = _expjpi(w)
    assert max(abs(re), abs(im)).bit_length() == MANTISSA_BITS
    with mpmath.workprec(300):
        a, b, we = w
        expected = mpmath.expjpi(mpmath.mpc(mpmath.ldexp(a, we), mpmath.ldexp(b, we)))
        got = mpmath.mpc(mpmath.ldexp(re, e), mpmath.ldexp(im, e))
        assert abs(got - expected) <= 3 * 2.0 ** -MANTISSA_BITS * abs(expected)


# the points the kernel is compared with the box walk at, with the
# tolerances their callers use: the character laws' base point, the skewed
# points and the diagonal points of `numeric.diagonal_vanishing`
BOX_POINTS = ([(_BASE, 1e-13)] + [(Z, 1e-13) for Z in SKEWED_POINTS]
              + [(SiegelPoint(t1, 0j, t2), 1e-14) for t1, t2 in (
                  (1j, 2j), (0.5 + 1j, 3j), (0.3 + 1.5j, 1.2j), (2j, 1j),
                  (-0.4 + 1.1j, 0.25 + 1.3j))])


def box_mismatches(Z: SiegelPoint, tol: float) -> list[Char]:
    """Characteristics whose kernel value differs from the box walk's: in
    any bit for an even one.  An odd constant vanishes identically: the
    kernel's is exactly zero, and the box walk's double is the rounding
    residue of its fixed-point sums, a few units of 2^-FIXED_BITS that move
    with the order of the products, so it may differ by up to 16 units."""
    kernel = theta_eval_batch(all_characteristics(), Z, tol=tol)
    box = box_reference.theta_eval_batch(all_characteristics(), Z, tol=tol)
    odd = set(odd_characteristics())
    return [m for m, k, b in zip(all_characteristics(), kernel, box)
            if (abs(k.value - b.value) > 16 * 2.0 ** -FIXED_BITS if m in odd
                else (k.value.real.hex(), k.value.imag.hex())
                != (b.value.real.hex(), b.value.imag.hex()))]


@pytest.mark.parametrize("Z, tol", BOX_POINTS)
def test_kernel_values_are_the_box_walks(Z, tol):
    assert box_mismatches(Z, tol) == []


def test_odd_characteristics_evaluate_to_zero():
    # the mirror r -> -r moves cell s to s + a, and the signs of the two
    # cells cancel when b.a is odd, so the integer sums are exactly zero
    rng = random.Random(1)
    points = [rand_point(rng)] + [Z for Z, _ in BOX_POINTS]
    for Z in points:
        for m in odd_characteristics():
            assert theta_eval_batch([m], Z, tol=1e-12)[0].value == 0, (Z, m)


@settings(max_examples=30, deadline=None)
@given(y2=st.floats(0.4, 1.5), extra=st.floats(0.4, 1.5),
       slope=st.one_of(st.just(0.0), st.floats(-2.5, 2.5)),
       x=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
       tol=st.sampled_from([1e-8, 1e-13]))
def test_kernel_is_the_box_walk_at_random_points(y2, extra, slope, x, tol):
    # y1 = slope y2, so |y1 / y2| > 1 moves each next row's start by more
    # than one step; det Y = extra y2 keeps Y positive definite
    y1 = slope * y2
    Z = SiegelPoint(complex(x[0], slope * y1 + extra), complex(x[1], y1),
                    complex(x[2], y2))
    kernel = theta_eval_batch(all_characteristics(), Z, tol=tol)
    box = box_reference.theta_eval_batch(all_characteristics(), Z, tol=tol)
    odd = set(odd_characteristics())
    # the kernel's bound past the Gaussian tail: the terms its window drops
    # and its roundings, which are no smaller than the box walk's
    near = kernel[0].tail_bound - _summation_radius(Z.min_eigenvalue(), tol)[1]
    for m, k, b in zip(all_characteristics(), kernel, box):
        if m in odd:
            assert k.value == 0, m
            continue
        # the box walk sums what the window drops; each sum is then rounded
        # once to a double, within half a unit in its last place
        for u, v in ((k.value.real, b.value.real), (k.value.imag, b.value.imag)):
            assert (u.hex() == v.hex()
                    or abs(u - v) <= 2 * near + 2.0 ** -53 * (abs(u) + abs(v))), (m, u, v)


_MANTISSA = st.integers(1 << (MANTISSA_BITS - 1), (1 << MANTISSA_BITS) - 1)


@settings(max_examples=200, deadline=None)
@given(larger=_MANTISSA, smaller=st.integers(0, (1 << MANTISSA_BITS) - 1),
       signs=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])),
       real_is_larger=st.booleans(), e=st.integers(-600, 400))
# 1 / u is just below -i 2^(1 - MANTISSA_BITS) in modulus, and its imaginary
# part floors to that power of two
@example(larger=1 << (MANTISSA_BITS - 1), smaller=(1 << 80) + 1, signs=(1, 1),
         real_is_larger=False, e=0)
def test_inverse_is_rounded_down_within_its_bound(larger, smaller, signs,
                                                  real_is_larger, e):
    smaller = min(smaller, larger)
    ur, ui = (larger, smaller) if real_is_larger else (smaller, larger)
    ur, ui = ur * signs[0], ui * signs[1]
    vr, vi, ve = _inverse((ur, ui, e))
    assert max(abs(vr), abs(vi)).bit_length() == MANTISSA_BITS
    # each part is the floor of conj(u) / |u|^2 in units of 2^ve
    scale = Fraction(2) ** (-e - ve) / (ur * ur + ui * ui)
    assert (vr, vi) == (math.floor(ur * scale), math.floor(-ui * scale))
    # and u times it is 1 within 2^(1.5 - MANTISSA_BITS)
    unit = Fraction(2) ** (e + ve)
    err_re = (ur * vr - ui * vi) * unit - 1
    err_im = (ur * vi + ui * vr) * unit
    assert err_re ** 2 + err_im ** 2 < Fraction(2) ** (3 - 2 * MANTISSA_BITS)


def test_box_comparison_sees_a_narrower_window(monkeypatch):
    # negative control: a window that may drop tol 2^10, so terms below
    # about 2^-40 at tol 1e-13, moves the doubles
    monkeypatch.setattr(numeric, "WINDOW_MARGIN_BITS", -10)
    assert any(box_mismatches(Z, tol) for Z, tol in BOX_POINTS)


@pytest.mark.parametrize("seed", [0, 1001])
def test_numeric_report_is_the_box_walks(seed, monkeypatch):
    kernel = run_suite("numeric", seed=seed).as_dict()
    monkeypatch.setattr(numeric, "theta_eval_batch", box_reference.theta_eval_batch)
    assert kernel == run_suite("numeric", seed=seed).as_dict()


def test_window_walks_fewer_steps_than_the_box(monkeypatch):
    steps = []
    walk = numeric._walk

    def counted(x, rho, step, count):
        steps.append(count)
        return walk(x, rho, step, count)

    monkeypatch.setattr(numeric, "_walk", counted)
    # one characteristic per parity class, at the radius-42 point
    chars = [Char(0, 0, 0, 0), Char(0, 1, 1, 0), Char(1, 0, 0, 1), Char(1, 1, 1, 1)]
    Z = SKEWED_POINTS[0]
    counts = []
    for batch in (theta_eval_batch, box_reference.theta_eval_batch):
        steps.clear()
        batch(chars, Z, tol=1e-13)
        counts.append(sum(steps))
    # the box has 7225 points in its four classes, 170 of them row starts;
    # the window sized from tol 1e-13 drops the terms below 2^-65 here
    assert counts == [472, 7055]


def _walk_step_by_step(x, rho, step, count):
    """`numeric._walk` one step per turn: step k = 1, ..., count multiplies
    the term by rho and rho by `step`, and adds the term to the odd sums
    for odd k and to the even sums for even k."""
    (xr, xi), (rr, ri), (sr, si) = x, rho, step
    sums = [0, 0, 0, 0]  # odd re, odd im, even re, even im
    for k in range(1, count + 1):
        xr, xi = (xr * rr - xi * ri) >> FIXED_BITS, (xr * ri + xi * rr) >> FIXED_BITS
        rr, ri = (rr * sr - ri * si) >> FIXED_BITS, (rr * si + ri * sr) >> FIXED_BITS
        at = 0 if k % 2 else 2
        sums[at] += xr
        sums[at + 1] += xi
    return tuple(sums)


@pytest.mark.parametrize("count", range(10))
def test_walk_is_the_step_by_step_loop(count):
    # box_reference walks its rows through numeric._walk too, so only an
    # independent loop can see a fault in it
    rng = random.Random(count)
    one = 1 << FIXED_BITS
    for _ in range(25):
        x, rho, step = [(rng.randrange(-one, one), rng.randrange(-one, one))
                        for _ in range(3)]
        assert numeric._walk(x, rho, step, count) == _walk_step_by_step(x, rho, step, count)


def _expansions(chars, truncation):
    return {m: theta_qexp(m, truncation) for m in chars}


def test_dual_engine_consistency_all_even():
    Z = SiegelPoint(3j, 0j, 3j)
    deviations = series_numeric_consistency(_expansions(even_characteristics(), 12), Z)
    assert len(deviations) == 10
    assert all(d < 1e-8 for d in deviations)


def test_dual_engine_shares_its_exponentials(monkeypatch):
    # three for the lattice batch and three q's shared by the ten series
    calls = []
    expjpi = numeric._expjpi

    def counted(w):
        calls.append(w)
        return expjpi(w)

    monkeypatch.setattr(numeric, "_expjpi", counted)
    series_numeric_consistency(_expansions(even_characteristics(), 12),
                               SiegelPoint(3j, 0j, 3j))
    assert len(calls) == 6


def test_dual_engine_batch_matches_one_at_a_time():
    # a parity class's partial sums do not depend on the rest of the batch
    Z = SiegelPoint(3j, 0j, 3j)
    chars = even_characteristics()
    assert series_numeric_consistency(_expansions(chars, 12), Z) == [
        series_numeric_consistency(_expansions([m], 12), Z)[0] for m in chars]


def test_dual_engine_ten_seeded_points():
    rng = random.Random(42)
    for _ in range(10):
        Z = SiegelPoint(
            complex(rng.uniform(-0.5, 0.5), rng.uniform(3.2, 4.0)),
            complex(rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.25)),
            complex(rng.uniform(-0.5, 0.5), rng.uniform(3.2, 4.0)),
        )
        assert all(d < 1e-8 for d in
                   series_numeric_consistency(_expansions(even_characteristics(), 12), Z))


def test_dual_engine_higher_point():
    assert series_numeric_consistency(
        _expansions([Char(0, 0, 0, 0)], 12), SiegelPoint(5j, 0j, 5j))[0] < 1e-12


def test_dual_engine_rejects_low_points():
    with pytest.raises(ValueError, match="dropped-terms"):
        series_numeric_consistency(_expansions([Char(0, 0, 0, 0)], 4),
                                   SiegelPoint(0.6j, 0j, 0.6j))


def test_identity_transform_is_exact():
    Z = SiegelPoint(1.2j, 0.1j, 1.3j)
    image, det = siegel_transform(SpMat.identity(), Z)
    assert abs(det - 1) < 1e-25
    [(ok, dev)] = modulus_law([SpMat.identity()], [Char(0, 0, 1, 1)], Z)
    assert ok and dev < 1e-12


def test_full_inversion_transform():
    rng = random.Random(7)
    evens = even_characteristics()
    for _ in range(20):
        Z = rand_point(rng)
        m = rng.choice(evens)
        [(ok, dev)] = modulus_law([SpMat(J4)], [m], Z)
        assert ok and dev < 1e-8


def test_sampled_transform_modulus():
    rng = random.Random(17)
    mats = conditioned_samples(Subgroup.full(), 20, seed=100,
                               word_length=5, max_entry=3, nonzero_c=10)
    evens = even_characteristics()
    for M in mats:
        m = rng.choice(evens)
        [(ok, dev)] = modulus_law([M], [m], rand_point(rng))
        assert ok and dev < 1e-8


def law_samples(name: str) -> tuple[str, list[SpMat]]:
    """A character law and its samples, as the suite draws them for
    `weight2_character` ("hecke2") and `weight3_trivial_character`
    ("chi_kernel"), and the weight-3 law on Gamma2,0[2] ("cusp_form")."""
    if name == "hecke2":
        return "theta_product", conditioned_samples(
            Subgroup.hecke(), 20, seed=200, word_length=8, max_entry=5, nonzero_c=8)
    if name == "chi_kernel":
        return "cusp_form", conditioned_samples(
            Subgroup.chi_kernel(), 20, seed=300, word_length=8, max_entry=5, nonzero_c=8)
    return "cusp_form", conditioned_samples(
        Subgroup.hecke(), 12, seed=400, word_length=8, max_entry=5, nonzero_c=5)


LAW_SAMPLES = ["hecke2", "chi_kernel", "cusp_form"]


def two_transform_signs(kind: str, mats, base: SiegelPoint) -> list[int]:
    """The law's signs by the direct route: Z = M^-1<base>, a second
    transform of Z by M for M<Z> and det(CZ+D), and the sign within 1e-6
    of form(M<Z>) / (det(CZ+D)^k form(Z))."""
    chars, weight = LAWS[kind]
    signs = []
    for M in mats:
        Z, _ = siegel_transform(M.inverse(), base)
        image, det = siegel_transform(M, Z)
        ratio = (theta_product_eval(chars, image, tol=1e-13).value
                 / (det ** weight * theta_product_eval(chars, Z, tol=1e-13).value))
        [sign] = [s for s in (1, -1) if abs(ratio - s) <= 1e-6]
        signs.append(sign)
    return signs


@pytest.mark.parametrize("name", LAW_SAMPLES)
def test_law_signs_are_the_two_transform_signs(name):
    kind, mats = law_samples(name)
    assert law_signs(kind, mats, _BASE) == two_transform_signs(kind, mats, _BASE)


def test_law_ends_transform_twice_and_evaluate_once_at_the_better_end(monkeypatch):
    # each sample transforms the base by M and by M^-1, and the form is
    # evaluated at whichever image has the larger smallest eigenvalue of
    # Im, M^-1<base> on a tie; the base's values are one batch
    kind, mats = law_samples("hecke2")
    ends = []
    for M in mats:
        forward, backward = (siegel_transform(N, _BASE)[0] for N in (M, M.inverse()))
        ends.append(forward if forward.min_eigenvalue() > backward.min_eigenvalue()
                    else backward)
    # both ends occur among the samples
    assert {Z == siegel_transform(M, _BASE)[0] for Z, M in zip(ends, mats)} == {True, False}
    transforms, points = [], []
    transform, evaluate = siegel_transform, theta_eval_batch
    monkeypatch.setattr(numeric, "siegel_transform",
                        lambda M, Z: transforms.append((M, Z)) or transform(M, Z))
    monkeypatch.setattr(numeric, "theta_eval_batch",
                        lambda chars, Z, tol: points.append(Z) or evaluate(chars, Z, tol))
    law_signs(kind, mats, _BASE)
    assert transforms == [(N, _BASE) for M in mats for N in (M, M.inverse())]
    assert points == [_BASE, *ends]


def test_numeric_battery_evaluates_the_base_once(monkeypatch):
    # the three laws read one batch of the ten even thetas at the base, each
    # law sample evaluates one point, and the diagonal record one
    # off-diagonal control: 70 lattice batches per run
    batches = []
    evaluate = theta_eval_batch
    monkeypatch.setattr(numeric, "theta_eval_batch",
                        lambda chars, Z, tol: batches.append((len(chars), Z)) or
                        evaluate(chars, Z, tol))
    report = run_suite("numeric", seed=1000)
    assert {c.status for c in report.checks} == {"pass"}
    assert len(batches) == 70
    assert batches.count((10, _BASE)) == 1
    # and each law's form there is the product of its own batch, bit for bit
    evens = even_characteristics()
    at_base = dict(zip(evens, evaluate(evens, _BASE, 1e-13)))
    for chars, _ in LAWS.values():
        assert (numeric._product([at_base[m] for m in chars])
                == theta_product_eval(chars, _BASE, tol=1e-13))


def test_backward_factor_is_the_reciprocal(monkeypatch):
    # mutation: at the backward end, j(M, M^-1<base>) taken as j(M^-1, base)
    # and not its reciprocal must fail the weight-2 and the modulus law
    calls = itertools.count()
    transform = siegel_transform

    def mutated(M, Z):
        image, det = transform(M, Z)
        # `law_ends` transforms by M, then by M^-1, the backward end
        return image, (1 / det if next(calls) % 2 else det)

    monkeypatch.setattr(numeric, "siegel_transform", mutated)
    statuses = {c.id: c.status for c in run_suite("numeric", seed=0).checks}
    assert statuses["numeric.modulus_law"] == "fail"
    assert statuses["numeric.weight2_character"] == "fail"


@pytest.mark.parametrize("name", LAW_SAMPLES)
def test_automorphy_factor_is_a_cocycle(name):
    # j(M, M^-1<base>) j(M^-1, base) = 1: the factor of the pulled-back
    # point is the reciprocal of det(CZ+D) at it
    for M in law_samples(name)[1]:
        Z, factor = siegel_transform(M.inverse(), _BASE)
        _, det = siegel_transform(M, Z)
        assert abs(det * factor - 1) < 1e-12


def bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def mpmath_transform(M: SpMat, Z: SiegelPoint) -> tuple[complex, ...]:
    """The parts of M<Z> and det(CZ+D) at 60 digits, each rounded to the
    nearest double."""
    with mpmath.workdps(60):
        z0, z1, z2 = box_reference.as_mpc(Z)
        (n00, n01), (n10, n11), (d00, d01), (d10, d11) = (
            (r[0] * z0 + r[1] * z1 + r[2], r[0] * z1 + r[1] * z2 + r[3]) for r in M.rows)
        det = d00 * d11 - d01 * d10
        off = (n01 * d00 - n00 * d01 + n10 * d11 - n11 * d10) / 2
        return tuple(complex(x) for x in ((n00 * d11 - n01 * d10) / det, off / det,
                                           (n11 * d00 - n10 * d01) / det, det))


@pytest.mark.parametrize("name", ["modulus", *LAW_SAMPLES])
def test_transform_is_the_rounded_60_digit_transform(name):
    # the samples of every law, as the suite draws them at seed 0, and
    # their inverses, at the base point and the skewed points
    mats = (conditioned_samples(Subgroup.full(), 20, seed=100, word_length=5,
                                max_entry=3, nonzero_c=10)
            if name == "modulus" else law_samples(name)[1])
    for M in mats:
        for N in (M, M.inverse()):
            for Z in (_BASE, *SKEWED_POINTS):
                image, det = siegel_transform(N, Z)
                assert ([bits(z) for z in (image.z0, image.z1, image.z2, det)]
                        == [bits(z) for z in mpmath_transform(N, Z)]), (N, Z)


def test_series_evaluation_is_the_rounded_60_digit_sum():
    rng = random.Random(5)
    for m in even_characteristics():
        Z = rand_point(rng, y=3.0)
        series = theta_qexp(m, 12)
        with mpmath.workdps(60):
            z0, z1, z2 = box_reference.as_mpc(Z)
            q0, q1, q2 = (mpmath.expjpi(w) for w in ((z0 + z1) / 4, -z1 / 4, (z2 + z1) / 4))
            expected = complex(sum(c * q0 ** n0 * q1 ** n1 * q2 ** n2
                                   for (n0, n1, n2), c in series.terms.items()))
        assert bits(evaluate_qseries([series], Z)[0]) == bits(expected), m


def test_theta_product_character_matches_formula():
    kind, mats = law_samples("hecke2")
    measured = law_signs(kind, mats, _BASE)
    assert measured == [theta_character(M) for M in mats]
    assert set(measured) == {1, -1}


def test_cusp_form_character_trivial_on_kernel():
    kind, mats = law_samples("chi_kernel")
    assert law_signs(kind, mats, _BASE) == [1] * len(mats)


def test_cusp_form_character_matches_combined_formula():
    # on the bigger group the weight-3 product transforms by the product of
    # the quadratic character and the mod-2 sign character
    kind, mats = law_samples("cusp_form")
    assert law_signs(kind, mats, _BASE) == [cusp_form_character(M) for M in mats]


def test_lower_triangular_flips_the_product_form():
    low = SpMat.from_blocks(((1, 0), (0, 1)), ((0, 0), (0, 0)),
                            ((2, 2), (2, 2)), ((1, 0), (0, 1)))
    point = rand_point(random.Random(3))
    assert law_signs("theta_product", [low], point) == [-1]
    assert two_transform_signs("theta_product", [low], point) == [-1]
    assert theta_character(low) == -1


def test_measured_characters_are_multiplicative():
    mats = conditioned_samples(Subgroup.hecke(), 10, seed=500,
                               word_length=6, max_entry=3, nonzero_c=4)
    rng = random.Random(9)
    pairs = [(a, b) for a, b in ((rng.choice(mats), rng.choice(mats)) for _ in range(30))
             if (a * b).max_entry() <= 12]
    products = law_signs("theta_product", [a * b for a, b in pairs], _BASE)
    factors = law_signs("theta_product", [m for pair in pairs for m in pair], _BASE)
    assert pairs and products == [x * y for x, y in zip(factors[::2], factors[1::2])]


def test_diagonal_vanishing():
    assert diagonal_vanishing_check(1j, 2j)
    assert diagonal_vanishing_check(0.5 + 1j, 3j)
    # control: the even theta with zero characteristic does not vanish there
    control = theta_eval_batch([Char(0, 0, 0, 0)], SiegelPoint(1j, 0j, 2j), tol=1e-12)[0]
    assert abs(control.value) > 1


def test_antisymmetry_numeric_and_exact():
    from siegelcy.characteristics import STANDARD_SEXTUPLE

    rng = random.Random(23)
    for _ in range(10):
        Z = rand_point(rng, y=1.0)
        flipped = SiegelPoint(Z.z0, -Z.z1, Z.z2)
        plus = theta_product_eval(LAWS["cusp_form"][0], Z)
        minus = theta_product_eval(LAWS["cusp_form"][0], flipped)
        assert abs(plus.value + minus.value) < 1e-9
    # and exactly on expansions
    from siegelcy.qseries import product

    series = product(theta_qexp(m, 12) for m in sorted(STANDARD_SEXTUPLE))
    assert negate_offdiag(series) == -series
