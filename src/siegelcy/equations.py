"""The algebra that the exact engines share, written once over any ring:
the threefold's quartic and quadric in y and in x, the sign of a
permutation and the determinant.

The module imports nothing from the package: `variety` reads the equations
on the `MPoly` generators and `modforms` on the series, so neither engine
imports the other; `variety` and `characteristics` read the permutation
sign from here, and `mpoly` and `variety` the determinant.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations


def perm_sign(perm: tuple[int, ...]) -> int:
    """The sign of the permutation i -> perm[i] of range(len(perm)), from
    its cycles: each cycle of even length flips it."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def determinant(matrix):
    """Exact determinant of a square matrix over any commutative ring (ints,
    `MPoly`), as the signed sum over all permutations; it uses only `*` and
    `+`, and is meant for n <= 6."""
    total = matrix[0][0] * 0
    for perm in permutations(range(len(matrix))):
        term = matrix[0][perm[0]] * perm_sign(perm)
        for i in range(1, len(matrix)):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


class Equations:
    """The threefold's quartic and quadric in y and in x, over any ring: the
    `MPoly` generators for the presentations, or the series y0..y5 and
    F1..F6 for the ring relations (`FormRegistry` is an `Equations` that
    builds y and x when an equation first reads them).  Each equation
    returns its (lhs, rhs) pair, with the coefficient a falsification
    control perturbs as c.  Every product that two sides, or a side and
    its perturbed copy, read is built once, and an x equation never reads
    y."""

    def __init__(self, y, x) -> None:
        self.y, self.x = y, x

    @cached_property
    def y5_square(self):
        return self.y[5] ** 2

    @cached_property
    def y5_pow4(self):
        return self.y5_square ** 2

    @cached_property
    def igusa_quadric(self):
        """y0y1 + y0y2 + y1y2 - y3y4, made as y0(y1 + y2) + y1y2 - y3y4."""
        y0, y1, y2, y3, y4, _ = self.y
        return y0 * (y1 + y2) + y1 * y2 - y3 * y4

    @cached_property
    def igusa_quadric_square(self):
        return self.igusa_quadric ** 2

    @cached_property
    def quartic_product(self):
        """y0y1y2(y0 + y1 + y2 + y3 + y4)."""
        y0, y1, y2, y3, y4, _ = self.y
        return y0 * y1 * y2 * (y0 + y1 + y2 + y3 + y4)

    @cached_property
    def x_squares(self) -> list:
        """S_i = x_i^2."""
        return [v ** 2 for v in self.x]

    @cached_property
    def x_quartic_parts(self) -> tuple:
        """x4^4, the x-quartic's right side less its c term, x0x1x2x3."""
        S0, S1, S2, S3, S4, _ = self.x_squares
        x0, x1, x2, x3, _, _ = self.x
        return (S4 ** 2,
                -S0 * S4 - S1 * S2 - S1 * S3 - S2 * S3 + 4 * (S4 * (S1 + S2 + S3)),
                x0 * x1 * x2 * x3)

    def y_quartic(self, c: int = 1):
        """c y5^4 = y0y1y2(y0 + y1 + y2 + y3 + y4)."""
        return c * self.y5_pow4, self.quartic_product

    def y_quadric(self, c: int = 2):
        """c y5^2 = y0y1 + y0y2 + y1y2 - y3y4."""
        return c * self.y5_square, self.igusa_quadric

    def igusa_quartic(self, c: int = 4):
        """Igusa's (y0y1 + y0y2 + y1y2 - y3y4)^2 = c y0y1y2(y0 + ... + y4)."""
        return self.igusa_quadric_square, c * self.quartic_product

    def x_quartic(self, c: int = 1):
        """16x4^4 = -S0S4 - S1S2 - S1S3 - S2S3 + 4S4(S1 + S2 + S3) + c x0x1x2x3;
        c sits on x0x1x2x3, which starts at weight 16 on the forms, x4^4 at 32."""
        x4_pow4, rest, x_product = self.x_quartic_parts
        return 16 * x4_pow4, rest + c * x_product

    def x_quadric(self, c: int = 32):
        """x5^2 = x0^2 - 4x1^2 - 4x2^2 - 4x3^2 + c x4^2."""
        S0, S1, S2, S3, S4, S5 = self.x_squares
        return S5, S0 - 4 * S1 - 4 * S2 - 4 * S3 + c * S4
