"""Exact arithmetic in Z[zeta], zeta a primitive 8th root of unity.

An element is stored as the integer 4-tuple (c0, c1, c2, c3) representing
c0 + c1*zeta + c2*zeta**2 + c3*zeta**3, reduced by zeta**4 = -1.  This
representation is canonical: two elements are equal iff their tuples agree.
Series coefficients are plain integers; an element of this ring appears
only where a translation leaves a phase that is not real.  Elements add,
multiply and compare with plain integers, so a series can mix both kinds.
"""

from __future__ import annotations


class CycInt8:
    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: int = 0, c1: int = 0, c2: int = 0, c3: int = 0) -> None:
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2
        self.c3 = c3

    @classmethod
    def zeta_power(cls, k: int) -> CycInt8:
        """zeta**k as a ring element (k arbitrary, reduced mod 8)."""
        k %= 8
        sign = 1 if k < 4 else -1
        coeffs = [0, 0, 0, 0]
        coeffs[k % 4] = sign
        return cls(*coeffs)

    def coords(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    def __bool__(self) -> bool:
        return any(self.coords())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.coords() == (other, 0, 0, 0)
        if not isinstance(other, CycInt8):
            return NotImplemented
        return self.coords() == other.coords()

    def __neg__(self) -> CycInt8:
        return CycInt8(-self.c0, -self.c1, -self.c2, -self.c3)

    def __add__(self, other: CycInt8 | int) -> CycInt8:
        if isinstance(other, int):
            return CycInt8(self.c0 + other, self.c1, self.c2, self.c3)
        if not isinstance(other, CycInt8):
            return NotImplemented
        return CycInt8(self.c0 + other.c0, self.c1 + other.c1,
                       self.c2 + other.c2, self.c3 + other.c3)

    __radd__ = __add__

    def __mul__(self, other: CycInt8 | int) -> CycInt8:
        if isinstance(other, int):
            return CycInt8(self.c0 * other, self.c1 * other,
                           self.c2 * other, self.c3 * other)
        if not isinstance(other, CycInt8):
            return NotImplemented
        a = self.coords()
        b = other.coords()
        out = [0, 0, 0, 0]
        for i in range(4):
            if a[i] == 0:
                continue
            for j in range(4):
                if b[j] == 0:
                    continue
                k = i + j
                if k < 4:
                    out[k] += a[i] * b[j]
                else:
                    out[k - 4] -= a[i] * b[j]
        return CycInt8(*out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CycInt8{self.coords()}"
