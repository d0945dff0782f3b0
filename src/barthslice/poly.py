"""Univariate polynomials over the active field, with Euclidean gcd.

Coefficients are stored in ascending degree; the zero polynomial is the
empty coefficient list.  Only what the rank-pencil certificate needs is
implemented: ring arithmetic, exact division, and the monic gcd.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError, ShapeError
from .fields import Field


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence = ()):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == field.zero():
            cs.pop()
        self.field = field
        self.coeffs = cs

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def _check_field(self, other: "Poly"):
        if self.field != other.field:
            raise ShapeError("polynomials live over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        z = f.zero()
        a = self.coeffs + [z] * (n - len(self.coeffs))
        b = other.coeffs + [z] * (n - len(other.coeffs))
        return Poly(f, [f.add(x, y) for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        z = f.zero()
        a = self.coeffs + [z] * (n - len(self.coeffs))
        b = other.coeffs + [z] * (n - len(other.coeffs))
        return Poly(f, [f.sub(x, y) for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        f = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(f)
        out = [f.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly(f, out)

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.coerce(c)
        return Poly(f, [f.mul(c, a) for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Exact Euclidean division: self = q * divisor + r, deg r < deg divisor."""
        self._check_field(divisor)
        if divisor.is_zero():
            raise DomainError("polynomial division by zero")
        f = self.field
        rem = self.coeffs[:]
        dcs = divisor.coeffs
        dn = len(dcs)
        lead_inv = f.inv(dcs[-1])
        q = [f.zero()] * max(len(rem) - dn + 1, 0)
        for i in range(len(rem) - dn, -1, -1):
            c = f.mul(rem[i + dn - 1], lead_inv)
            if c == 0:
                continue
            q[i] = c
            for j, d in enumerate(dcs):
                rem[i + j] = f.sub(rem[i + j], f.mul(c, d))
        return Poly(f, q), Poly(f, rem)

    def __repr__(self):
        return f"Poly({self.coeffs!r})"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(h, 0) = monic(h)."""
    f._check_field(g)
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()
