"""Exact coefficient fields: prime fields GF(p) and the rationals QQ.

Elements are kept in canonical form as plain Python values, so equality is
representational equality:

* GF(p): residues as ``int`` in ``[0, p)``,
* QQ: ``fractions.Fraction`` (always reduced, positive denominator).

A field object owns the arithmetic and the random sampling rule for its
elements.  All operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import DomainError

#: Default modulus: the Mersenne prime 2**31 - 1.  Products of two residues
#: stay below 2**62, so single mul-then-reduce steps are exact in int64.
DEFAULT_PRIME = 2_147_483_647

#: Primes below this bound make random genericity checks unreliable and are
#: rejected unless explicitly allowed.
SMALL_PRIME_FLOOR = 1 << 20

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The finite field GF(p), elements stored as canonical residues.

    Primes below 2**20 are rejected: the random genericity checks (census
    trials, witness directions) hit special points too often there.
    ``allow_small=True`` accepts them anyway, for exact arithmetic that
    draws nothing at random.
    """

    def __init__(self, p: int = DEFAULT_PRIME, *, allow_small: bool = False):
        if not isinstance(p, int) or not is_prime(p):
            raise DomainError(f"modulus {p!r} is not prime")
        if p < SMALL_PRIME_FLOOR and not allow_small:
            raise DomainError(
                f"prime {p} is below 2**20, where random genericity checks are unreliable"
            )
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def coerce(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise DomainError(f"cannot coerce {x!r} into GF({self.p})")
        return x % self.p

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def mul(self, x: int, y: int) -> int:
        return x * y % self.p

    def neg(self, x: int) -> int:
        return -x % self.p

    def inv(self, x: int) -> int:
        if x % self.p == 0:
            raise DomainError("division by zero in GF(p)")
        return pow(x, self.p - 2, self.p)

    def div(self, x: int, y: int) -> int:
        return x * self.inv(y) % self.p

    def sample(self, rng) -> int:
        """Uniform element of GF(p)."""
        return rng.integers(self.p)

    def describe(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals, elements stored as reduced ``Fraction`` values.

    ``sample_window`` bounds the uniform integer sampling range [-M, M];
    it is a sampling configuration, not part of the field identity.
    """

    characteristic = 0

    def __init__(self, sample_window: int = 100):
        w = sample_window
        if isinstance(w, bool) or not isinstance(w, int) or w < 0:
            raise DomainError(f"sample window must be a nonnegative integer, got {w!r}")
        self.sample_window = sample_window

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, bool):
            raise DomainError(f"cannot coerce {x!r} into QQ")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise DomainError(f"cannot coerce {x!r} into QQ")

    def add(self, x: Fraction, y: Fraction) -> Fraction:
        return x + y

    def sub(self, x: Fraction, y: Fraction) -> Fraction:
        return x - y

    def mul(self, x: Fraction, y: Fraction) -> Fraction:
        return x * y

    def neg(self, x: Fraction) -> Fraction:
        return -x

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise DomainError("division by zero in QQ")
        return 1 / x

    def div(self, x: Fraction, y: Fraction) -> Fraction:
        if y == 0:
            raise DomainError("division by zero in QQ")
        return x / y

    def sample(self, rng) -> Fraction:
        """Uniform integer in [-M, M] for the configured window M."""
        m = self.sample_window
        return Fraction(rng.integers(2 * m + 1) - m)

    def describe(self) -> str:
        return f"QQ(window={self.sample_window})"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return f"RationalField(sample_window={self.sample_window})"


Field = Union[PrimeField, RationalField]
