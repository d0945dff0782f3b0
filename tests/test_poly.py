from fractions import Fraction

import pytest

from barthslice.errors import DomainError, ShapeError
from barthslice.fields import PrimeField, RationalField
from barthslice.poly import Poly, poly_gcd

GF = PrimeField()
QQ = RationalField()


def test_trailing_zeros_stripped():
    p = Poly(QQ, (1, 2, 0, 0))
    assert p.degree() == 1
    assert Poly(QQ, (0, 0)).is_zero()
    assert Poly.zero(QQ).degree() == -1


def test_leading_of_zero_raises():
    with pytest.raises(DomainError):
        Poly.zero(QQ).leading()


def test_arithmetic_basics():
    x = Poly(QQ, (0, 1))
    one = Poly(QQ, (1,))
    p = (x + one) * (x - one)
    assert p == Poly(QQ, (-1, 0, 1))
    assert p - p == Poly.zero(QQ)
    assert (p * Poly.zero(QQ)).is_zero()
    assert p.scale(Fraction(2)) == Poly(QQ, (-2, 0, 2))


def test_mixed_fields_rejected():
    with pytest.raises(ShapeError):
        Poly(QQ, (0, 1)) + Poly(GF, (0, 1))


def test_divmod_exact():
    x = Poly(QQ, (0, 1))
    one = Poly(QQ, (1,))
    num = (x * x) - one
    quo, rem = num.divmod(x - one)
    assert quo == x + one
    assert rem.is_zero()
    with pytest.raises(DomainError):
        num.divmod(Poly.zero(QQ))


def test_divmod_identity_random():
    import random

    pyr = random.Random(5)
    for _ in range(25):
        f = Poly(GF, [pyr.randrange(GF.p) for _ in range(pyr.randrange(1, 7))])
        g = Poly(GF, [pyr.randrange(GF.p) for _ in range(pyr.randrange(1, 5))])
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()


@pytest.mark.parametrize("field", [GF, QQ])
def test_gcd_examples(field):
    x = Poly(field, (0, 1))
    one = Poly(field, (1,))
    t2m1 = x * x - one  # t^2 - 1
    assert poly_gcd(t2m1, x - one) == x - one
    assert poly_gcd(x, one) == one
    # t^2 - 2t + 1 = (t - 1)^2, common root t = 1
    sq = Poly(field, (1, field.neg(field.coerce(2)), 1))
    assert poly_gcd(t2m1, sq) == x - one


def test_gcd_is_monic_and_handles_zero():
    x = Poly(QQ, (0, 1))
    g = poly_gcd(x.scale(Fraction(3)), Poly.zero(QQ))
    assert g == x
    assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)).is_zero()


def test_monic():
    p = Poly(QQ, (2, 4))
    assert p.monic() == Poly(QQ, (Fraction(1, 2), 1))
