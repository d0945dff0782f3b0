from fractions import Fraction

import pytest

from barthslice.errors import DomainError
from barthslice.fields import (
    DEFAULT_PRIME,
    PrimeField,
    RationalField,
    is_prime,
)
from barthslice.rng import SeededRng


def test_default_prime_is_prime():
    assert DEFAULT_PRIME == 2_147_483_647
    assert is_prime(DEFAULT_PRIME)


def test_prime_field_rejects_composite():
    with pytest.raises(DomainError):
        PrimeField(2_147_483_646)


# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI12 = 318_665_857_834_031_151_167_461  # 399165290221 * 798330580441
PSI13 = 3_317_044_064_679_887_385_961_981  # 1287836182261 * 2575672364521


def test_prime_field_rejects_strong_pseudoprimes():
    # psi12 passes the Miller-Rabin bases up to 37, so base 41 is needed
    assert PSI12 == 399_165_290_221 * 798_330_580_441 and not is_prime(PSI12)
    with pytest.raises(DomainError, match="is not prime"):
        PrimeField(PSI12)
    # psi13 passes all 13 bases: is_prime is exact only below it
    assert PSI13 == 1_287_836_182_261 * 2_575_672_364_521
    with pytest.raises(DomainError, match="primality is not certified"):
        PrimeField(PSI13)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def test_prime_field_rejects_small_prime_by_default():
    with pytest.raises(DomainError):
        PrimeField(7)


def test_small_prime_escape_hatch_div():
    # 2 * 4 = 8 = 1 mod 7
    f7 = PrimeField(7, allow_small=True)
    assert f7.div(1, 2) == 4
    assert f7.mul(2, 4) == 1


def test_prime_arithmetic_canonical_residues():
    gf = PrimeField()
    p = gf.characteristic
    assert gf.add(p - 1, 1) == 0
    assert gf.sub(0, 1) == p - 1
    assert gf.neg(0) == 0
    assert gf.mul(p - 1, p - 1) == 1
    assert gf.coerce(-1) == p - 1
    assert gf.inv(2) == (p + 1) // 2


def test_prime_inv_of_zero_raises():
    gf = PrimeField()
    with pytest.raises(DomainError):
        gf.inv(0)
    with pytest.raises(DomainError):
        gf.div(1, 0)


def test_rational_add_example():
    qq = RationalField()
    assert qq.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


@pytest.mark.parametrize("field", [PrimeField(), RationalField()])
def test_mul_by_zero_annihilates(field):
    rng = SeededRng(3)
    for _ in range(20):
        x = field.sample(rng)
        assert field.mul(x, field.zero()) == field.zero()


def test_rational_canonical_form():
    qq = RationalField()
    x = qq.div(qq.coerce(2), qq.coerce(-4))
    assert x == Fraction(-1, 2)
    assert x.denominator == 2 and x.numerator == -1


def test_coerce_rejects_bool_and_junk():
    for field in (PrimeField(), RationalField()):
        with pytest.raises(DomainError):
            field.coerce(True)
        with pytest.raises(DomainError):
            field.coerce("3")
    with pytest.raises(DomainError):
        PrimeField().coerce(Fraction(1, 2))


@pytest.mark.parametrize("window", [-1, 1.5, "3", True, None])
def test_rational_window_must_be_a_nonnegative_int(window):
    with pytest.raises(DomainError):
        RationalField(sample_window=window)


def test_describe_and_identity():
    assert PrimeField().describe() == f"GF({DEFAULT_PRIME})"
    assert RationalField(sample_window=5).describe() == "QQ(window=5)"
    # the window is sampling configuration, not field identity
    assert RationalField(sample_window=5) == RationalField(sample_window=100)
    assert PrimeField() != RationalField()


def test_rational_window_zero_always_zero():
    qq = RationalField(sample_window=0)
    rng = SeededRng(1)
    assert all(qq.sample(rng) == 0 for _ in range(25))


def test_rational_window_bounds():
    qq = RationalField(sample_window=3)
    rng = SeededRng(4)
    seen = {int(qq.sample(rng)) for _ in range(500)}
    assert seen == set(range(-3, 4))


def test_prime_sample_reproducible():
    gf = PrimeField()
    a = [gf.sample(SeededRng(0)) for _ in range(1)]
    b = [gf.sample(SeededRng(0)) for _ in range(1)]
    assert a == b
    assert 0 <= a[0] < gf.characteristic
