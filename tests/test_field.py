"""Prime fields: inverse tables checked exhaustively for every prime up to 251."""

import pytest

from hinge.field import PrimeField, is_prime
from hinge.linalg import Matrix, SingularMatrixError


PRIMES_TO_251 = [p for p in range(2, 252) if is_prime(p)]


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 12, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_every_unit_has_inverse():
    for p in PRIMES_TO_251:
        field = PrimeField(p)
        table = field.inv_table()
        assert len(table) == p
        for a in range(1, p):
            assert (a * table[a]) % p == 1, f"inv failed for {a} mod {p}"


def test_inverse_of_zero_rejected():
    field = PrimeField(7)
    with pytest.raises(SingularMatrixError):
        Matrix(field, [[0]]).inverse()


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert len({PrimeField(2), PrimeField(2), PrimeField(3)}) == 2
