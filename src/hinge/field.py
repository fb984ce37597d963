"""Exact arithmetic in prime fields GF(p)."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    """Deterministic trial division; moduli stay below 2**16 so this is cheap."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field GF(p) for a prime modulus p with 2 <= p < 2**16.

    Instances are immutable value objects: two fields compare equal iff they
    share a modulus.  Elements are plain ints reduced mod p; inv_table() maps
    each unit to its inverse.  Elimination does not use the table: it inverts
    each pivot with pow, because building all p - 1 inverses costs more than
    one problem's pivots at large p.
    """

    __slots__ = ("p", "_inv")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus must be an int, got {type(p).__name__}")
        if not 2 <= p < 2 ** 16 or not is_prime(p):
            raise ValueError(f"modulus must be a prime in [2, 2**16), got {p}")
        self.p = p
        self._inv = None  # lazy inverse table, index a -> a**-1

    def inv_table(self) -> list:
        """Inverses of 1..p-1, with a placeholder 0 at index 0."""
        if self._inv is None:
            p = self.p
            self._inv = [0] + [pow(a, p - 2, p) for a in range(1, p)]
        return self._inv

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"
