"""Exact construction and evaluation of Dirichlet characters mod q.

Characters are built from the cyclic decomposition of (Z/qZ)*: a primitive
root for each odd prime-power factor, the generator 3 for modulus 4, and the
pair {-1, 5} for higher powers of two.  A character is its "q:index" label;
its tables are built on first use, as integer numerators k modulo the group
exponent e (chi(n) = e^{2 pi i k/e}, with -1 where chi vanishes), so its
values are exact; floating point enters only when a value is requested as a
complex number.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "DirichletCharacter",
    "enumerate_characters",
    "character_from_id",
]


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q with exact root-of-unity values.

    `index` is the lexicographic position of the character among all
    characters mod q, ordered by the exponents of the generator images; index
    0 is always the principal character.  The pair is the character's
    identity: equality and hashing go by the label.
    """

    modulus: int
    index: int

    def __post_init__(self):
        q = self.modulus
        if q < 1:
            raise DomainError(f"modulus must be positive, got {q}")
        phi = math.prod(m for _, m, _ in _component_generators(q))
        if not 0 <= self.index < phi:
            raise DomainError(f"character index {self.index} out of range for modulus {q} (phi={phi})")

    @classmethod
    def _enumerate(cls, q: int) -> tuple:
        """The phi(q) characters mod q, in index order.  The first checks q;
        every further index below phi is in range, so the rest get their
        fields as __init__ sets them, without running __post_init__'s check."""
        chars = [cls(q, 0)]
        new, set_field = object.__new__, object.__setattr__
        for index in range(1, math.prod(m for _, m, _ in _component_generators(q))):
            chi = new(cls)
            set_field(chi, "modulus", q)
            set_field(chi, "index", index)
            chars.append(chi)
        return tuple(chars)

    @property
    def label(self) -> str:
        return f"{self.modulus}:{self.index}"

    @property
    def principal(self) -> bool:
        return self.index == 0

    @cached_property
    def exponent(self) -> int:
        """The exponent e of (Z/qZ)*, the lcm of the generator orders."""
        return math.lcm(*(m for _, m, _ in _component_generators(self.modulus)))

    @cached_property
    def order(self) -> int:
        """The order of chi: the lcm of the orders m_j / gcd(k_j, m_j) of the images."""
        return math.lcm(*(m // math.gcd(k, m) for k, m, _ in self._generator_exponents()))

    @cached_property
    def numerators(self) -> tuple:
        """numerators[r] is the k with chi(r) = e^{2 pi i k/exponent} for the
        residue r = n mod q, or -1 when gcd(r, q) > 1 (where chi vanishes)."""
        q, e = self.modulus, self.exponent
        # unit g_1^x_1 ... g_r^x_r, over every tuple x, and the numerator
        # sum_j x_j k_j (e/m_j) mod e of chi there.  Each term is below
        # m_j * e <= q^2, so entries stay below rank * q^2, inside int64 for
        # every q below 10^8.
        units = np.full(1, 1 % q, dtype=np.int64)  # 1 % q is 0 for q = 1
        nums = np.zeros(1, dtype=np.int64)
        for (g, _, _), (k, m, _) in zip(reversed(_component_generators(q)), self._generator_exponents()):
            powers = np.array([pow(g, x, q) for x in range(m)], dtype=np.int64)
            units = (units[:, None] * powers % q).ravel()
            nums = (nums[:, None] + np.arange(m, dtype=np.int64) * (k * (e // m))).ravel()
        table = np.full(q, -1, dtype=np.int64)
        table[units] = nums % e
        return tuple(table.tolist())

    @cached_property
    def value_table(self) -> tuple:
        """value_table[i] is the exact angle of chi(i+1) (a Fraction in [0, 1)),
        or None where chi vanishes."""
        return tuple(self.angle(n) for n in range(1, self.modulus + 1))

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only complex table: values[n % q] is chi(n) as a double."""
        # k / e rounds correctly, as float(Fraction(k, e)) does, so these are the
        # doubles of the exact angles
        e = self.exponent
        table = np.array([cmath.exp(2j * cmath.pi * (k / e)) if k >= 0 else 0j
                          for k in self.numerators])
        table.setflags(write=False)
        return table

    def angle(self, n: int) -> Optional[Fraction]:
        """Exact angle of chi(n) as a Fraction in [0, 1), or None if chi(n)=0."""
        k = self.numerators[n % self.modulus]
        return None if k < 0 else Fraction(k, self.exponent)

    def __call__(self, n: int) -> complex:
        """chi(n) as a complex double; n is reduced mod q first."""
        return self.values.item(n % self.modulus)

    def _generator_exponents(self):
        """(k_j, m_j, c_j) per generator of _component_generators, in reverse
        order: chi sends generator j to e^{2 pi i k_j/m_j}, the k_j read off
        the index as mixed-radix digits (last generator fastest)."""
        rest = self.index
        for _, m, c in reversed(_component_generators(self.modulus)):
            rest, k = divmod(rest, m)
            yield k, m, c

    @cached_property
    def conductor(self) -> int:
        """The conductor d | q: chi is induced by a primitive character mod d.

        The local conductor of generator j is c_j / gcd(k_j, c_j), where c_j
        is that of k_j = 1 (see _component_generators): for a cyclic factor
        (Z/p^e Z)*, p odd, the image of g^((p-1) p^(f-1)), which generates the
        units = 1 mod p^f, is 1 iff p^(e-f) | k; for 2^e the same holds for the
        generator 5, and -1 (or 3 mod 4) only needs f = 2.  d is their lcm.
        """
        return math.lcm(*(c // math.gcd(k, c) for k, _, c in self._generator_exponents()))


def _primitive_root(pk: int, p: int) -> int:
    """A generator of (Z/p^k Z)* for odd prime p."""
    phi = pk - pk // p
    factors = [ell for ell, _ in _factorize(phi)]
    for g in range(2, pk):
        if math.gcd(g, pk) != 1:
            continue
        if all(pow(g, phi // ell, pk) != 1 for ell in factors):
            return g
    raise AssertionError("no primitive root found")  # pragma: no cover


def _factorize(q: int):
    out = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=64)
def _component_generators(q: int) -> tuple:
    """Generators of (Z/qZ)* as CRT-lifted residues (g, m, c): g has order m,
    and c is the conductor of the character that sends g to e^{2 pi i/m} and
    every other generator to 1 (p^e for a cyclic factor mod p^e and for the
    generator 5 mod 2^e, 4 for -1 and for 3 mod 4)."""
    gens = []
    for p, e in _factorize(q):
        pk = p**e
        rest = q // pk
        local = []
        if p == 2:
            if e == 2:
                local = [(3, 2, 4)]
            elif e >= 3:
                local = [(pk - 1, 2, 4), (5, 2 ** (e - 2), pk)]
            # e == 1: trivial unit group, no generator
        else:
            local = [(_primitive_root(pk, p), pk - pk // p, pk)]
        for g, m, c in local:
            # lift to the residue that is g mod p^e and 1 mod q/p^e (g itself
            # when q = p^e, where pow(pk, -1, 1) is 0)
            gens.append(((g * rest * pow(rest, -1, pk) + pk * pow(pk, -1, rest)) % q, m, c))
    return tuple(gens)


@lru_cache(maxsize=64)
def enumerate_characters(q: int) -> tuple:
    """All phi(q) Dirichlet characters mod q, in lexicographic generator-image
    order (so the ordering, and hence the "q:index" labels, is reproducible)."""
    return DirichletCharacter._enumerate(q)


def character_from_id(label: str) -> DirichletCharacter:
    """Resolve a "q:index" label, e.g. "4:1" for the nonprincipal character mod 4."""
    try:
        q_str, idx_str = label.split(":")
        q, idx = int(q_str), int(idx_str)
    except ValueError as exc:
        raise DomainError(f"malformed character id {label!r}; expected 'q:index'") from exc
    return DirichletCharacter(q, idx)
