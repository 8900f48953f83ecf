import cmath
import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfapprox.characters import DirichletCharacter, character_from_id, enumerate_characters
from selfapprox.errors import DomainError


def euler_phi(q):
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)


def test_modulus_one_is_zeta_coefficient_stream():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    chi = chars[0]
    assert chi.principal
    assert all(chi(n) == 1 for n in range(1, 20))


def test_mod_four_characters():
    chars = enumerate_characters(4)
    assert len(chars) == 2
    chi = chars[1]
    assert not chi.principal
    assert chi(1) == 1
    assert abs(chi(3) + 1) < 1e-15
    assert chi(2) == 0 and chi(4) == 0


def test_mod_five_characters():
    chars = enumerate_characters(5)
    assert len(chars) == 4
    allowed = {1 + 0j, -1 + 0j, 1j, -1j, 0j}
    for chi in chars:
        assert chi.order in (1, 2, 4)
        for n in range(1, 6):
            v = chi(n)
            assert min(abs(v - w) for w in allowed) < 1e-14


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 9, 12, 16, 24, 36, 45, 60, 100])
def test_counts_and_uniqueness(q):
    chars = enumerate_characters(q)
    assert len(chars) == euler_phi(q)
    assert sum(c.principal for c in chars) == 1
    assert len({c.value_table for c in chars}) == len(chars)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 15, 16, 21, 40, 63])
def test_orthogonality(q):
    for chi in enumerate_characters(q):
        total = sum(chi(n) for n in range(1, q + 1))
        if chi.principal:
            assert abs(total - euler_phi(q)) < 1e-10
        else:
            assert abs(total) < 1e-12


def test_vanishing_exactly_on_non_units():
    for q in (4, 6, 12, 18):
        for chi in enumerate_characters(q):
            for n in range(1, q + 1):
                if math.gcd(n, q) > 1:
                    assert chi(n) == 0
                else:
                    assert abs(abs(chi(n)) - 1) < 1e-14


def test_periodicity_and_reduction():
    chi = character_from_id("4:1")
    assert abs(chi(7) + 1) < 1e-15  # 7 = 3 mod 4
    for n in (-5, 11, 103):
        assert abs(chi(n) - chi(n % 4)) < 1e-15
    chi0 = enumerate_characters(5)[0]
    assert abs(chi0(12) - 1) < 1e-15
    assert chi(8) == 0  # multiple of q


@settings(max_examples=200, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=60),
    m=st.integers(min_value=1, max_value=500),
    n=st.integers(min_value=1, max_value=500),
)
def test_complete_multiplicativity(q, m, n):
    for chi in enumerate_characters(q):
        lhs = chi(m * n)
        rhs = chi(m) * chi(n)
        assert abs(lhs - rhs) < 1e-12


def test_value_table_entries_are_exact_angles():
    chi = enumerate_characters(5)[1]
    angles = {a for a in chi.value_table if a is not None}
    assert all(isinstance(a, Fraction) and 0 <= a < 1 for a in angles)
    assert chi.angle(1) == 0


def test_lexicographic_labels_stable():
    chi = character_from_id("4:1")
    assert chi.label == "4:1" and not chi.principal
    assert character_from_id("4:0").principal


def test_character_from_id_builds_the_enumerated_character():
    # == compares labels, so the tables are compared as well
    for q in range(1, 201):
        for i, chi in enumerate(enumerate_characters(q)):
            built = character_from_id(f"{q}:{i}")
            assert built == chi
            assert built.numerators == chi.numerators
            assert built.values.tobytes() == chi.values.tobytes()


def test_a_character_is_its_label():
    assert [f.name for f in dataclasses.fields(DirichletCharacter)] == ["modulus", "index"]
    assert hash(character_from_id("60:1")) == hash(enumerate_characters(60)[1])
    assert DirichletCharacter(60, 1) == character_from_id("60:1") != DirichletCharacter(60, 2)
    for q, index in ((4, 2), (4, -1), (0, 0), (-3, 0)):
        with pytest.raises(DomainError):
            DirichletCharacter(q, index)


def test_character_from_id_and_conjugate_build_one_character_only():
    # building all 2002 characters mod 2003 peaked at 240 MB traced
    tracemalloc.start()
    try:
        chi = character_from_id("2003:1")
        bar = chi.conjugate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chi.label == "2003:1" and chi.order == 2002
    assert bar.label == "2003:2001"
    assert peak < 16e6


def test_bad_inputs():
    with pytest.raises(DomainError):
        enumerate_characters(0)
    with pytest.raises(DomainError):
        character_from_id("4-1")
    with pytest.raises(DomainError):
        character_from_id("4:2")


def test_conjugate_character():
    for chi in enumerate_characters(5):
        bar = chi.conjugate()
        for n in range(1, 6):
            assert abs(bar(n) - chi(n).conjugate()) < 1e-14
    for q in range(1, 61):
        for chi in enumerate_characters(q):
            bar = chi.conjugate()
            assert bar.value_table == tuple(None if a is None else -a % 1 for a in chi.value_table)
            assert bar.conjugate() == chi


# sha256 over (label, order, principal, str(angle) for every residue) of every
# character mod q <= 200, recorded from the Fraction-table construction this
# representation replaced.  It pins the "q:index" labels that CLI runs,
# manifests and `rerun` refer to.
TABLE_DIGEST_Q200 = "0ffa92e56d3a7018f36b8685c1736bb9b92c99f29f15e0269ecf12c151c00c8d"


def test_character_tables_match_recorded_digest():
    h = hashlib.sha256()
    for q in range(1, 201):
        for chi in enumerate_characters(q):
            angles = ",".join(str(chi.angle(n)) for n in range(1, q + 1))
            h.update(f"{chi.label}|{chi.order}|{chi.principal}|{angles}\n".encode())
    assert h.hexdigest() == TABLE_DIGEST_Q200


def test_numerators_exactly_multiplicative():
    # k(mn) = k(m) + k(n) mod e on units, -1 as soon as a factor is a non-unit
    for q in range(1, 61):
        r = np.arange(q)
        products = r[:, None] * r[None, :] % q
        for chi in enumerate_characters(q):
            k = np.array(chi.numerators)
            vanish = (k[:, None] < 0) | (k[None, :] < 0)
            expected = np.where(vanish, -1, (k[:, None] + k[None, :]) % chi.exponent)
            assert np.array_equal(k[products], expected)


def test_complex_table_matches_float_of_exact_angle():
    # the double chi(n) is exp(2 pi i float(angle)), bit for bit
    for q in range(1, 61):
        for chi in enumerate_characters(q):
            for n in range(q):
                a = chi.angle(n)
                expected = 0j if a is None else cmath.exp(2j * cmath.pi * float(a))
                assert chi(n) == expected and chi.values[n] == expected


def test_order_against_angles():
    for q in range(1, 61):
        for chi in enumerate_characters(q):
            angles = [a for a in chi.value_table if a is not None]
            assert chi.order == math.lcm(*(a.denominator for a in angles))
            assert chi.principal == (chi.index == 0) == (chi.order == 1)


def _conductor_oracle(chi):
    # the smallest d | q with chi(n) = 1 for every unit n = 1 (mod d)
    q = chi.modulus
    return min(
        d for d in range(1, q + 1)
        if q % d == 0 and all(chi.numerators[n % q] == 0 for n in range(1, q + 1, d) if math.gcd(n, q) == 1)
    )


def test_conductor_matches_the_brute_force_oracle():
    for q in range(1, 121):
        for chi in enumerate_characters(q):
            assert chi.conductor == _conductor_oracle(chi), chi.label
            assert chi.conjugate().conductor == chi.conductor
    assert [character_from_id(c).conductor for c in ("1:0", "4:1", "60:0", "60:1", "12:1", "120:8")] == [
        1, 4, 1, 5, 3, 8]
    assert character_from_id("2003:1").conductor == 2003


def test_enumerate_characters_leaves_the_conductor_uncomputed():
    # tables, order and conductor are computed on first use, not for every
    # character built
    chars = enumerate_characters.__wrapped__(120)
    for name in ("conductor", "numerators", "values", "value_table", "order"):
        assert not any(name in vars(chi) for chi in chars), name
