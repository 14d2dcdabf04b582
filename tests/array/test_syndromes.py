"""GF(2^64) syndrome arithmetic: field axioms, Q updates, erasure solves."""

import random

import pytest

from repro.array import syndromes as gf


def _poly_mulmod(a: int, b: int, modulus: int) -> int:
    """Carry-less multiply of bit-polynomials reduced mod ``modulus``."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
    degree = modulus.bit_length() - 1
    while result.bit_length() - 1 >= degree:
        result ^= modulus << (result.bit_length() - 1 - degree)
    return result


def _poly_gcd(a: int, b: int) -> int:
    while b:
        if a.bit_length() < b.bit_length():
            a, b = b, a
            continue
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def _schoolbook_mul(a: int, b: int) -> int:
    """Frozen reference: shift-and-xtime over every bit of ``b``.

    ``gf.mul`` may pick which operand to iterate; this one never does,
    so it pins the product independently of that choice.
    """
    result = 0
    a &= gf.MASK64
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a >> 64:
            a ^= gf.POLY
    return result


class TestReductionPolynomial:
    def test_pentanomial_is_irreducible(self):
        """x^(2^64) == x mod f and gcd(x^(2^32) ^ x, f) == 1.

        Together these are the standard irreducibility certificate for
        a degree-64 binary polynomial (64's only prime factor is 2, so
        the single gcd test rules out all proper factors).
        """
        x = 0b10
        frobenius = x
        for step in range(64):
            frobenius = _poly_mulmod(frobenius, frobenius, gf.POLY)
            if step == 31:
                half = frobenius
        assert frobenius == x
        assert _poly_gcd(half ^ x, gf.POLY) == 1

    def test_poly_matches_low_constant(self):
        assert gf.POLY == (1 << 64) | 0x1B


class TestFieldAxioms:
    def test_identity_and_zero(self):
        rng = random.Random(1)
        for _ in range(20):
            a = rng.getrandbits(64)
            assert gf.mul(a, 1) == a
            assert gf.mul(a, 0) == 0

    def test_commutative_and_associative(self):
        rng = random.Random(2)
        for _ in range(20):
            a, b, c = (rng.getrandbits(64) for _ in range(3))
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))

    def test_mul_matches_schoolbook_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            assert gf.mul(a, b) == _schoolbook_mul(a, b)

    def test_sparse_operand_either_side_matches_reference(self):
        rng = random.Random(8)
        for j in range(21):
            x_j = gf.x_pow(j)
            for v in (0, 1, gf.MASK64, rng.getrandbits(64), rng.getrandbits(8)):
                assert gf.mul(x_j, v) == _schoolbook_mul(x_j, v)
                assert gf.mul(v, x_j) == _schoolbook_mul(v, x_j)

    def test_wide_b_takes_unswapped_path(self):
        # b wider than 64 bits is never swapped: every bit is iterated
        # and the product is reduced, i.e. a * (b mod f).
        rng = random.Random(9)
        for _ in range(20):
            a = rng.getrandbits(64)
            b = rng.getrandbits(100) | (1 << 99)
            assert gf.mul(a, b) == _schoolbook_mul(a, b)
            assert gf.mul(a, b) == _poly_mulmod(a, b, gf.POLY)

    def test_distributive_over_xor(self):
        rng = random.Random(3)
        for _ in range(20):
            a, b, c = (rng.getrandbits(64) for _ in range(3))
            assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)

    def test_inverse(self):
        rng = random.Random(4)
        for _ in range(8):
            a = rng.getrandbits(64) | 1
            assert gf.mul(a, gf.inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)

    def test_x_pow_matches_repeated_xtime(self):
        value = 1
        for j in range(70):
            assert gf.x_pow(j) == value
            value = gf.xtime(value)


class TestSyndromes:
    def test_q_update_matches_recompute(self):
        rng = random.Random(5)
        data = [rng.getrandbits(64) for _ in range(8)]
        q = gf.q_of(data)
        for pos in range(len(data)):
            new = rng.getrandbits(64)
            q = gf.q_update(q, pos, data[pos], new)
            data[pos] = new
            assert q == gf.q_of(data)

    def test_recover_single_via_p(self):
        rng = random.Random(6)
        data = [rng.getrandbits(64) for _ in range(5)]
        p, q = gf.p_of(data), gf.q_of(data)
        for lost in range(len(data)):
            holes = list(data)
            holes[lost] = None
            assert gf.recover_stripe_data(holes, p, q) == data

    def test_recover_single_via_q_when_p_lost(self):
        rng = random.Random(7)
        data = [rng.getrandbits(64) for _ in range(5)]
        q = gf.q_of(data)
        for lost in range(len(data)):
            holes = list(data)
            holes[lost] = None
            assert gf.recover_stripe_data(holes, None, q) == data

    def test_recover_two_data_units(self):
        rng = random.Random(8)
        data = [rng.getrandbits(64) for _ in range(6)]
        p, q = gf.p_of(data), gf.q_of(data)
        for a in range(len(data)):
            for b in range(a + 1, len(data)):
                holes = list(data)
                holes[a] = holes[b] = None
                assert gf.recover_stripe_data(holes, p, q) == data

    def test_three_erasures_rejected(self):
        data = [1, 2, None, None]
        with pytest.raises(ValueError):
            gf.recover_stripe_data(data, None, 7)

    def test_no_erasures_is_identity(self):
        data = [3, 1, 4, 1, 5]
        assert gf.recover_stripe_data(data, gf.p_of(data), gf.q_of(data)) == data

    def test_recover_two_rejects_equal_positions(self):
        with pytest.raises(ValueError):
            gf.recover_two(1, 2, 3, 3)
