"""P+Q syndrome arithmetic over GF(2^64) for dual-syndrome stripes.

A dual-syndrome (RAID-6 style) stripe holds ``G - 2`` data units plus
two check units:

- **P** — the plain XOR of the data units (the paper's single parity);
- **Q** — the Reed-Solomon-style syndrome ``Q = sum x^j * d_j`` where
  the sum is XOR, ``d_j`` is the ``j``-th data unit, and ``x`` is the
  polynomial generator of GF(2^64).

Datastore stripe units are single 64-bit words, so the field is
GF(2^64) with the irreducible pentanomial

    f(x) = x^64 + x^4 + x^3 + x + 1

(the reduction constant ``0x1B``, the 64-bit analogue of the classic
GF(2^8) AES polynomial). With P and Q any **two** missing units of a
stripe are recoverable:

- one data unit via P (plain XOR), exactly as the single-syndrome code;
- one data unit with P also missing, via Q: ``d_a = Q' / x^a``;
- two data units via the 2x2 solve
  ``d_a = (Q' ^ x^b * P') / (x^a ^ x^b)``, ``d_b = P' ^ d_a``,
  where P' and Q' are the syndromes of the *missing* units (observed
  syndrome XOR the contribution of the surviving units);
- missing check units are recomputed from data.

Everything here is pure word arithmetic on Python ints; the small
per-position constants (``x^j`` and the pairwise inverses) are memoised
because stripe width ``G`` is tiny (<= 21) while inversion costs a full
square-and-multiply ladder.
"""

from __future__ import annotations

import typing

MASK64 = (1 << 64) - 1

#: Low coefficients of the reduction pentanomial x^64 + x^4 + x^3 + x + 1.
POLY_LOW = 0x1B

#: Full reduction polynomial (degree 64), for tests and gcd checks.
POLY = (1 << 64) | POLY_LOW


def xtime(a: int) -> int:
    """Multiply by ``x`` in GF(2^64)."""
    a <<= 1
    if a >> 64:
        a ^= POLY_LOW
    return a & MASK64


def mul(a: int, b: int) -> int:
    """Carry-less product of ``a`` and ``b`` reduced mod the pentanomial.

    The loop runs once per bit of ``b``, so when both operands fit in
    64 bits the smaller one is iterated (the field is commutative): a Q
    update by ``x^j`` takes ``j + 1`` steps instead of 64.
    """
    result = 0
    a &= MASK64
    if a < b <= MASK64:
        a, b = b, a
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a = xtime(a)
    return result


def power(a: int, exponent: int) -> int:
    """``a ** exponent`` in GF(2^64) by square-and-multiply."""
    result = 1
    base = a & MASK64
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        base = mul(base, base)
        exponent >>= 1
    return result


def inv(a: int) -> int:
    """Multiplicative inverse: ``a^(2^64 - 2)`` (Fermat). ``a`` must be != 0."""
    if not a & MASK64:
        raise ZeroDivisionError("0 has no inverse in GF(2^64)")
    return power(a, (1 << 64) - 2)


_X_POWERS: typing.List[int] = [1]


def x_pow(j: int) -> int:
    """``x^j`` — memoised; ``j`` is a data-unit position (small)."""
    while len(_X_POWERS) <= j:
        _X_POWERS.append(xtime(_X_POWERS[-1]))
    return _X_POWERS[j]


_PAIR_INV: typing.Dict[typing.Tuple[int, int], int] = {}
_POS_INV: typing.Dict[int, int] = {}


def _inv_x_pow(pos: int) -> int:
    cached = _POS_INV.get(pos)
    if cached is None:
        cached = _POS_INV[pos] = inv(x_pow(pos))
    return cached


def _inv_pair(pos_a: int, pos_b: int) -> int:
    key = (pos_a, pos_b) if pos_a < pos_b else (pos_b, pos_a)
    cached = _PAIR_INV.get(key)
    if cached is None:
        cached = _PAIR_INV[key] = inv(x_pow(key[0]) ^ x_pow(key[1]))
    return cached


# ----------------------------------------------------------------------
# Syndrome computation and incremental update
# ----------------------------------------------------------------------
def p_of(values: typing.Iterable[int]) -> int:
    """P syndrome: XOR of the data units."""
    p = 0
    for value in values:
        p ^= value
    return p & MASK64


def q_of(values: typing.Iterable[int]) -> int:
    """Q syndrome: ``XOR of x^j * d_j`` over data positions ``j``."""
    q = 0
    for j, value in enumerate(values):
        q ^= mul(x_pow(j), value)
    return q


def q_update(old_q: int, pos: int, old_value: int, new_value: int) -> int:
    """New Q after data position ``pos`` changes from old to new value.

    The small-write analogue of the XOR parity update: Q changes by
    ``x^pos * (old ^ new)``.
    """
    return old_q ^ mul(x_pow(pos), (old_value ^ new_value) & MASK64)


# ----------------------------------------------------------------------
# Erasure recovery
# ----------------------------------------------------------------------
def recover_from_q(q_residual: int, pos: int) -> int:
    """Lost data unit at ``pos`` when P is also lost but Q survives.

    ``q_residual`` is the observed Q XOR the contributions of every
    surviving data unit, i.e. ``x^pos * d_pos``.
    """
    return mul(q_residual, _inv_x_pow(pos))


def recover_two(
    p_residual: int, q_residual: int, pos_a: int, pos_b: int
) -> typing.Tuple[int, int]:
    """Two lost data units at ``pos_a`` and ``pos_b`` via P and Q.

    Residuals carry only the missing units' contributions:
    ``P' = d_a ^ d_b`` and ``Q' = x^a d_a ^ x^b d_b``, so
    ``d_a = (Q' ^ x^b P') / (x^a ^ x^b)`` and ``d_b = P' ^ d_a``.
    """
    if pos_a == pos_b:
        raise ValueError("the two erased positions must differ")
    d_a = mul(q_residual ^ mul(x_pow(pos_b), p_residual), _inv_pair(pos_a, pos_b))
    return d_a, (p_residual ^ d_a) & MASK64


def recover_stripe_data(
    data: typing.Sequence[typing.Optional[int]],
    p: typing.Optional[int],
    q: typing.Optional[int],
) -> typing.List[int]:
    """Fill in missing data units of one dual-syndrome stripe.

    ``data`` lists the data units in position order with ``None`` for
    lost units; ``p``/``q`` are the check units or ``None`` when lost.
    At most two units (data or check) may be missing in total. Returns
    the complete data vector; raises ValueError if under-determined.
    """
    missing = [j for j, value in enumerate(data) if value is None]
    erasures = len(missing) + (p is None) + (q is None)
    if erasures > 2:
        raise ValueError(f"{erasures} erasures exceed dual-syndrome tolerance")
    if not missing:
        return [typing.cast(int, value) for value in data]
    if len(missing) == 1:
        j = missing[0]
        known = [(i, v) for i, v in enumerate(data) if v is not None]
        if p is not None:
            value = p_of([v for _i, v in known]) ^ p
        else:
            assert q is not None  # erasure budget guarantees it
            residual = q
            for i, v in known:
                residual ^= mul(x_pow(i), v)
            value = recover_from_q(residual, j)
        rebuilt = list(data)
        rebuilt[j] = value & MASK64
        return [typing.cast(int, v) for v in rebuilt]
    # Two data units missing: both checks must be present.
    assert p is not None and q is not None  # erasure budget guarantees it
    j_a, j_b = missing
    p_residual = p
    q_residual = q
    for i, v in enumerate(data):
        if v is not None:
            p_residual ^= v
            q_residual ^= mul(x_pow(i), v)
    d_a, d_b = recover_two(p_residual & MASK64, q_residual, j_a, j_b)
    rebuilt = list(data)
    rebuilt[j_a] = d_a
    rebuilt[j_b] = d_b
    return [typing.cast(int, v) for v in rebuilt]
