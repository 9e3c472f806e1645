import random

import pytest
from hypothesis import given, settings, strategies as st

from reuseguard.errors import NotOnCurveError, UnsupportedGroupError
from reuseguard.groups import (
    COMB8_MIN_BATCH,
    P160,
    P192,
    P224,
    P256,
    EnumerableGroup,
    sqrt_mod_prime,
    enumerable_group,
)

ALL_CURVES = [P160, P192, P224, P256]


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_generator_has_group_order(curve):
    g = curve.generator
    assert curve.contains(g)
    assert curve.exp(g, curve.order) is None
    assert curve.exp(g, 1) == g
    assert curve.exp(g, curve.order + 1) == g


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_group_law_consistency(curve):
    rng = random.Random(7)
    g = curve.generator
    for _ in range(20):
        a = rng.randrange(curve.order)
        b = rng.randrange(curve.order)
        lhs = curve.exp(g, (a + b) % curve.order)
        rhs = curve.mul(curve.exp(g, a), curve.exp(g, b))
        assert lhs == rhs
    p = curve.exp(g, 12345)
    assert curve.mul(p, curve.inv(p)) is None
    assert curve.mul(p, None) == p
    assert curve.mul(None, p) == p


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_fixed_base_table_matches_plain_exp(curve):
    rng = random.Random(11)
    table = curve.generator_table()
    for _ in range(12):
        k = rng.randrange(curve.order)
        assert table.mul(k) == curve.exp(curve.generator, k)
    assert table.mul(0) is None
    assert curve.exp_generator(3) == curve.exp(curve.generator, 3)


def _edge_scalars(order):
    # Unreduced multiples of the order, and a scalar whose only nonzero
    # digit is in the top window of either comb width.
    return [0, 1, order - 1, 256, 512, 256 ** 3, order - order % 256,
            order, order + 1, 2 * order + 5, 1 << (order.bit_length() - 1)]


@pytest.mark.parametrize("size", [0, 1, 2, 20, COMB8_MIN_BATCH - 1, COMB8_MIN_BATCH, 1000])
@pytest.mark.parametrize("group", ALL_CURVES + [enumerable_group(101)],
                         ids=lambda g: g.name)
def test_exp_generator_many_matches_exp_generator(group, size):
    rng = random.Random(size)
    scalars = (_edge_scalars(group.order) + [rng.randrange(group.order)
                                             for _ in range(size)])[:size]
    assert group.exp_generator_many(scalars) == [group.exp_generator(z) for z in scalars]


def test_exp_generator_many_picks_comb_width_by_batch_size(monkeypatch):
    for size, bits in ((COMB8_MIN_BATCH - 1, 4), (COMB8_MIN_BATCH, 8)):
        monkeypatch.setattr(P192, "_gen_tables", {})  # a cold curve
        P192.exp_generator_many([1] * size)
        assert [t.bits for t in P192._gen_tables.values()] == [bits]


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_product_matches_pairwise_mul(curve):
    rng = random.Random(13)
    points = [curve.random_element(rng) for _ in range(9)] + [None]
    acc = None
    for p in points:
        acc = curve.mul(acc, p)
    assert curve.product(points) == acc
    assert curve.product([]) is None


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_compress_roundtrip_random_points(curve):
    rng = random.Random(17)
    trials = 10_000 if curve.name == "P192" else 2_000
    for _ in range(trials):
        p = curve.random_element(rng)
        data = curve.compress(p)
        assert len(data) == curve.field_bytes + 1
        assert curve.decompress(data) == p


def test_compress_identity_uses_reserved_parity():
    data = P192.compress(None)
    assert data[0] == 0x00
    assert data == b"\x00" * (P192.field_bytes + 1)
    assert P192.decompress(data) is None
    with pytest.raises(NotOnCurveError):
        P192.decompress(b"\x00" + b"\x01" * P192.field_bytes)


def test_compress_parity_distinguishes_negatives():
    g = P192.generator
    neg = P192.inv(g)
    assert P192.compress(g) != P192.compress(neg)
    assert P192.decompress(P192.compress(neg)) == neg


def test_decompress_rejects_non_residue_x():
    found = False
    for x in range(2, 500):
        rhs = (x * x * x + P192.a * x + P192.b) % P192.p
        if pow(rhs, (P192.p - 1) // 2, P192.p) != 1:
            data = bytes([0x02]) + x.to_bytes(P192.field_bytes, "big")
            with pytest.raises(NotOnCurveError):
                P192.decompress(data)
            found = True
            break
    assert found


def test_decompress_rejects_out_of_range_and_bad_parity():
    with pytest.raises(NotOnCurveError):
        P192.decompress(bytes([0x02]) + P192.p.to_bytes(P192.field_bytes, "big"))
    with pytest.raises(NotOnCurveError):
        P192.decompress(bytes([0x05]) + b"\x01" * P192.field_bytes)
    with pytest.raises(NotOnCurveError):
        P192.decompress(b"\x02\x01")


def test_contains_rejects_off_curve_points():
    x, y = P192.generator
    assert not P192.contains((x, (y + 1) % P192.p))
    assert not P192.contains((x, y + P192.p))
    assert not P192.contains("generator")
    assert P192.contains(None)


def test_sqrt_mod_prime_both_residue_classes():
    for p in (P192.p, P256.p, P224.p, 101, 13):
        rng = random.Random(p % 1000)
        for _ in range(20):
            y = rng.randrange(1, p)
            root = sqrt_mod_prime(y * y % p, p)
            assert root * root % p == y * y % p
    assert P224.p % 4 == 1  # exercises the Tonelli-Shanks path


def test_sqrt_mod_prime_rejects_non_residue():
    # 2 is a quadratic non-residue mod 13
    with pytest.raises(NotOnCurveError):
        sqrt_mod_prime(2, 13)


@given(st.integers(min_value=0, max_value=100))
def test_sqrt_mod_small_prime_matches_enumeration(v):
    squares = {y * y % 101 for y in range(101)}
    if v in squares:
        root = sqrt_mod_prime(v, 101)
        assert root * root % 101 == v
    else:
        with pytest.raises(NotOnCurveError):
            sqrt_mod_prime(v, 101)


def test_test_group_is_additive_z_r(tg101):
    assert tg101.identity == 0
    assert tg101.generator == 1
    assert tg101.mul(40, 70) == 9
    assert tg101.exp(7, 3) == 21
    assert tg101.exp_generator(205) == 3
    assert tg101.inv(1) == 100
    assert tg101.product([50, 50, 2]) == 1
    assert tg101.contains(100) and not tg101.contains(101)
    assert not tg101.contains("x")
    assert tg101.decompress(tg101.compress(55)) == 55
    with pytest.raises(NotOnCurveError):
        tg101.decompress(b"\x02\xff")


def test_test_group_requires_prime_order():
    with pytest.raises(UnsupportedGroupError):
        EnumerableGroup(100)



@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**60))
def test_scalar_mult_matches_double_and_add(k):
    def naive(point, n):
        acc = None
        while n:
            if n & 1:
                acc = P160.mul(acc, point)
            point = P160.mul(point, point)
            n >>= 1
        return acc

    assert P160.exp(P160.generator, k) == naive(P160.generator, k % P160.order)
