import random

import pytest
from hypothesis import given, settings, strategies as st

from reuseguard.errors import NotOnCurveError, UnsupportedGroupError
from reuseguard.groups import (
    P160,
    P192,
    P224,
    P256,
    EllipticCurveGroup,
    EnumerableGroup,
    FixedBaseTable,
    _is_prime,
    sqrt_mod_prime,
    enumerable_group,
)

ALL_CURVES = [P160, P192, P224, P256]


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_curve_field_and_order_are_prime(curve):
    assert _is_prime(curve.p) and _is_prime(curve.order)


def test_curve_with_a_other_than_minus_3_is_refused():
    # y^2 = x^3 + b through P192's generator: only a differs.
    gx, gy = P192.generator
    b = (gy * gy - gx * gx * gx) % P192.p
    with pytest.raises(UnsupportedGroupError):
        EllipticCurveGroup("a0", P192.p, 0, b, gx, gy, P192.order)
    with pytest.raises(UnsupportedGroupError):
        EllipticCurveGroup("off", P192.p, P192.a, P192.b, gx, gy + 1, P192.order)


def _affine_add(curve, P, Q):
    """Reference point addition in affine form, for any a."""
    if P is None:
        return Q
    if Q is None:
        return P
    p = curve.p
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return (x3, (slope * (x1 - x3) - y1) % p)


def _reference_mul(curve, P, n):
    acc = None
    n %= curve.order
    while n:
        if n & 1:
            acc = _affine_add(curve, acc, P)
        P = _affine_add(curve, P, P)
        n >>= 1
    return acc


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


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_lockstep_table_holds_d_times_2_to_the_8i_times_g(curve):
    rows = FixedBaseTable(curve, curve.generator).rows
    assert len(rows) == -(-curve.order.bit_length() // 8)
    for i, row in enumerate(rows):
        assert len(row) == 256 and row[0] is None
        assert row[1] == _reference_mul(curve, curve.generator, 1 << (8 * i))
        for d in range(2, 256):
            assert row[d] == _affine_add(curve, row[d - 1], row[1])
    rng = random.Random(19)
    for _ in range(4):
        i, d = rng.randrange(len(rows)), rng.randrange(1, 256)
        assert rows[i][d] == _reference_mul(curve, curve.generator, d << (8 * i))


def _joint_edge_scalars(order):
    return [0, 1, order - 1, order, order + 1, 2 * order + 5,
            1 << (order.bit_length() - 1)]


@pytest.mark.parametrize("curve", ALL_CURVES, ids=lambda c: c.name)
def test_multi_exp_equals_the_sum_of_separate_exps(curve):
    # The identity as a base, P with -P (mixed addition's cancel branch)
    # and P with P (its doubling branch) as well as two unrelated points.
    rng = random.Random(23)
    P, Q = curve.random_element(rng), curve.random_element(rng)
    scalars = _joint_edge_scalars(curve.order)
    for A, B in ((P, Q), (None, P), (P, curve.inv(P)), (P, P)):
        multiples_a = [_reference_mul(curve, A, z) if A else None for z in scalars]
        multiples_b = [_reference_mul(curve, B, z) for z in scalars]
        for za, a_z in zip(scalars, multiples_a):
            assert curve.exp(A, za) == a_z
            for zb, b_z in zip(scalars, multiples_b):
                assert curve.multi_exp([(A, za), (B, zb)]) == _affine_add(curve, a_z, b_z)
    z = [rng.randrange(curve.order) for _ in range(3)]
    three = curve.multi_exp([(P, z[0]), (Q, z[1]), (curve.generator, z[2])])
    assert three == curve.product([curve.exp(P, z[0]), curve.exp(Q, z[1]),
                                   curve.exp_generator(z[2])])
    assert curve.multi_exp([]) is None


def _edge_scalars(order):
    # Unreduced multiples of the order, and a scalar whose only nonzero
    # digit is in the comb's top window.
    return [0, 1, order - 1, 256, 512, 256 ** 3, order - order % 256,
            order, order + 1, 2 * order + 5, 1 << (order.bit_length() - 1)]


@pytest.mark.parametrize("size", [0, 1, 2, 20, 255, 256, 1000])
@pytest.mark.parametrize("group", ALL_CURVES + [enumerable_group(101)],
                         ids=lambda g: g.name)
def test_exp_generator_many_matches_exp_generator(group, size):
    rng = random.Random(size)
    scalars = (_edge_scalars(group.order) + [rng.randrange(group.order)
                                             for _ in range(size)])[:size]
    assert group.exp_generator_many(scalars) == [group.exp_generator(z) for z in scalars]


@pytest.mark.parametrize("size", [0, 1, 256])
@pytest.mark.parametrize("group", [P192, P256, enumerable_group(101)],
                         ids=lambda g: g.name)
def test_comb_stopped_after_any_window_resumes_to_the_same_points(group, size):
    rng = random.Random(100 + size)
    scalars = (_edge_scalars(group.order) + [rng.randrange(group.order)
                                             for _ in range(size)])[:size]
    expected = [group.exp_generator(z) for z in scalars]
    assert group.exp_generator_many(scalars) == expected
    whole = group.exp_generator_comb(scalars)
    windows = 0
    while whole.step():
        windows += 1
    assert whole.finish() == expected
    if isinstance(group, EnumerableGroup):
        assert windows == 1
    else:
        assert windows == (-(-group.order.bit_length() // 8) if size else 0)
    for stop in range(windows + 1):
        comb = group.exp_generator_comb(scalars)
        assert all(comb.step() for _ in range(stop))
        assert comb.finish() == expected
        assert not comb.step()
        assert comb.finish() == expected


def test_every_batch_size_runs_the_one_8_bit_comb(monkeypatch):
    built = []
    init = FixedBaseTable.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(FixedBaseTable, "__init__", counting_init)
    for size in (1, 20, 255, 256):
        built.clear()
        monkeypatch.setattr(P192, "_gen_table", None)  # a cold curve
        comb = P192.exp_generator_comb([1] * size)
        windows = 0
        while comb.step():
            windows += 1
        assert windows == -(-P192.order.bit_length() // 8)
        P192.exp_generator(5)
        P192.random_element()
        assert built == [P192.generator_table()]


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
