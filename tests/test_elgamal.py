import random

import pytest
from scipy import stats

from reuseguard.elgamal import (
    BOTTOM,
    Ciphertext,
    decrypt,
    encrypt,
    encrypt_with_randomness,
    gen,
    hexp,
    validate_ciphertext,
)
from reuseguard.groups import CURVES, P192, enumerable_group

ALL_CURVES = list(CURVES.values())


def test_gen_matches_definition_in_test_group(tg101, rng):
    kp = gen(tg101, rng)
    assert kp.pk.point == kp.sk.scalar % 101
    assert 0 <= kp.sk.scalar < 101


def test_gen_produces_point_on_curve(rng):
    kp = gen(P192, rng)
    assert P192.contains(kp.pk.point)


def test_gen_scalars_distinct_over_many_draws():
    seen = set()
    for _ in range(10_000):
        seen.add(gen(P192).sk.scalar)
    assert len(seen) == 10_000


@pytest.mark.parametrize("group_name", ["TEST(101)", "P192"])
def test_encrypt_decrypt_roundtrip(group_name, rng):
    group = {"TEST(101)": enumerable_group(101), "P192": P192}[group_name]
    kp = gen(group, rng)
    for _ in range(10):
        m = group.random_element(rng)
        assert decrypt(kp.sk, encrypt(kp.pk, m, rng)) == m
    assert decrypt(kp.sk, encrypt(kp.pk, group.identity, rng)) == group.identity


def test_encrypt_identity_validates(rng, tg101):
    kp = gen(tg101, rng)
    assert validate_ciphertext(kp.pk, encrypt(kp.pk, tg101.identity, rng))


def test_encrypt_rejects_non_element(rng):
    kp = gen(P192, rng)
    with pytest.raises(ValueError):
        encrypt(kp.pk, (1, 2), rng)


def test_encrypt_outputs_cover_exact_ciphertext_class(tg101, rng):
    # With the ephemeral scalar enumerated, the ciphertexts of m are
    # exactly {(x, m + u*x) : x in Z_101}.
    kp = gen(tg101, rng)
    m = 17
    expected = {(x, (m + kp.sk.scalar * x) % 101) for x in range(101)}
    produced = {tuple(encrypt_with_randomness(kp.pk, m, x)) for x in range(101)}
    assert produced == expected


def test_decrypt_agrees_with_bruteforce_oracle_everywhere(tg101, rng):
    kp = gen(tg101, rng)
    u = kp.sk.scalar
    for x_comp in range(101):
        for y_comp in range(101):
            got = decrypt(kp.sk, Ciphertext(x_comp, y_comp))
            assert got == (y_comp - u * x_comp) % 101


def test_decrypt_returns_bottom_for_invalid_components(rng):
    kp = gen(P192, rng)
    good = encrypt(kp.pk, P192.random_element(rng), rng)
    x, y = good.body
    bad = Ciphertext(good.ephemeral, (x, (y + 1) % P192.p))
    assert decrypt(kp.sk, bad) is BOTTOM
    assert decrypt(kp.sk, Ciphertext(b"junk", good.body)) is BOTTOM


def test_validation_soundness_matches_decrypt(tg101, rng):
    kp = gen(tg101, rng)
    cases = [
        encrypt(kp.pk, 5, rng),
        Ciphertext(100, 100),
        Ciphertext(101, 5),
        Ciphertext(5, -1),
        Ciphertext("a", 3),
    ]
    for c in cases:
        assert validate_ciphertext(kp.pk, c) == (decrypt(kp.sk, c) is not BOTTOM)


def test_validate_accepts_identity_component(rng):
    kp = gen(P192, rng)
    c = encrypt_with_randomness(kp.pk, P192.identity, 0)
    assert c.ephemeral is None  # scalar 0: the point at infinity
    assert validate_ciphertext(kp.pk, c)
    assert decrypt(kp.sk, c) == P192.identity


def test_hexp_matches_scalar_arithmetic(tg101, rng):
    kp = gen(tg101, rng)
    c2 = encrypt(kp.pk, tg101.exp_generator(2), rng)
    assert decrypt(kp.sk, hexp(kp.pk, c2, 3, rng)) == 6
    m = tg101.random_element(rng)
    c = encrypt(kp.pk, m, rng)
    assert decrypt(kp.sk, hexp(kp.pk, c, 1, rng)) == m
    one = encrypt(kp.pk, tg101.identity, rng)
    for z in (0, 1, 2, 57, 100):
        assert decrypt(kp.sk, hexp(kp.pk, one, z, rng)) == tg101.identity
    for z in range(-1, 203):
        assert decrypt(kp.sk, hexp(kp.pk, c2, z, rng)) == 2 * z % 101
    assert hexp(kp.pk, Ciphertext(101, 0), 3, rng) is None


def test_hexp_rerandomizes_output(rng):
    kp = gen(P192, rng)
    c = encrypt(kp.pk, P192.random_element(rng), rng)
    a = hexp(kp.pk, c, 1, rng)
    b = hexp(kp.pk, c, 1, rng)
    assert a != b
    assert decrypt(kp.sk, a) == decrypt(kp.sk, b)


def test_hexp_with_z_1_preserves_plaintext(tg101, rng):
    kp = gen(tg101, rng)
    c = encrypt(kp.pk, 9, rng)
    seen = {hexp(kp.pk, c, 1, rng) for _ in range(50)}
    assert len(seen) > 1
    assert all(decrypt(kp.sk, x) == 9 for x in seen)


def test_random_element_uniform_in_test_group(tg101):
    rng = random.Random(6)
    counts = [0] * 101
    for _ in range(100_000):
        counts[tg101.random_element(rng)] += 1
    assert stats.chisquare(counts).pvalue > 0.001
    identity_rate = counts[0] / 100_000
    assert abs(identity_rate - 1 / 101) < 5 * (1 / 101) ** 0.5 / 100_000 ** 0.5 * 10


def test_random_element_always_validates(rng):
    for curve in ALL_CURVES:
        for _ in range(20):
            assert curve.contains(curve.random_element(rng))


def test_component_marginals_identical_across_plaintexts(tg101, rng):
    # Enumerating the encryption randomness, the per-component value sets
    # are the same whatever the plaintext: a ciphertext alone carries no
    # plaintext information.
    kp = gen(tg101, rng)
    for m1, m2 in [(0, 1), (17, 92), (1, 100)]:
        outs1 = [encrypt_with_randomness(kp.pk, m1, x) for x in range(101)]
        outs2 = [encrypt_with_randomness(kp.pk, m2, x) for x in range(101)]
        assert sorted(c.ephemeral for c in outs1) == sorted(c.ephemeral for c in outs2)
        assert sorted(c.body for c in outs1) == sorted(c.body for c in outs2)

