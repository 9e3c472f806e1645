import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from reuseguard import bloom

LN2 = math.log(2)


def test_indices_deterministic():
    params = bloom.BloomParams(500, 7, b"seed-bytes")
    item = b"some item"
    assert bloom.indices(params, item) == bloom.indices(params, item)


def test_single_hash_gives_singleton():
    params = bloom.BloomParams(64, 1, b"s")
    assert len(bloom.indices(params, b"x")) == 1


def test_indices_stable_golden_vectors():
    params = bloom.BloomParams(1000, 5, bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    assert sorted(bloom.indices(params, b"correct horse battery staple")) == [
        71, 138, 388, 884, 908]
    params2 = bloom.BloomParams(28854, 20, b"\xaa" * 16)
    assert sorted(bloom.indices(params2, b"hunter2")) == [
        1730, 4545, 5098, 5481, 6508, 6553, 7143, 7426, 12745, 18465, 19422,
        19578, 19677, 19764, 20566, 22741, 24945, 26326, 27353, 28207]


def test_seed_changes_indices():
    a = bloom.BloomParams(1000, 5, b"seed-a")
    b = bloom.BloomParams(1000, 5, b"seed-b")
    assert bloom.indices(a, b"item") != bloom.indices(b, b"item")


@settings(max_examples=200)
@given(st.binary(max_size=64), st.binary(min_size=1, max_size=32),
       st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=12))
def test_indices_bounds_and_cardinality(item, seed, ell, k):
    if ell < k:
        return
    params = bloom.BloomParams(ell, k, seed)
    out = bloom.indices(params, item)
    assert 1 <= len(out) <= k
    assert all(0 <= i < ell for i in out)


def test_params_validation():
    with pytest.raises(ValueError):
        bloom.BloomParams(10, 0, b"s")
    with pytest.raises(ValueError):
        bloom.BloomParams(3, 4, b"s")


def test_per_bit_set_probability_matches_closed_form():
    ell, k = 50, 6
    params = bloom.BloomParams(ell, k, b"prob-seed")
    rng = random.Random(99)
    trials = 100_000
    hits = 0
    for _ in range(trials):
        if 0 in bloom.indices(params, rng.randbytes(12)):
            hits += 1
    p = 1 - (1 - 1 / ell) ** k
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * sigma


def test_membership_completeness():
    params = bloom.BloomParams(200, 4, b"complete")
    items = [f"item-{i}".encode() for i in range(30)]
    union = bloom.index_union(params, items)
    for item in items:
        assert bloom.indices(params, item) <= union


def test_length_for_reference_values():
    assert bloom.length_for(1000, 20) == 28854
    assert bloom.length_for(1, 1) == 2
    assert bloom.length_for(128, 20) == 3694
    with pytest.raises(ValueError):
        bloom.length_for(0, 20)


def test_fpr_estimate_reference_values():
    assert bloom.fpr_estimate(100, 7, 10) == pytest.approx(0.00819, abs=5e-5)
    assert bloom.fpr_estimate(250, 9, 0) == 0.0
    for n in (100, 1000, 5000):
        est = bloom.fpr_estimate(bloom.length_for(n, 20), 20, n)
        assert abs(est - 2 ** -20) / 2 ** -20 < 0.10


def test_capacity_reference_values():
    assert bloom.capacity(28854, 20) == 1000
    assert bloom.capacity(2, 1) == 1
    assert bloom.capacity(20, 20) == 0


@given(st.integers(min_value=1, max_value=4000), st.integers(min_value=1, max_value=30))
def test_capacity_inverts_length_for(n, k):
    assert bloom.capacity(bloom.length_for(n, k), k) >= n


def test_measured_fpr_within_factor_two_of_estimate():
    k = 10
    n = 50
    ell = bloom.length_for(n, k)
    params = bloom.BloomParams(ell, k, b"fpr-measure")
    rng = random.Random(4242)
    union = bloom.index_union(
        params, [rng.randbytes(10) for _ in range(n)])
    probes = 40_000
    false_positives = sum(
        1 for _ in range(probes)
        if bloom.indices(params, rng.randbytes(11)) <= union
    )
    est = bloom.fpr_estimate(ell, k, n)
    assert false_positives / probes <= 2 * est
    assert false_positives / probes >= est / 2
