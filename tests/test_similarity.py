import hashlib
import os
import struct
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from reuseguard import similarity
from reuseguard.errors import StateError
from reuseguard.similarity import (
    CHEAP_HASH_PARAMS,
    DEFAULT_HASH_PARAMS,
    SimilarSet,
    bloom_item,
    build_similar_set,
    generate_honey,
    generate_similar,
    load_similar_set,
    save_similar_set,
)


def test_identity_always_first():
    assert generate_similar("password", 1) == ["password"]
    assert generate_similar("abc123", 5)[0] == "abc123"


def test_cascade_produces_expected_variants():
    out = generate_similar("monkey1", 4)
    assert "monkey2" in out
    assert "Monkey1" in out


def test_cascade_is_deterministic_and_deduplicated():
    a = generate_similar("Summer2023!", 40)
    b = generate_similar("Summer2023!", 40)
    assert a == b
    assert len(a) == len(set(a))
    assert len(a) <= 40


def test_budget_respected():
    for budget in (1, 2, 7, 100):
        out = generate_similar("drowssap9", budget)
        assert len(out) <= budget


def test_cascade_covers_common_reuse_transforms():
    out = generate_similar("hunter2", 30)
    assert "Hunter2" in out     # capitalization
    assert "hunter3" in out     # trailing digit step
    assert "hunter2!" in out    # suffix append
    assert "hunter21" in out or "hunter2123" in out


def test_honey_empty_for_zero():
    assert generate_honey("whatever", 0, 1) == []


def test_honey_distinct_and_never_real():
    pw = "monkey1"
    honeys = generate_honey(pw, 4, 7)
    assert len(honeys) == 4
    assert len(set(honeys)) == 4
    assert pw not in honeys


def test_honey_deterministic_under_seed():
    assert generate_honey("pass123", 5, 42) == generate_honey("pass123", 5, 42)
    assert generate_honey("pass123", 5, 42) != generate_honey("pass123", 5, 43)


def test_honey_matches_composition_policy():
    pw = "Str0ng-pass7"
    for seed in range(1000):
        for h in generate_honey(pw, 1, seed):
            assert len(h) >= len(pw) - 2


def test_honey_preserves_character_classes():
    honeys = generate_honey("Monkey42!", 20, 3)
    for h in honeys:
        assert len(h) == len("Monkey42!")
        assert h[0].isupper()
        assert h[-3:-1].isdigit()
        assert not h[-1].isalnum()


def test_build_set_per_seed_budget():
    sset = build_similar_set("a@b.com", "monkey1", 4, 25, CHEAP_HASH_PARAMS,
                             rng_seed=1)
    assert len(sset.entries) <= 25  # 5 variants of each of the 5 seeds
    assert sset.d == 4
    assert len(sset.entries) > 20  # digest collisions across seeds are rare


def test_build_set_single_seed():
    sset = build_similar_set("a@b.com", "solo-pass", 0, 1, CHEAP_HASH_PARAMS)
    assert sset.entries == (bloom_item("solo-pass", "a@b.com", CHEAP_HASH_PARAMS),)


def test_build_set_rejects_tiny_capacity():
    with pytest.raises(ValueError):
        build_similar_set("a@b.com", "pw", 4, 4, CHEAP_HASH_PARAMS)


def test_membership_by_digest():
    account = "a@b.com"
    sset = build_similar_set(account, "monkey1", 0, 8, CHEAP_HASH_PARAMS)
    assert bloom_item("Monkey1", account, CHEAP_HASH_PARAMS) in sset.entries
    assert bloom_item("totally-unrelated", account, CHEAP_HASH_PARAMS) not in sset.entries


def test_no_duplicate_digests():
    sset = build_similar_set("a@b.com", "aaa111", 4, 40, CHEAP_HASH_PARAMS,
                             rng_seed=2)
    assert len(sset.entries) == len(set(sset.entries))


def test_interleaving_keeps_every_seed_in_prefix():
    # Truncating to the first d+1 entries must still cover all seeds: the
    # first block holds each seed's own password.
    account = "a@b.com"
    pw = "hunter2"
    d = 4
    sset = build_similar_set(account, pw, d, 25, CHEAP_HASH_PARAMS, rng_seed=9)
    prefix = set(sset.entries[:d + 1])
    assert bloom_item(pw, account, CHEAP_HASH_PARAMS) in prefix
    for honey in generate_honey(pw, d, 9):
        assert bloom_item(honey, account, CHEAP_HASH_PARAMS) in prefix


def test_honey_variant_lengths_indistinguishable():
    real_lengths = []
    honey_lengths = []
    for seed in range(1000):
        pw = ["monkey1", "Passw0rd!", "summer99", "qwerty12"][seed % 4]
        real_lengths.extend(len(v) for v in generate_similar(pw, 5))
        honey = generate_honey(pw, 1, seed)[0]
        honey_lengths.extend(len(v) for v in generate_similar(honey, 5))
    result = stats.ks_2samp(real_lengths, honey_lengths)
    assert result.pvalue > 0.01


def test_digest_is_account_scoped():
    a = bloom_item("pw", "a@b.com", CHEAP_HASH_PARAMS)
    b = bloom_item("pw", "c@d.com", CHEAP_HASH_PARAMS)
    assert a != b
    assert len(a) == len(b) == similarity.DIGEST_BYTES
    assert bloom_item("pw", "a@b.com", CHEAP_HASH_PARAMS) == a


def test_default_hash_cost_is_slow():
    start = time.perf_counter()
    bloom_item("timing-probe", "a@b.com", DEFAULT_HASH_PARAMS)
    elapsed = time.perf_counter() - start
    assert elapsed >= 0.05


def test_store_roundtrip(tmp_path):
    sset = build_similar_set("a@b.com", "monkey1", 2, 12, CHEAP_HASH_PARAMS,
                             rng_seed=5)
    path = tmp_path / "account.simset"
    save_similar_set(sset, str(path))
    loaded = load_similar_set(str(path))
    assert loaded == sset


def test_failed_replace_keeps_the_old_file_and_leaves_no_tmp(tmp_path, monkeypatch):
    path = tmp_path / "account.simset"
    path.write_bytes(b"old")

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        similarity.replace_file(str(path), b"new")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["account.simset"]


@pytest.mark.parametrize("log2_n", [0, 64])
def test_a_cost_scrypt_cannot_run_is_a_value_error(log2_n):
    with pytest.raises(ValueError):
        bloom_item("pw", "a@b.com", similarity.SlowHashParams(log2_n=log2_n))


def test_store_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.simset"
    path.write_bytes(b"not a store at all")
    with pytest.raises(StateError):
        load_similar_set(str(path))


def _store_bytes(account=b"a@b.com", count=2, digests=None):
    """A store file's bytes, built by hand so the header can lie."""
    if digests is None:
        digests = bytes(range(32)) * count
    return (b"RGSS" + struct.pack(">BH", 1, len(account)) + account
            + struct.pack(">HII", 0, 8, count) + digests)


def test_hand_built_store_matches_save_similar_set(tmp_path):
    sset = SimilarSet("a@b.com", (bytes(range(32)),) * 2, 0, 8)
    path = tmp_path / "account.simset"
    save_similar_set(sset, str(path))
    assert path.read_bytes() == _store_bytes()


@pytest.mark.parametrize("data", [
    b"RGSS\x01",  # too short for the header
    _store_bytes(account=b"\xff\xfe@b.com"),  # account is not UTF-8
    _store_bytes() + b"\x00",  # trailing byte
    _store_bytes()[:-1],  # truncated digest
    _store_bytes(count=2 ** 32 - 1, digests=b""),  # count far beyond the file
], ids=["short-header", "non-utf8-account", "trailing-byte", "truncated", "huge-count"])
def test_malformed_store_raises_state_error(tmp_path, data):
    path = tmp_path / "bad.simset"
    path.write_bytes(data)
    with pytest.raises(StateError):
        load_similar_set(str(path))


def _mutations(valid):
    """Truncations, extensions and byte overwrites of a valid store."""
    return st.one_of(
        st.integers(0, len(valid) - 1).map(lambda cut: valid[:cut]),
        st.binary(min_size=1, max_size=40).map(lambda tail: valid + tail),
        st.tuples(st.integers(0, len(valid) - 1), st.binary(min_size=1, max_size=4)).map(
            lambda m: valid[:m[0]] + m[1] + valid[m[0] + len(m[1]):]),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), _mutations(_store_bytes())))
def test_any_store_bytes_load_or_raise_state_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "any.simset")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            sset = load_similar_set(path)
        except StateError:
            return
        # What loads is exactly one store: saving it gives the same bytes.
        save_similar_set(sset, path)
        with open(path, "rb") as fh:
            assert fh.read() == data


def test_similar_set_is_immutable():
    sset = SimilarSet("a@b.com", (b"\x00" * 32,), 0, 1)
    with pytest.raises(AttributeError):
        sset.entries = ()


def _serial_reference(account, password, d, capacity, params, rng_seed=0):
    """The similar set hashed one variant at a time: the same round-robin
    interleaving of the d + 1 seeds' variants, deduped in first-seen order."""
    budget = capacity // (d + 1)
    seeds = [password] + generate_honey(password, d, rng_seed)
    lists = [generate_similar(seed, budget) for seed in seeds]
    interleaved = [v[rank] for rank in range(budget) for v in lists if rank < len(v)]
    entries = []
    for variant in interleaved:
        digest = similarity.bloom_item(variant, account, params)
        if digest not in entries:
            entries.append(digest)
    return interleaved, SimilarSet(account, tuple(entries), d, capacity)


@pytest.mark.parametrize("password, d, capacity, params", [
    ("monkey1", 0, 1, CHEAP_HASH_PARAMS),
    ("monkey1", 0, 16, CHEAP_HASH_PARAMS),
    ("Summer2023!", 1, 16, CHEAP_HASH_PARAMS),
    ("hunter2", 4, 25, CHEAP_HASH_PARAMS),
    ("aaa111", 3, 41, CHEAP_HASH_PARAMS),
    ("qwerty12", 1, 6, similarity.SlowHashParams(log2_n=11)),
])
def test_parallel_build_matches_serial_reference(tmp_path, password, d, capacity, params):
    _, expected = _serial_reference("a@b.com", password, d, capacity, params, rng_seed=3)
    sset = build_similar_set("a@b.com", password, d, capacity, params, rng_seed=3)
    assert sset.entries == expected.entries
    save_similar_set(sset, str(tmp_path / "parallel.simset"))
    save_similar_set(expected, str(tmp_path / "serial.simset"))
    assert (tmp_path / "parallel.simset").read_bytes() == \
        (tmp_path / "serial.simset").read_bytes()


def test_a_shared_digest_keeps_its_earlier_position(monkeypatch):
    interleaved, _ = _serial_reference("a@b.com", "hunter2", 1, 12, CHEAP_HASH_PARAMS)
    first, later = interleaved[1], interleaved[4]

    def colliding(password, account_id, params):
        return hashlib.sha256((first if password == later else password).encode()).digest()

    monkeypatch.setattr(similarity, "bloom_item", colliding)
    sset = build_similar_set("a@b.com", "hunter2", 1, 12, CHEAP_HASH_PARAMS)
    _, expected = _serial_reference("a@b.com", "hunter2", 1, 12, CHEAP_HASH_PARAMS)
    assert sset.entries == expected.entries
    assert len(sset.entries) == len(interleaved) - 1
    assert sset.entries[1] == colliding(first, "a@b.com", CHEAP_HASH_PARAMS)


@pytest.mark.parametrize("log2_n", [0, 64])
def test_unusable_cost_raises_and_leaves_no_hash_running(log2_n):
    before = threading.active_count()
    with pytest.raises(ValueError):
        build_similar_set("a@b.com", "monkey1", 1, 16,
                          similarity.SlowHashParams(log2_n=log2_n))
    assert threading.active_count() == before


@pytest.mark.skipif(similarity._usable_cpus() < 2, reason="needs two usable CPUs")
def test_a_similar_set_hashes_its_variants_at_once(monkeypatch):
    # Two variants can only both pass the barrier if they hash together.
    barrier = threading.Barrier(2, timeout=5)

    def rendezvous(password, account_id, params):
        barrier.wait()
        return hashlib.sha256(password.encode()).digest()

    monkeypatch.setattr(similarity, "bloom_item", rendezvous)
    sset = build_similar_set("a@b.com", "monkey1", 0, 2, CHEAP_HASH_PARAMS)
    assert len(sset.entries) == 2
