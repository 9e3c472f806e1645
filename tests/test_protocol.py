import hashlib
import os
import random
import sys
import threading
import time
from itertools import combinations

import pytest

from reuseguard import bloom, elgamal, groups, protocol, similarity
from reuseguard.directory import Directory
from reuseguard.errors import InvalidCiphertextError
from reuseguard.groups import P160, P192, P224, P256, enumerable_group
from reuseguard.protocol import (
    QueryMessage,
    blinded_complement_product,
    build_decoy_query,
    build_query,
    decode_result,
    generic_bound,
    generic_bound_adversary,
    membership_oracle,
    respond,
    validate_query,
)

ACCOUNT = "probe@example.com"
CHEAP = similarity.CHEAP_HASH_PARAMS


def make_set(passwords, account=ACCOUNT, d=0, capacity=None):
    digests = tuple(similarity.bloom_item(p, account, CHEAP) for p in passwords)
    return similarity.SimilarSet(account, digests, d, capacity or max(len(digests), 1))


def test_build_query_defaults_to_twenty_hashes(rng, tg101):
    query, session = build_query(ACCOUNT, "pw", 50, group=tg101,
                                 hash_params=CHEAP, rng=rng)
    assert query.bloom.num_hashes_k == 20
    assert query.bloom.length_ell == bloom.length_for(50, 20)
    assert len(query.ciphertexts) == query.bloom.length_ell
    assert session.bloom == query.bloom


def test_query_slots_encrypt_exactly_the_index_set(rng, tg101):
    query, session = build_query(ACCOUNT, "pw", 4, group=tg101, k=3,
                                 hash_params=CHEAP, rng=rng)
    sk = session.keypair.sk
    non_identity = {
        j for j, c in enumerate(query.ciphertexts)
        if elgamal.decrypt(sk, c) != tg101.identity
    }
    assert non_identity == set(session.requester_index_set)


def test_fresh_key_and_ciphertexts_each_run(rng, tg101):
    q1, _ = build_query(ACCOUNT, "pw", 4, group=tg101, hash_params=CHEAP, rng=rng)
    q2, _ = build_query(ACCOUNT, "pw", 4, group=tg101, hash_params=CHEAP, rng=rng)
    assert q1.pk != q2.pk
    assert q1.ciphertexts != q2.ciphertexts
    assert q1.bloom.hash_family_seed != q2.bloom.hash_family_seed


def _per_slot_reference_query(account, password, n_target, group, rng):
    """The query as one ``elgamal.encrypt`` per slot, in build_query's draw
    order: seed, key, every slot's x, then r for each index of sorted(J_R)."""
    k = bloom.DEFAULT_NUM_HASHES
    params = bloom.BloomParams(bloom.length_for(n_target, k), k,
                               rng.randbytes(bloom.SEED_BYTES))
    keypair = elgamal.gen(group, rng)
    xs = iter([rng.randrange(group.order) for _ in range(params.length_ell)])
    j_r = bloom.indices(params, similarity.bloom_item(password, account, CHEAP))
    plaintexts = {j: group.random_element(rng) for j in sorted(j_r)}

    class DrawnX:
        def randrange(self, _order):
            return next(xs)

    slots = tuple(elgamal.encrypt(keypair.pk, plaintexts.get(j, group.identity), DrawnX())
                  for j in range(params.length_ell))
    return QueryMessage(account, keypair.pk, params, slots)


@pytest.mark.parametrize("group", [P192, P256, enumerable_group(101)],
                         ids=lambda g: g.name)
def test_build_query_equals_per_slot_encryption(group):
    # n = 4 gives 232 scalars (4-bit comb), n = 16 gives 924 (8-bit comb).
    for seed, n_target in ((1, 4), (2, 16)):
        query, _ = build_query(ACCOUNT, "hunter2", n_target, group=group,
                               hash_params=CHEAP, rng=random.Random(seed))
        assert query == _per_slot_reference_query(
            ACCOUNT, "hunter2", n_target, group, random.Random(seed))


# sha256 of (seed, key, every slot) for a seeded n = 16 query and audit
# query.  Affine points are unique, so no change to how the comb computes
# them may move a byte.
PINNED_QUERY_DIGESTS = {
    "P160": ("47eb363b288bd4224c92c83f4c6f759caccb3026afcdacbb24c9749e5bd45458",
             "771836cde5d06386e0a821c3372f41ca78b7a9755a2e72c7afb85a0b1e682ad7"),
    "P192": ("6d71df71ec9ef3b789132acbd3b0bdf7327717f204117500234a4c03233f8534",
             "d95c395e23914125ecdfa4c488393205cb6e4b1c25339dcd90c2e275fb015a2d"),
    "P224": ("f04e3cbacfc9a1a2c50895aa8fa9b8ed208db77b8789fc09cdcd3cfa1d53dca7",
             "c6bd34e12e33284c78690dea71411a51dd98a14d4a23380429cad2087b521aef"),
    "P256": ("f8ebf462a6a7221928fab5ed680701aa7d80625db915d857c0aa45a552f48e1f",
             "e21135a07521e33eaec88c0ce078ed6f1cc4fe78560e48b4eb036d43517fe7ce"),
    "TEST(101)": ("385ea183cd1eef5610bf04943c1eaf78e675ee39cb585d47e9fc1db57ba4c375",
                  "ca73657e32e75b41a07f8e4b4a8949e7e72a2f432a6e27ff3c77f799e06aafaa"),
}


def _query_digest(query):
    group = query.pk.group
    parts = [query.bloom.hash_family_seed, group.compress(query.pk.point)]
    parts += [group.compress(e) for c in query.ciphertexts for e in c]
    return hashlib.sha256(b"".join(parts)).hexdigest()


@pytest.mark.parametrize("group", [P160, P192, P224, P256, enumerable_group(101)],
                         ids=lambda g: g.name)
def test_seeded_queries_keep_their_encodings(group):
    # n = 16 runs the 8-bit comb over 924 scalars and the 4-bit comb over
    # the k = 20 bodies; the audit query's 32 scalars take the 4-bit comb.
    query, _ = build_query("pin@example.com", "hunter2", 16, group=group,
                           hash_params=CHEAP, rng=random.Random(12))
    audit, _ = Directory(audit_group=group).build_audit_query(random.Random(12))
    assert (_query_digest(query), _query_digest(audit)) == PINNED_QUERY_DIGESTS[group.name]


def test_query_hashes_while_its_slots_encrypt(monkeypatch, tg101):
    # The hash waits for the slot encryption to start; run one after the
    # other, the wait times out.
    encrypting = threading.Event()
    encrypt_many = type(tg101).exp_generator_many
    hash_item = similarity.bloom_item

    def signalling_encrypt(self, scalars):
        encrypting.set()
        return encrypt_many(self, scalars)

    def waiting_hash(*args):
        assert encrypting.wait(timeout=10), "hash ran before the slots encrypted"
        return hash_item(*args)

    monkeypatch.setattr(type(tg101), "exp_generator_many", signalling_encrypt)
    monkeypatch.setattr(similarity, "bloom_item", waiting_hash)
    query, session = build_query(ACCOUNT, "pw", 4, group=tg101,
                                 hash_params=CHEAP, rng=random.Random(3))
    assert len(session.requester_index_set) == query.bloom.num_hashes_k


def test_hash_failure_reaches_the_caller_and_leaves_no_thread(monkeypatch, tg101):
    def failing_hash(*args):
        raise ValueError("memory limit exceeded")

    before = set(threading.enumerate())
    monkeypatch.setattr(similarity, "bloom_item", failing_hash)
    with pytest.raises(ValueError, match="memory limit exceeded"):
        build_query(ACCOUNT, "pw", 4, group=tg101, hash_params=CHEAP,
                    rng=random.Random(3))
    assert set(threading.enumerate()) <= before


def test_only_the_index_set_slots_decrypt_to_a_non_identity_on_p192():
    query, session = build_query(ACCOUNT, "hunter2", 16, group=P192,
                                 hash_params=CHEAP, rng=random.Random(6))
    sk = session.keypair.sk
    non_identity = {j for j, c in enumerate(query.ciphertexts)
                    if elgamal.decrypt(sk, c) != P192.identity}
    assert len(query.ciphertexts) == 462
    assert non_identity == set(session.requester_index_set)
    assert len(non_identity) == 20


def test_warm_build_query_builds_no_fixed_base_table(monkeypatch):
    build_query(ACCOUNT, "pw", 16, group=P192, hash_params=CHEAP)

    def no_table(*args, **kwargs):
        raise AssertionError("build_query built a fixed-base table")

    monkeypatch.setattr(groups, "FixedBaseTable", no_table)
    query, session = build_query(ACCOUNT, "pw", 16, group=P192,
                                 hash_params=CHEAP)
    assert len(query.ciphertexts) == session.bloom.length_ell


def test_a_decoy_query_looks_like_a_real_one(monkeypatch):
    from reuseguard import wire

    real, _ = build_query(ACCOUNT, "pw", 16, group=P192, hash_params=CHEAP,
                          rng=random.Random(8))

    def no_hash(*args):
        raise AssertionError("a decoy ran the slow hash")

    monkeypatch.setattr(similarity, "bloom_item", no_hash)
    rng = random.Random(9)
    decoys = [build_decoy_query(ACCOUNT, 16, group=P192, rng=rng) for _ in range(3)]
    for query, session in decoys:
        assert query.bloom.length_ell == real.bloom.length_ell
        assert query.bloom.num_hashes_k == real.bloom.num_hashes_k
        assert len(query.bloom.hash_family_seed) == len(real.bloom.hash_family_seed)
        assert len(wire.encode_query(query)) == len(wire.encode_query(real))
        sk = session.keypair.sk
        non_identity = {j for j, c in enumerate(query.ciphertexts)
                        if elgamal.decrypt(sk, c) != P192.identity}
        assert non_identity == set(session.requester_index_set)
        assert 1 <= len(non_identity) <= query.bloom.num_hashes_k
    queries = [real] + [query for query, _ in decoys]
    assert len({query.pk.point for query in queries}) == 4
    assert len({query.bloom.hash_family_seed for query in queries}) == 4


@pytest.fixture
def no_spare():
    protocol._forget_spare()
    yield
    protocol._forget_spare()


def _plant_spare(group, n_target, k=bloom.DEFAULT_NUM_HASHES):
    spare = protocol._spare = protocol._Spare(group, bloom.length_for(n_target, k), k)
    return spare


def test_a_spare_serves_one_decoy_only(no_spare):
    spare = _plant_spare(P192, 16)
    key = spare.offline.keypair.pk
    seed = spare.offline.params.hash_family_seed
    first, first_session = build_decoy_query(ACCOUNT, 16, group=P192, rng=random.Random(1))
    assert first.pk == key and first.bloom.hash_family_seed == seed
    assert spare.taken and spare.take() is None and not spare.step()
    second, _ = build_decoy_query(ACCOUNT, 16, group=P192, rng=random.Random(1))
    assert second.pk != first.pk
    assert second.bloom.hash_family_seed != first.bloom.hash_family_seed
    sk = first_session.keypair.sk
    assert {j for j, c in enumerate(first.ciphertexts)
            if elgamal.decrypt(sk, c) != P192.identity} == set(first_session.requester_index_set)


def test_a_decoy_of_another_shape_leaves_the_spare(no_spare):
    spare = _plant_spare(P192, 16)
    for group, n_target, k in ((P256, 16, bloom.DEFAULT_NUM_HASHES), (P192, 64, bloom.DEFAULT_NUM_HASHES),
                               (P192, 16, bloom.DEFAULT_NUM_HASHES + 1)):
        query, _ = build_decoy_query(ACCOUNT, n_target, group=group, k=k)
        assert query.pk != spare.offline.keypair.pk
    assert protocol._spare is spare and not spare.taken and spare.step()


def test_concurrent_decoys_never_share_a_spare(no_spare):
    spare = _plant_spare(P192, 4)
    assert spare.step()  # one window run
    key = spare.offline.keypair.pk
    start = threading.Barrier(4)
    queries = []

    def decoy():
        start.wait(timeout=30)
        queries.append(build_decoy_query(ACCOUNT, 4, group=P192)[0])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=decoy) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(queries) == 4
    assert len({q.pk.point for q in queries}) == 4
    assert len({q.bloom.hash_family_seed for q in queries}) == 4
    assert sum(q.pk == key for q in queries) == 1
    assert spare.taken


def test_a_forked_child_holds_no_spare(no_spare):
    _plant_spare(P192, 2)
    protocol._forget_spare()  # the handler every fork runs in the child
    assert protocol._spare is None
    if not hasattr(os, "fork"):
        return
    _plant_spare(P192, 2)
    pid = os.fork()
    if pid == 0:
        os._exit(0 if protocol._spare is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert protocol._spare is not None


def test_filling_the_spare_never_touches_the_callers_rng(monkeypatch, no_spare):
    fast_rng = random.Random(12)
    fast, _ = build_query("pin@example.com", "hunter2", 16, group=P192,
                          hash_params=CHEAP, rng=fast_rng)
    assert protocol._spare is None
    hash_item = similarity.bloom_item

    def slow_hash(*args):
        time.sleep(0.3)
        return hash_item(*args)

    monkeypatch.setattr(similarity, "bloom_item", slow_hash)
    slow_rng = random.Random(12)
    slow, _ = build_query("pin@example.com", "hunter2", 16, group=P192,
                          hash_params=CHEAP, rng=slow_rng, fill_spare=True)
    spare = protocol._spare
    assert spare.shape == (P192, slow.bloom.length_ell, slow.bloom.num_hashes_k)
    assert spare is not None and not spare.taken
    assert _query_digest(slow) == _query_digest(fast) == PINNED_QUERY_DIGESTS["P192"][0]
    assert slow_rng.getstate() == fast_rng.getstate()
    assert slow.pk != spare.offline.keypair.pk


def test_member_always_detected(rng, tg101):
    similar = make_set(["hunter2", "Hunter2", "hunter3"])
    for _ in range(20):
        query, session = build_query(ACCOUNT, "hunter2", 4, group=tg101, k=2,
                                     hash_params=CHEAP, rng=rng)
        response = respond(query, similar, rng)
        assert decode_result(session, response) is True


def test_nonmember_rejected_on_curve(rng):
    similar = make_set(["alpha-pass", "beta-pass"])
    query, session = build_query(ACCOUNT, "unrelated-pw", 2, group=P192,
                                 hash_params=CHEAP, rng=rng)
    response = respond(query, similar, rng)
    assert decode_result(session, response) is False


def test_empty_similar_set_means_not_similar(rng):
    similar = make_set([])
    query, session = build_query(ACCOUNT, "anything", 2, group=P192,
                                 hash_params=CHEAP, rng=rng)
    assert decode_result(session, respond(query, similar, rng)) is False


def test_respond_aborts_on_invalid_ciphertext(rng):
    similar = make_set(["x"])
    query, _ = build_query(ACCOUNT, "pw", 2, group=P192, hash_params=CHEAP,
                           rng=rng)
    x, y = query.ciphertexts[0].body
    tampered = elgamal.Ciphertext(query.ciphertexts[0].ephemeral,
                                  (x, (y + 1) % P192.p))
    bad = QueryMessage(query.account_id, query.pk, query.bloom,
                       (tampered,) + query.ciphertexts[1:])
    with pytest.raises(InvalidCiphertextError):
        respond(bad, similar, rng)


def test_respond_aborts_on_count_mismatch(rng, tg101):
    query, _ = build_query(ACCOUNT, "pw", 4, group=tg101, hash_params=CHEAP,
                           rng=rng)
    bad = QueryMessage(query.account_id, query.pk, query.bloom,
                       query.ciphertexts[:-1])
    with pytest.raises(InvalidCiphertextError):
        validate_query(bad)


def test_respond_aborts_on_bad_public_key(rng):
    query, _ = build_query(ACCOUNT, "pw", 2, group=P192, hash_params=CHEAP,
                           rng=rng)
    x, y = query.pk.point
    bad_pk = elgamal.PublicKey(P192, (x, (y + 1) % P192.p))
    bad = QueryMessage(query.account_id, bad_pk, query.bloom, query.ciphertexts)
    with pytest.raises(InvalidCiphertextError):
        validate_query(bad)


def test_decode_rejects_off_curve_response(rng):
    query, session = build_query(ACCOUNT, "pw", 2, group=P192,
                                 hash_params=CHEAP, rng=rng)
    bad = protocol.ResponseMessage(elgamal.Ciphertext((1, 1), None))
    with pytest.raises(InvalidCiphertextError):
        decode_result(session, bad)


def test_covering_index_set_yields_fresh_identity_encryption(rng, tg101):
    query, session = build_query(ACCOUNT, "pw", 4, group=tg101,
                                 hash_params=CHEAP, rng=rng)
    r1 = blinded_complement_product(query, range(query.bloom.length_ell), rng)
    r2 = blinded_complement_product(query, range(query.bloom.length_ell), rng)
    assert decode_result(session, r1) is True
    assert decode_result(session, r2) is True
    assert r1 != r2


@pytest.mark.parametrize("covered", ["none", "half", "all"])
def test_complement_product_adds_every_slot_whatever_j_s(monkeypatch, covered):
    query, _ = build_query(ACCOUNT, "pw", 2, group=P192, hash_params=CHEAP,
                           rng=random.Random(8))
    ell = query.bloom.length_ell
    j_s = range({"none": 0, "half": ell // 2, "all": ell}[covered])
    outside = [c for j, c in enumerate(query.ciphertexts) if j not in j_s]
    expected = elgamal.Ciphertext(P192.product([c.ephemeral for c in outside]),
                                  P192.product([c.body for c in outside]))
    additions = 0
    add = groups._jac_add_affine

    def counting_add(*args):
        nonlocal additions
        additions += 1
        return add(*args)

    monkeypatch.setattr(groups, "_jac_add_affine", counting_add)
    monkeypatch.setattr(elgamal, "hexp", lambda pk, c, z, rng=None: c)  # the bare product
    response = blinded_complement_product(query, j_s, random.Random(9))
    assert additions == 2 * ell
    assert response.result_ciphertext == expected


def test_responses_to_same_query_are_distinct(rng):
    similar = make_set(["a", "b"])
    query, _ = build_query(ACCOUNT, "pw", 2, group=P192, hash_params=CHEAP,
                           rng=rng)
    assert respond(query, similar, rng) != respond(query, similar, rng)


def test_truncation_respects_capacity_and_priority_order(rng, tg101):
    # 60 entries against a filter sized for 4: only the first
    # capacity(ell, k) stored entries may contribute indices.
    passwords = [f"pw-{i}" for i in range(60)]
    similar = make_set(passwords, capacity=60)
    query, session = build_query(ACCOUNT, passwords[59], 4, group=tg101, k=20,
                                 hash_params=CHEAP, rng=rng)
    cap = bloom.capacity(query.bloom.length_ell, 20)
    assert cap < 60
    response = respond(query, similar, rng)
    kept = bloom.index_union(
        query.bloom,
        [similarity.bloom_item(p, ACCOUNT, CHEAP) for p in passwords[:cap]])
    expected = session.requester_index_set <= kept
    assert decode_result(session, response) is expected


def test_exhaustive_small_instance_equivalence(rng, tg101):
    # All responder index subsets of a small filter: the decoded verdict
    # equals the subset test, except for blinding collisions, which can
    # only produce spurious "similar" verdicts.
    query, session = build_query(ACCOUNT, "pw", 4, group=tg101, k=2,
                                 hash_params=CHEAP, rng=rng)
    ell = query.bloom.length_ell
    j_r = set(session.requester_index_set)
    universe = list(range(ell))
    false_negatives = 0
    false_positives = 0
    total_nonmember = 0
    for size in range(ell + 1):
        for subset in combinations(universe, size):
            covered = j_r <= set(subset)
            got = decode_result(session,
                                blinded_complement_product(query, subset, rng))
            if covered:
                false_negatives += got is False
            else:
                total_nonmember += 1
                false_positives += got is True
    assert false_negatives == 0
    assert false_positives / total_nonmember < 3 / 101


def test_membership_oracle_basic():
    params = bloom.BloomParams(400, 5, b"oracle-seed")
    members = ["pw-a", "pw-b", "pw-c"]
    assert membership_oracle("pw-a", members, params, ACCOUNT, CHEAP)
    assert not membership_oracle("missing", members, params, ACCOUNT, CHEAP)
    assert not membership_oracle("pw", [], params, ACCOUNT, CHEAP)


def test_membership_oracle_fpr_within_factor_two():
    # The oracle is, by definition, a subset test on the members' digest
    # union; measure its false-positive rate through that reduction (the
    # union computed once) and check the oracle agrees with the reduction
    # on a sample of probes.
    rng = random.Random(1234)
    k = 10
    n = 200
    params = bloom.BloomParams(bloom.length_for(n, k), k, b"oracle-fpr")
    members = [f"member-{i}" for i in range(n)]
    union = bloom.index_union(
        params, [similarity.bloom_item(m, ACCOUNT, CHEAP) for m in members])

    def oracle_reduction(password):
        item = similarity.bloom_item(password, ACCOUNT, CHEAP)
        return bloom.indices(params, item) <= union

    probes = [f"probe-{rng.random()}-{i}" for i in range(20_000)]
    hits = sum(1 for p in probes if oracle_reduction(p))
    est = bloom.fpr_estimate(params.length_ell, k, n)
    assert est / 2 <= hits / len(probes) <= 2 * est
    for p in probes[:100] + members[:20]:
        assert membership_oracle(p, members, params, ACCOUNT, CHEAP) == \
            oracle_reduction(p)


def test_adversary_success_rate_matches_bound(tg101):
    rng = random.Random(99)
    rate = generic_bound_adversary(6, 2, 10_000, group=tg101, rng=rng)
    assert abs(rate - generic_bound(6, 2)) < 0.02
    rate41 = generic_bound_adversary(4, 1, 10_000, group=tg101, rng=rng)
    assert abs(rate41 - 0.5) < 0.04


def test_adversary_trivial_when_subset_is_forced(tg101):
    rng = random.Random(5)
    assert generic_bound_adversary(3, 3, 300, group=tg101, rng=rng) == 1.0


def test_adversary_rejects_bad_parameters(tg101):
    with pytest.raises(ValueError):
        generic_bound_adversary(2, 3, 10, group=tg101)


def test_no_implemented_passive_strategy_beats_bound(tg101):
    # Blind guessing without the oracle succeeds at 1/C(ell, k), half the
    # probing adversary's rate and well under the proven ceiling.
    rng = random.Random(17)
    ell, k, trials = 6, 2, 20_000
    population = list(range(ell))
    blind_hits = sum(
        frozenset(rng.sample(population, k)) == frozenset(rng.sample(population, k))
        for _ in range(trials)
    )
    assert blind_hits / trials < generic_bound(ell, k)


def test_session_secret_never_in_query(rng):
    query, session = build_query(ACCOUNT, "pw", 2, group=P192,
                                 hash_params=CHEAP, rng=rng)
    assert not hasattr(query, "keypair")
    fields = set(vars(query))
    assert fields == {"account_id", "pk", "bloom", "ciphertexts"}
    assert session.keypair.sk.scalar not in (query.pk.point or ())


def test_respond_builds_no_fixed_base_table(monkeypatch):
    from reuseguard import wire

    query, session = build_query(ACCOUNT, "hunter2", 2, group=P192,
                                 hash_params=CHEAP, rng=random.Random(4))
    fresh_key = wire.decode_query(wire.encode_query(query))

    def no_table(*args, **kwargs):
        raise AssertionError("respond built a fixed-base table")

    monkeypatch.setattr(groups, "FixedBaseTable", no_table)
    response = respond(fresh_key, make_set(["hunter2"]), random.Random(5))
    assert decode_result(session, response) is True
