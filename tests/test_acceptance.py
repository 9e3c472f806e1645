"""Acceptance suite: one test per shipping criterion, with pinned tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) so the suite doubles as a checklist.  Statistical checks
use fixed seeds; tolerance bounds come from the criteria themselves.
"""

import random
import statistics
import time

import pytest
from scipy import stats

from reuseguard import bench, bloom, elgamal, planner, protocol, similarity, wire
from reuseguard.directory import AuditVerdict, Directory, ResponderEndpoint
from reuseguard.errors import ConsentRequiredError, InfeasibleError
from reuseguard.groups import P160, P192, P224, P256, enumerable_group
from reuseguard.netnodes import (
    TRUSTED_PROFILE,
    UNTRUSTED_PROFILE,
    DecoyPolicy,
    DirectoryClient,
    ResponderStore,
    make_inprocess_responder_transport,
    requester_set_password,
    serve_directory,
)

CHEAP = similarity.CHEAP_HASH_PARAMS
ACCOUNT = "acceptance@example.com"


def _pass(num, message):
    print(f"ACCEPTANCE {num:02d} PASS — {message}")


# -- 1: protocol correctness (oracle equivalence) ---------------------------

def test_01_protocol_matches_membership_oracle():
    started = time.perf_counter()
    tg = enumerable_group(101)
    rng = random.Random(101)

    # Leg A: every responder index subset of a 15-slot filter, exhaustively.
    # With the slot plaintexts known, the verdict is fully determined: true
    # exactly when the requester's uncovered random plaintexts sum to the
    # identity (in particular whenever the subset covers the index set).
    query, session = protocol.build_query(ACCOUNT, "candidate-pw", 5,
                                          group=tg, k=2, hash_params=CHEAP,
                                          rng=rng)
    ell = query.bloom.length_ell
    assert ell <= 16
    j_r = set(session.requester_index_set)
    slot_m = [elgamal.decrypt(session.keypair.sk, c)
              for c in query.ciphertexts]
    false_negatives = 0
    for mask in range(1 << ell):
        covered = all(mask >> j & 1 for j in j_r)
        subset = [j for j in range(ell) if mask >> j & 1]
        uncovered_sum = sum(slot_m[j] for j in range(ell)
                            if not mask >> j & 1) % 101
        verdict = protocol.decode_result(
            session, protocol.blinded_complement_product(query, subset, rng))
        assert verdict == (uncovered_sum == 0)
        if covered:
            false_negatives += verdict is False
    assert false_negatives == 0

    # Leg B: the full protocol against every subset of a password pool.
    pool = [f"pool-pw-{i}" for i in range(8)]
    digests = {p: similarity.bloom_item(p, ACCOUNT, CHEAP) for p in pool}
    candidates = [pool[0], pool[5], "outsider-a", "outsider-b"]
    fn_b = 0
    fp_b = 0
    mismatches = 0
    fpr_budget = 0.0
    for mask in range(1 << len(pool)):
        members = [p for i, p in enumerate(pool) if mask >> i & 1]
        sset = similarity.SimilarSet(
            ACCOUNT, tuple(digests[p] for p in members), 0, 16)
        for candidate in candidates:
            query, session = protocol.build_query(
                ACCOUNT, candidate, 11, group=tg, k=1, hash_params=CHEAP,
                rng=rng)
            assert query.bloom.length_ell == 16
            verdict = protocol.decode_result(
                session, protocol.respond(query, sset, rng))
            oracle = protocol.membership_oracle(candidate, members,
                                                query.bloom, ACCOUNT, CHEAP)
            if candidate in members:
                fn_b += verdict is False
            else:
                fp_b += verdict is True
                fpr_budget += bloom.fpr_estimate(16, 1, len(members))
            if oracle and not verdict:
                fn_b += 1  # oracle-true must imply protocol-true
            mismatches += verdict != oracle
    assert fn_b == 0
    assert fp_b <= 3 * fpr_budget

    # Leg C: 1000 random instances on the default curve.
    fn_c = 0
    fp_c = 0
    fpr_budget_c = 0.0
    for i in range(1000):
        account = f"curve-{i}@example.com"
        seed_pw = f"seed-pw-{i}"
        sset = similarity.build_similar_set(account, seed_pw, 0, 2, CHEAP)
        plaintexts = similarity.generate_similar(seed_pw, 2)
        candidate = seed_pw if i % 2 == 0 else f"outsider-{i}"
        query, session = protocol.build_query(account, candidate, 2,
                                              group=P192, hash_params=CHEAP)
        verdict = protocol.decode_result(
            session, protocol.respond(query, sset))
        oracle = protocol.membership_oracle(candidate, plaintexts,
                                            query.bloom, account, CHEAP)
        assert verdict == oracle
        if i % 2 == 0:
            fn_c += verdict is False
        else:
            fp_c += verdict is True
            fpr_budget_c += bloom.fpr_estimate(query.bloom.length_ell, 20, 2)
    assert fn_c == 0
    assert fp_c <= 3 * fpr_budget_c  # budget < 1, so no false positive at all

    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _pass(1, f"oracle equivalence, zero false negatives ({elapsed:.0f}s)")


# -- 2: Bloom false positive rate --------------------------------------------

def test_02_bloom_false_positive_rate():
    started = time.perf_counter()
    k, n = 10, 200
    ell = bloom.length_for(n, k)
    params = bloom.BloomParams(ell, k, b"acceptance-fpr-seed")
    rng = random.Random(2020)
    members = [rng.randbytes(12) for _ in range(n)]
    union = bloom.index_union(params, members)
    probes = 100_000
    hits = sum(1 for _ in range(probes)
               if bloom.indices(params, rng.randbytes(13)) <= union)
    rate = hits / probes
    assert 2 ** -11 <= rate <= 2 ** -9

    for n20 in (100, 1000, 5000):
        est = bloom.fpr_estimate(bloom.length_for(n20, 20), 20, n20)
        assert abs(est - 2 ** -20) / 2 ** -20 < 0.10

    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _pass(2, f"measured FPR {rate:.2e} in [2^-11, 2^-9] ({elapsed:.0f}s)")


# -- 3: non-member plaintexts uniform ----------------------------------------

def test_03_nonmember_plaintexts_uniform():
    tg = enumerable_group(101)
    rng = random.Random(303)
    sset = similarity.SimilarSet(
        ACCOUNT, (similarity.bloom_item("anchor-pw", ACCOUNT, CHEAP),), 0, 8)
    counts = [0] * 101
    for _ in range(100_000):
        query, session = protocol.build_query(ACCOUNT, "probe-pw", 3,
                                              group=tg, k=2,
                                              hash_params=CHEAP, rng=rng)
        response = protocol.respond(query, sset, rng)
        plaintext = elgamal.decrypt(session.keypair.sk,
                                    response.result_ciphertext)
        counts[plaintext] += 1
    nonidentity = counts[1:]
    assert sum(nonidentity) > 90_000
    p = stats.chisquare(nonidentity).pvalue
    assert p > 0.001
    _pass(3, f"non-identity plaintexts uniform over 100 elements (p={p:.3f})")


# -- 4: response uniform within its ciphertext class --------------------------

def test_04_response_uniform_within_class():
    tg = enumerable_group(101)
    rng = random.Random(404)
    member_pw = "member-pw"
    sset = similarity.SimilarSet(
        ACCOUNT, (similarity.bloom_item(member_pw, ACCOUNT, CHEAP),), 0, 8)
    query, session = protocol.build_query(ACCOUNT, member_pw, 3, group=tg,
                                          k=2, hash_params=CHEAP, rng=rng)
    counts = [0] * 101
    for _ in range(100_000):
        response = protocol.respond(query, sset, rng)
        plaintext = elgamal.decrypt(session.keypair.sk,
                                    response.result_ciphertext)
        assert plaintext == tg.identity
        counts[response.result_ciphertext.ephemeral] += 1
    p = stats.chisquare(counts).pvalue
    assert p > 0.001
    _pass(4, f"identity-class responses uniform over 101 ciphertexts (p={p:.3f})")


# -- 5: probing adversary meets, and does not beat, its ceiling --------------

def test_05_probing_adversary_rate():
    rng = random.Random(505)
    rate_62 = protocol.generic_bound_adversary(6, 2, 10_000, rng=rng)
    assert 0.113 <= rate_62 <= 0.153
    rate_41 = protocol.generic_bound_adversary(4, 1, 10_000, rng=rng)
    assert 0.46 <= rate_41 <= 0.54
    _pass(5, f"adversary rates {rate_62:.4f} (target 2/15) and {rate_41:.4f} "
             f"(target 1/2)")


# -- 6: planner reproduces the reference parameter grid ----------------------

TRUSTED_GRID = {
    0.01: {0: (1, 1, 0.343)},
    0.02: {0: (1, 10, 0.985), 4: (5, 1, 0.343)},
    0.03: {0: (2, 17, 1.0), 4: (5, 10, 0.985)},
    0.04: {0: (2, 26, 1.0), 4: (5, 19, 1.0), 9: (10, 8, 0.965)},
    0.05: {0: (5, 26, 1.0), 4: (5, 26, 1.0), 9: (10, 16, 0.999)},
    0.06: {0: (9, 26, 1.0), 4: (10, 24, 1.0), 9: (10, 24, 1.0)},
    0.07: {0: (13, 26, 1.0), 4: (10, 26, 1.0), 9: (10, 26, 1.0)},
    0.08: {0: (16, 26, 1.0), 4: (15, 26, 1.0), 9: (10, 26, 1.0)},
    0.09: {0: (20, 26, 1.0), 4: (20, 26, 1.0), 9: (20, 26, 1.0)},
    0.10: {0: (23, 26, 1.0), 4: (20, 26, 1.0), 9: (20, 26, 1.0)},
}
TRUSTED_INFEASIBLE = [(0.01, 4), (0.01, 9), (0.02, 9), (0.03, 9)]

UNTRUSTED_GRID = {
    1.60: {0: (1, 16, 0.999), 4: (5, 6, 0.920)},
    1.62: {0: (2, 21, 1.0), 4: (5, 13, 0.996), 9: (10, 3, 0.716)},
    1.64: {0: (2, 26, 1.0), 4: (5, 20, 1.0), 9: (10, 9, 0.977)},
    1.66: {0: (5, 26, 1.0), 4: (5, 26, 1.0), 9: (10, 16, 0.999)},
    1.68: {0: (8, 26, 1.0), 4: (5, 26, 1.0), 9: (10, 22, 1.0)},
    1.70: {0: (11, 26, 1.0), 4: (10, 26, 1.0), 9: (10, 26, 1.0)},
    1.72: {0: (14, 26, 1.0), 4: (10, 26, 1.0), 9: (10, 26, 1.0)},
    1.74: {0: (17, 26, 1.0), 4: (15, 26, 1.0), 9: (10, 26, 1.0)},
    1.76: {0: (19, 26, 1.0), 4: (15, 26, 1.0), 9: (20, 25, 1.0)},
    1.78: {0: (22, 26, 1.0), 4: (20, 26, 1.0), 9: (20, 26, 1.0)},
}
UNTRUSTED_INFEASIBLE = [(1.60, 9)]


def test_06_reference_grid_reproduced():
    started = time.perf_counter()
    cells = 0
    for model, grid, empty in (
            (planner.TRUSTED_MODEL, TRUSTED_GRID, TRUSTED_INFEASIBLE),
            (planner.UNTRUSTED_MODEL, UNTRUSTED_GRID, UNTRUSTED_INFEASIBLE)):
        for t_goal, columns in grid.items():
            for d, (n_ref, rho_ref, tdr_ref) in columns.items():
                plan = planner.optimize(t_goal, 26, d, model)
                assert abs(plan.tdr - tdr_ref) <= 0.02, (t_goal, d, plan)
                assert planner.predict_time(model, rho_ref, n_ref) <= t_goal
                cells += 1
        for t_goal, d in empty:
            with pytest.raises(InfeasibleError):
                planner.optimize(t_goal, 26, d, model)
            cells += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(6, f"all {cells} reference grid cells reproduced within ±0.02 "
             f"({elapsed * 1000:.0f}ms)")


# -- 7: regression recovery ----------------------------------------------------

def _grid(model, sigma, reps, seed):
    rng = random.Random(seed)
    out = []
    for rho in (1, 32, 64, 96, 128):
        for n in (128, 256, 512, 1024, 2048, 4096):
            for _ in range(reps):
                out.append((rho, n, planner.predict_time(model, rho, n)
                            + rng.gauss(0.0, sigma)))
    return out


def test_07_regression_recovery():
    exact = planner.fit_model(_grid(planner.UNTRUSTED_MODEL, 0.0, 1, 0))
    for name in ("c0", "c1", "c2", "c3"):
        ref = getattr(planner.UNTRUSTED_MODEL, name)
        assert abs(getattr(exact, name) - ref) / abs(ref) < 1e-6

    worst = 0.0
    for seed in range(20):
        noisy = planner.fit_model(_grid(planner.UNTRUSTED_MODEL, 0.05, 50, seed))
        for name in ("c0", "c1", "c2", "c3"):
            ref = getattr(planner.UNTRUSTED_MODEL, name)
            rel = abs(getattr(noisy, name) - ref) / abs(ref)
            worst = max(worst, rel)
    assert worst < 0.05
    assert planner.UNTRUSTED_MODEL.rmse == 0.4547
    _pass(7, f"coefficients recovered exactly; worst noisy error "
             f"{worst * 100:.2f}% over 20 seeds")


# -- 8: end-to-end flow ---------------------------------------------------------

def test_08_end_to_end_flow():
    started = time.perf_counter()
    account_alias_a = "jane.doe+siteA@gmail.com"
    account_alias_b = "Jane.Doe@gmail.com"
    canonical = "janedoe@gmail.com"
    reused_pw = "hunter2"

    stores = {}
    for i in range(26):
        store = ResponderStore()
        pw = reused_pw if i == 0 else f"独-site-{i}-pw"
        store.add(similarity.build_similar_set(canonical, pw, 0, 5, CHEAP,
                                               rng_seed=i))
        stores[f"site-{i}"] = store
    directory = Directory(
        make_inprocess_responder_transport(stores, TRUSTED_PROFILE,
                                           rng=random.Random(88)),
        rng=random.Random(8))
    for address in stores:
        directory.register(canonical, ResponderEndpoint(address))
    dserver = serve_directory(directory, "127.0.0.1:0")
    try:
        client = DirectoryClient(dserver.address, TRUSTED_PROFILE,
                                 rng=random.Random(9))

        with pytest.raises(ConsentRequiredError):
            requester_set_password(client, account_alias_b, "anything-x1", 0.05,
                                   hash_params=CHEAP, rng=random.Random(10))

        token = client.begin_consent(canonical)
        client.confirm_consent(token)
        reused = requester_set_password(client, account_alias_b, reused_pw,
                                        0.05, hash_params=CHEAP,
                                        rng=random.Random(11))
        assert (reused.plan.n, reused.plan.rho) == (5, 26)
        assert not reused.accepted
        assert reused.detections >= 1

        runs_seen = set()
        for seed in range(6):
            token = client.begin_consent(canonical)
            client.confirm_consent(token)
            fresh = requester_set_password(
                client, account_alias_a, f"fresh-unique-{seed}-zq", 0.05,
                DecoyPolicy(enabled=True), hash_params=CHEAP,
                rng=random.Random(seed))
            assert fresh.accepted
            assert fresh.detections == 0
            assert fresh.runs in (2, 3)
            runs_seen.add(fresh.runs)
        assert runs_seen == {2, 3}
    finally:
        dserver.shutdown()
        dserver.server_close()

    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _pass(8, f"reuse rejected, fresh accepted, consent gated, decoys 2-3 "
             f"({elapsed:.0f}s)")


# -- 9: audits ------------------------------------------------------------------

def test_09_audits_flag_liars_never_honest():
    rng = random.Random(909)

    def transport(endpoint, query, timeout):
        if endpoint.address.startswith("liar"):
            return protocol.ResponseMessage(
                elgamal.encrypt(query.pk, query.pk.group.identity))
        sset = similarity.SimilarSet(query.account_id, (), 0, 0)
        return protocol.respond(query, sset, rng)

    directory = Directory(transport, rng=rng)
    for i in range(100):
        verdict = directory.audit_responder(ResponderEndpoint(f"liar-{i}"))
        assert verdict is AuditVerdict.LYING
    assert len(directory.flagged) == 100
    for i in range(100):
        verdict = directory.audit_responder(ResponderEndpoint(f"honest-{i}"))
        assert verdict is AuditVerdict.HONEST
    assert len(directory.flagged) == 100
    _pass(9, "100/100 rigged responders flagged, 0/100 honest flagged")


# -- 10: query message size ------------------------------------------------------

REFERENCE_SIZE_192_BYTES = 1_533_753.9   # published 192-bit point at n=2^10
REFERENCE_SIZE_160_BYTES = 1_300_000.0   # published 160-bit point at n=2^10


def _query_bytes(group, n, account="user@example.com"):
    kp = elgamal.gen(P192 if group is None else group, random.Random(42))
    one = elgamal.encrypt(kp.pk, kp.group.random_element(random.Random(43)),
                          random.Random(44))
    ell = bloom.length_for(n, 20)
    params = bloom.BloomParams(ell, 20, b"\x5c" * 16)
    query = protocol.QueryMessage(account, kp.pk, params, (one,) * ell)
    return len(wire.encode_query(query))


def test_10_query_message_size():
    # Tie the slot width to a fully real query first.
    real_small, _ = protocol.build_query(ACCOUNT, "pw", 1, group=P192,
                                         hash_params=CHEAP)
    per_slot = 2 * (P192.field_bytes + 1)
    fixed = len(wire.encode_query(real_small)) - \
        real_small.bloom.length_ell * per_slot

    size_192 = _query_bytes(P192, 1024, ACCOUNT)
    assert size_192 == fixed + bloom.length_for(1024, 20) * per_slot

    assert abs(size_192 - REFERENCE_SIZE_192_BYTES) / REFERENCE_SIZE_192_BYTES < 0.05
    size_160 = _query_bytes(P160, 1024, ACCOUNT)
    assert abs(size_160 - REFERENCE_SIZE_160_BYTES) / REFERENCE_SIZE_160_BYTES < 0.05

    doubled = _query_bytes(P192, 2048, ACCOUNT)
    ratio = doubled / size_192
    assert 1.9 <= ratio <= 2.1
    _pass(10, f"192-bit query {size_192 / 1e6:.3f} MB, 160-bit "
              f"{size_160 / 1e6:.3f} MB, doubling ratio {ratio:.3f}")


# -- 11: desk-scale substitutes for absolute timings ------------------------------

def test_11_desk_scale_timing_properties():
    # (a) response time non-decreasing in n and in rho
    scenario = bench.BenchScenario(curve="P192", n_values=(1, 8, 32),
                                   rho_values=(1, 3, 6), rounds=2)
    records = bench.bench_run(scenario)
    for rho in scenario.rho_values:
        means = [bench.mean_phase_time(records, "round_trip", rho=rho, n=n)
                 for n in scenario.n_values]
        assert means == sorted(means), (rho, means)
    for n in scenario.n_values:
        means = [bench.mean_phase_time(records, "round_trip", rho=rho, n=n)
                 for rho in scenario.rho_values]
        assert means == sorted(means), (n, means)

    # (b) untrusted-profile transport at least doubles the trusted median
    def run_deployment(profile, seed):
        stores = {}
        for i in range(2):
            store = ResponderStore()
            store.add(similarity.build_similar_set(ACCOUNT, f"pw-{i}", 0, 3,
                                                   CHEAP, rng_seed=i))
            stores[f"r-{i}"] = store
        directory = Directory(
            make_inprocess_responder_transport(stores, profile,
                                               rng=random.Random(seed)),
            window_seconds=3600, rng=random.Random(seed + 1),
            per_responder_timeout=8.0)
        for address in stores:
            directory.register(ACCOUNT, ResponderEndpoint(address))
        token = directory.begin_consent(ACCOUNT)
        directory.confirm_consent(token)
        times = []
        rng = random.Random(seed + 2)
        for i in range(11):
            query, session = protocol.build_query(ACCOUNT, f"probe-{i}", 1,
                                                  group=P192,
                                                  hash_params=CHEAP, rng=rng)
            t0 = time.perf_counter()
            responses = directory.fanout(query, 2)
            for r in responses:
                protocol.decode_result(session, r)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    trusted_median = run_deployment(TRUSTED_PROFILE, 50)
    untrusted_median = run_deployment(UNTRUSTED_PROFILE, 60)
    assert untrusted_median >= 2 * trusted_median

    # (c) the 224-bit curve answers slower than the 256-bit one, because
    # recovering y from a compressed x takes the slow square-root path
    # when the field prime is 1 mod 4.
    def respond_phase_seconds(group):
        sset = similarity.build_similar_set(ACCOUNT, "bench-pw", 0, 16, CHEAP)
        query, _ = protocol.build_query(ACCOUNT, "probe", 16, group=group,
                                        hash_params=CHEAP)
        payload = wire.encode_query(query)
        best = []
        for _ in range(3):
            t0 = time.perf_counter()
            served = wire.decode_query(payload)
            response = protocol.respond(served, sset)
            wire.encode_response(response, group)
            best.append(time.perf_counter() - t0)
        return min(best)

    assert P224.p % 4 == 1 and P256.p % 4 == 3
    t224 = respond_phase_seconds(P224)
    t256 = respond_phase_seconds(P256)
    assert t224 > t256
    _pass(11, f"monotone response times; untrusted/trusted median ratio "
              f"{untrusted_median / trusted_median:.1f}; 224-bit respond "
              f"{t224 * 1000:.0f}ms > 256-bit {t256 * 1000:.0f}ms")
