import json
import math
import os
import random
import signal
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from reuseguard import directory, elgamal, groups, protocol, similarity
from reuseguard.directory import (
    AuditVerdict,
    Directory,
    ResponderEndpoint,
    canonicalize,
)
from reuseguard.errors import (
    ConsentRequiredError,
    ConsentTokenError,
    InsufficientRespondersError,
    InvalidCiphertextError,
    MalformedAddressError,
    StateError,
)
from reuseguard.groups import enumerable_group

CHEAP = similarity.CHEAP_HASH_PARAMS


# -- canonicalization -------------------------------------------------------

def test_canonicalize_gmail_aliases():
    assert canonicalize("Jane.Doe+shop@Gmail.com") == "janedoe@gmail.com"
    assert canonicalize("j.a.n.e.d.o.e@gmail.com") == "janedoe@gmail.com"
    assert canonicalize("JaneDoe+a+b@googlemail.com") == "janedoe@googlemail.com"


def test_canonicalize_33mail_aliases():
    assert canonicalize("promo@alice.33mail.com") == "you@alice.33mail.com"
    assert canonicalize("ANY.alias@Alice.33mail.com") == "you@alice.33mail.com"


def test_canonicalize_plain_lowercase():
    assert canonicalize("Bob@Example.com") == "bob@example.com"
    assert canonicalize("dots.kept@example.com") == "dots.kept@example.com"
    assert canonicalize("tag+kept@example.com") == "tag+kept@example.com"


def test_canonicalize_idempotent():
    for addr in ("A.B+c@gmail.com", "x@y.33mail.com", "Q@Z.org"):
        once = canonicalize(addr)
        assert canonicalize(once) == once


@pytest.mark.parametrize("bad", ["", "no-at-sign", "two@@ats", "a@b@c",
                                 "@nodomain.com", "nolocal@", "sp ace@x.com",
                                 "x@.dot", "+@gmail.com"])
def test_canonicalize_rejects_malformed(bad):
    with pytest.raises(MalformedAddressError):
        canonicalize(bad)


# -- fixtures ----------------------------------------------------------------

ACCOUNT = "user@example.com"


class RecordingTransport:
    """In-process responder pool that records which endpoints were hit."""

    def __init__(self, similar_sets, group=None, fail=(), slow=()):
        self.similar_sets = similar_sets
        self.calls = []
        self.fail = set(fail)
        self.slow = set(slow)
        self.rng = random.Random(1)
        self.lock = threading.Lock()

    def __call__(self, endpoint, query, timeout):
        with self.lock:
            self.calls.append(endpoint.address)
        if endpoint.address in self.fail:
            raise TimeoutError("emulated unreachable responder")
        similar = self.similar_sets.get(endpoint.address) or \
            similarity.SimilarSet(query.account_id, (), 0, 0)
        return protocol.respond(query, similar, self.rng)


def directory_with_responders(count, password="hunter2", group=None, **kwargs):
    sets = {}
    for i in range(count):
        sets[f"resp-{i}"] = similarity.build_similar_set(
            ACCOUNT, password, 0, 5, CHEAP, rng_seed=i)
    transport = RecordingTransport(sets)
    d = Directory(transport, rng=random.Random(7), **kwargs)
    for addr in sets:
        d.register(ACCOUNT, ResponderEndpoint(addr))
    return d, transport


def open_window(d, account=ACCOUNT):
    token = d.begin_consent(account)
    d.confirm_consent(token)


def make_query(password="hunter2", group=None, rng=None):
    return protocol.build_query(
        ACCOUNT, password, 5, group=group or enumerable_group(101),
        hash_params=CHEAP, rng=rng or random.Random(3))


# -- registry ----------------------------------------------------------------

def test_register_is_idempotent():
    d = Directory()
    ep = ResponderEndpoint("somewhere:1")
    ack1 = d.register(ACCOUNT, ep)
    ack2 = d.register(ACCOUNT, ep)
    assert ack1.warning is None
    assert ack2.warning is not None
    assert d.responder_count(ACCOUNT) == 1


def test_26_registrations_counted():
    d = Directory()
    for i in range(26):
        d.register(ACCOUNT, ResponderEndpoint(f"site-{i}:443"))
    assert d.responder_count(ACCOUNT) == 26


def test_deregister_removes_and_warns_when_absent():
    d = Directory()
    ep = ResponderEndpoint("a:1")
    d.register(ACCOUNT, ep)
    assert d.deregister(ACCOUNT, ep).warning is None
    assert d.responder_count(ACCOUNT) == 0
    ack = d.deregister(ACCOUNT, ep)
    assert ack.ok and ack.warning is not None


def test_deregistered_endpoint_excluded_from_fanout():
    d, transport = directory_with_responders(5)
    d.deregister(ACCOUNT, ResponderEndpoint("resp-0"))
    open_window(d)
    query, _ = make_query()
    d.fanout(query, 4)
    assert "resp-0" not in transport.calls


# -- consent -----------------------------------------------------------------

def test_query_without_consent_dropped():
    d, _ = directory_with_responders(3)
    query, _ = make_query()
    with pytest.raises(ConsentRequiredError):
        d.fanout(query, 2)


def test_confirm_opens_window_and_queries_flow():
    d, _ = directory_with_responders(3)
    open_window(d)
    query, session = make_query()
    responses = d.fanout(query, 2)
    assert len(responses) == 2
    assert all(protocol.decode_result(session, r) for r in responses)


def test_window_expires():
    now = [1000.0]
    d, _ = directory_with_responders(2, clock=lambda: now[0],
                                     window_seconds=60.0)
    open_window(d)
    query, _ = make_query()
    now[0] += 59.0
    d.fanout(query, 1)
    now[0] += 2.0
    with pytest.raises(ConsentRequiredError):
        d.fanout(query, 1)


def test_token_is_single_use():
    d, _ = directory_with_responders(1)
    token = d.begin_consent(ACCOUNT)
    d.confirm_consent(token)
    with pytest.raises(ConsentTokenError):
        d.confirm_consent(token)


def test_token_expires():
    now = [0.0]
    d, _ = directory_with_responders(1, clock=lambda: now[0])
    token = d.begin_consent(ACCOUNT)
    now[0] += 601.0
    with pytest.raises(ConsentTokenError):
        d.confirm_consent(token)


def test_unknown_token_rejected():
    d = Directory(lambda *a: None)
    with pytest.raises(ConsentTokenError):
        d.confirm_consent("deadbeef")


def test_consent_state_is_bounded():
    now = [0.0]
    d = Directory(None, clock=lambda: now[0], window_seconds=60.0)
    tokens = [d.begin_consent(f"user{i}@example.com") for i in range(1000)]
    for token in tokens[:10]:
        d.confirm_consent(token)
    assert len(d._tokens) == 990
    assert len(d._windows) == 10
    now[0] += 601.0
    d.begin_consent(ACCOUNT)
    assert len(d._tokens) == 1
    assert d._windows == {}


@pytest.mark.parametrize("seconds", [math.nan, math.inf, 0.0, -5.0])
def test_window_length_must_be_finite_and_positive(seconds):
    with pytest.raises(ValueError):
        Directory(None, window_seconds=seconds)


@pytest.mark.parametrize("seconds", [math.nan, math.inf, 0.0, -1.0])
def test_per_responder_timeout_must_be_finite_and_positive(seconds):
    with pytest.raises(ValueError):
        Directory(None, per_responder_timeout=seconds)


# -- fan-out -----------------------------------------------------------------

def test_fanout_returns_exactly_rho_responses():
    d, _ = directory_with_responders(5)
    open_window(d)
    query, _ = make_query()
    assert len(d.fanout(query, 3)) == 3


def test_fanout_requires_enough_responders():
    d, _ = directory_with_responders(2)
    open_window(d)
    query, _ = make_query()
    with pytest.raises(InsufficientRespondersError):
        d.fanout(query, 3)


def test_fanout_sticky_within_window():
    d, transport = directory_with_responders(8)
    open_window(d)
    query, _ = make_query()
    d.fanout(query, 3)
    first = set(transport.calls)
    for _ in range(5):
        transport.calls.clear()
        d.fanout(query, 3)
        assert set(transport.calls) == first


def test_fanout_redrawn_across_windows():
    d, transport = directory_with_responders(8)
    query, _ = make_query()
    subsets = []
    for _ in range(12):
        open_window(d)
        transport.calls.clear()
        d.fanout(query, 3)
        subsets.append(frozenset(transport.calls))
    assert len(set(subsets)) > 1


def _reached(d, query, rho, transport):
    transport.calls.clear()
    d.fanout(query, rho)
    return set(transport.calls)


def test_responder_flagged_mid_window_gets_no_later_query():
    def transport(endpoint, query, timeout):
        calls.append(endpoint.address)
        if endpoint.address == "liar":  # claims every query reuses a password
            return protocol.ResponseMessage(
                elgamal.encrypt(query.pk, query.pk.group.identity))
        return protocol.respond(query, similarity.SimilarSet(query.account_id, (), 0, 0))

    calls = []
    d = Directory(transport, rng=random.Random(23))
    for addr in ("b", "c", "liar"):
        d.register(ACCOUNT, ResponderEndpoint(addr))
    query, _ = make_query()
    while "liar" not in calls:  # a window whose plan holds the liar
        open_window(d)
        calls.clear()
        d.fanout(query, 2)
    assert d.audit_responder(ResponderEndpoint("liar")) is AuditVerdict.LYING
    calls.clear()
    d.fanout(query, 2)
    assert sorted(calls) == ["b", "c"]


def test_responder_deregistered_mid_window_gets_no_later_query():
    d, transport = directory_with_responders(3)
    open_window(d)
    query, _ = make_query()
    gone = sorted(_reached(d, query, 2, transport))[0]
    d.deregister(ACCOUNT, ResponderEndpoint(gone))
    assert _reached(d, query, 2, transport) == {"resp-0", "resp-1", "resp-2"} - {gone}


def test_plans_within_a_window_are_prefixes_of_one_order():
    d, transport = directory_with_responders(8)
    query, _ = make_query()
    for _ in range(5):
        open_window(d)
        reached = [_reached(d, query, rho, transport) for rho in range(1, 5)]
        for smaller, larger in zip(reached, reached[1:]):
            assert smaller < larger
        assert len(set().union(*reached)) == 4


def test_chosen_subset_uniform_across_windows():
    def transport(endpoint, query, timeout):
        calls.append(endpoint.address)
        return b""

    calls = []
    d = Directory(transport, rng=random.Random(29))
    for i in range(5):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    query, _ = make_query()
    counts = {}
    for _ in range(2000):
        open_window(d)
        calls.clear()
        d.fanout(query, 2)
        subset = frozenset(calls)
        counts[subset] = counts.get(subset, 0) + 1
    assert len(counts) == 10 and all(len(s) == 2 for s in counts)
    assert stats.chisquare(list(counts.values())).pvalue > 0.001


def test_fanout_timeouts_are_tolerated():
    sets = {f"r{i}": similarity.build_similar_set(ACCOUNT, "pw", 0, 3, CHEAP)
            for i in range(4)}
    transport = RecordingTransport(sets, fail={"r0", "r1"})
    d = Directory(transport, rng=random.Random(5))
    for addr in sets:
        d.register(ACCOUNT, ResponderEndpoint(addr))
    open_window(d)
    query, _ = make_query("pw")
    responses = d.fanout(query, 4)
    assert len(responses) == 2


def test_early_return_fraction():
    marker = {}

    def transport(endpoint, query, timeout):
        return protocol.ResponseMessage(
            elgamal.Ciphertext(int(endpoint.address.split("-")[1]), 0))

    d = Directory(transport, early_return_fraction=0.75,
                  rng=random.Random(9))
    for i in range(64):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    open_window(d)
    query, _ = make_query()
    responses = d.fanout(query, 64)
    assert len(responses) == 48


def _indexed_reply(endpoint):
    return protocol.ResponseMessage(
        elgamal.Ciphertext(int(endpoint.address.split("-")[1]), 0))


def test_every_chosen_responder_is_asked_at_once():
    barrier = threading.Barrier(12, timeout=1)  # breaks unless all 12 wait together

    def transport(endpoint, query, timeout):
        barrier.wait()
        return _indexed_reply(endpoint)

    d = Directory(transport, per_responder_timeout=2.0, rng=random.Random(12))
    for i in range(12):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    open_window(d)
    responses = d.fanout(make_query()[0], 12)
    assert sorted(r.result_ciphertext.ephemeral for r in responses) == list(range(12))


@pytest.mark.parametrize("rho", [0, directory.MAX_FANOUT + 1])
def test_rho_outside_the_fanout_bound_asks_no_one(rho):
    calls = []
    d = Directory(lambda endpoint, query, timeout: calls.append(endpoint),
                  rng=random.Random(13))
    for i in range(directory.MAX_FANOUT + 1):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    open_window(d)
    query = make_query()[0]
    threads = threading.active_count()
    with pytest.raises(ValueError):
        d.fanout(query, rho)
    assert calls == []
    assert threading.active_count() == threads


def test_responder_count_is_capped_at_max_fanout():
    d = Directory(rng=random.Random(13))
    for i in range(directory.MAX_FANOUT + 1):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    assert d.responder_count(ACCOUNT) == directory.MAX_FANOUT == 64


def test_early_return_leaves_no_thread_behind():
    release = threading.Event()

    def transport(endpoint, query, timeout):
        if endpoint.address == "e-1":
            release.wait(5)
        return _indexed_reply(endpoint)

    d = Directory(transport, early_return_fraction=0.5, rng=random.Random(14))
    for i in range(2):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    open_window(d)
    query = make_query()[0]
    threads = threading.active_count()
    responses = d.fanout(query, 2)
    assert [r.result_ciphertext.ephemeral for r in responses] == [0]
    release.set()
    d.close()  # idle pool threads outlive a fan-out; close stops them
    deadline = time.monotonic() + 2
    while threading.active_count() > threads and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == threads


def test_fanouts_reuse_the_pool_threads():
    rho = 3
    threads = []

    def transport(endpoint, query, timeout):
        threads.append(threading.current_thread())  # objects, not idents: those recur
        return _indexed_reply(endpoint)

    d = Directory(transport, rng=random.Random(15))
    for i in range(rho):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    open_window(d)
    query = make_query()[0]
    for _ in range(20):
        assert len(d.fanout(query, rho)) == rho
    d.close()
    assert len(threads) == 20 * rho
    assert len(set(threads)) <= 2 * rho


def _capped_directory(monkeypatch, max_fanout, timeout, transport, rho=2):
    monkeypatch.setattr(directory, "MAX_FANOUT", max_fanout)
    d = Directory(transport, per_responder_timeout=timeout, rng=random.Random(16))
    for i in range(rho):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    open_window(d)
    return d


def test_calls_queued_past_the_deadline_are_never_sent(monkeypatch):
    release = threading.Event()
    calls = []

    def transport(endpoint, query, timeout):
        calls.append(threading.current_thread())
        release.wait(5)
        return _indexed_reply(endpoint)

    d = _capped_directory(monkeypatch, 2, 0.2, transport)
    query = make_query()[0]
    assert d.fanout(query, 2) == []  # both pool threads now busy
    start = time.monotonic()
    assert d.fanout(query, 2) == []
    assert time.monotonic() - start < 0.2 + 0.15
    release.set()
    d.close()
    for thread in set(calls):
        thread.join(2)
    assert len(calls) == 2


def test_a_call_that_starts_late_gets_only_the_time_left(monkeypatch):
    seen = []

    def transport(endpoint, query, timeout):
        seen.append((time.monotonic(), timeout))
        if len(seen) == 1:
            time.sleep(0.7)  # holds the only pool thread past the first deadline
        return _indexed_reply(endpoint)

    d = _capped_directory(monkeypatch, 1, 0.5, transport, rho=1)
    query = make_query()[0]
    assert d.fanout(query, 1) == []
    start = time.monotonic()
    assert len(d.fanout(query, 1)) == 1
    d.close()
    (called, timeout), = seen[1:]
    assert called - start > 0.1
    assert 0 < timeout <= 0.5 - (called - start) + 0.05


def test_close_returns_at_once_and_drops_queued_calls(monkeypatch):
    entered, release = threading.Event(), threading.Event()
    calls = []

    def transport(endpoint, query, timeout):
        calls.append(threading.current_thread())
        entered.set()
        release.wait(5)
        return _indexed_reply(endpoint)

    d = _capped_directory(monkeypatch, 1, 1.0, transport, rho=1)
    query = make_query()[0]
    fanouts = [threading.Thread(target=d.fanout, args=(query, 1)) for _ in range(2)]
    fanouts[0].start()
    assert entered.wait(2)
    fanouts[1].start()  # its call queues behind the blocked one
    time.sleep(0.1)
    start = time.monotonic()
    d.close()
    assert time.monotonic() - start < 0.1
    release.set()
    calls[0].join(2)  # the pool thread stops once its call is done
    assert not calls[0].is_alive()
    for fanout in fanouts:
        fanout.join(2)
    assert len(calls) == 1


def test_a_forked_child_fans_out_on_its_own_pool():
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    d, _ = directory_with_responders(3, per_responder_timeout=3.0)
    open_window(d)
    query = make_query()[0]
    assert len(d.fanout(query, 3)) == 3
    time.sleep(0.1)  # until the parent's pool counts its three threads idle
    pid = os.fork()
    if pid == 0:  # the child: its copy of the pool counts idle threads it lacks
        code = 1
        try:
            signal.alarm(5)
            code = 0 if len(d.fanout(query, 2)) == 2 else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    d.close()
    assert os.waitstatus_to_exitcode(status) == 0


def test_permutation_uniform_over_positions():
    def transport(endpoint, query, timeout):
        return protocol.ResponseMessage(
            elgamal.Ciphertext(int(endpoint.address.split("-")[1]), 0))

    d = Directory(transport, rng=random.Random(11))
    for i in range(4):
        d.register(ACCOUNT, ResponderEndpoint(f"e-{i}"))
    counts = [0, 0, 0, 0]
    for _ in range(1000):
        open_window(d)
        responses = d.fanout(make_query()[0], 4)
        for pos, r in enumerate(responses):
            if r.result_ciphertext.ephemeral == 0:
                counts[pos] += 1
    assert sum(counts) == 1000
    assert stats.chisquare(counts).pvalue > 0.001


# -- audit -------------------------------------------------------------------

def test_audit_query_slots_all_non_identity():
    d = Directory(lambda *a: None, audit_group=enumerable_group(101))
    query, keypair = d.build_audit_query(random.Random(3))
    for c in query.ciphertexts:
        assert elgamal.decrypt(keypair.sk, c) != 0


def test_warm_audit_query_builds_no_fixed_base_table(monkeypatch):
    d = Directory(lambda *a: None)
    d.build_audit_query(random.Random(4))

    def no_table(*args, **kwargs):
        raise AssertionError("build_audit_query built a fixed-base table")

    monkeypatch.setattr(groups, "FixedBaseTable", no_table)
    query, keypair = d.build_audit_query(random.Random(5))
    for c in query.ciphertexts:
        assert elgamal.decrypt(keypair.sk, c) is not None  # never the identity


def test_audit_flags_rigged_responder_and_excludes_it():
    def rigged(endpoint, query, timeout):
        return protocol.ResponseMessage(
            elgamal.encrypt(query.pk, query.pk.group.identity))

    d = Directory(rigged, rng=random.Random(13))
    ep = ResponderEndpoint("liar:1")
    d.register(ACCOUNT, ep)
    d.register(ACCOUNT, ResponderEndpoint("other:1"))
    assert d.audit_responder(ep) is AuditVerdict.LYING
    assert ep in d.flagged
    open_window(d)
    with pytest.raises(InsufficientRespondersError):
        d.fanout(make_query()[0], 2)


def test_audit_honest_responder():
    d, _ = directory_with_responders(2)
    assert d.audit_responder(ResponderEndpoint("resp-0")) is AuditVerdict.HONEST
    assert not d.flagged


def test_audit_unreachable_is_inconclusive():
    def unreachable(endpoint, query, timeout):
        raise TimeoutError("down")

    d = Directory(unreachable)
    assert d.audit_responder(ResponderEndpoint("gone:1")) is \
        AuditVerdict.INCONCLUSIVE


def test_wrongful_conviction_probability_enumerated():
    # Exact distribution of a sum of t independent uniform non-identity
    # elements of Z_101: the identity-landing probability never exceeds
    # 1/(r-1), so an honest complement product almost never convicts.
    r = 101
    dist = [0.0] * r
    dist[0] = 1.0
    for t in range(1, 17):
        nxt = [0.0] * r
        for v, pv in enumerate(dist):
            if pv == 0.0:
                continue
            for m in range(1, r):
                nxt[(v + m) % r] += pv / (r - 1)
        dist = nxt
        assert dist[0] <= 1 / (r - 1) + 1e-12
        if t >= 2:
            assert dist[0] == pytest.approx(1 / r, rel=0.02)


# -- state and logs -----------------------------------------------------------

def test_directory_state_never_contains_password_material(tmp_path):
    state = tmp_path / "dstate"
    sets = {"r0": similarity.build_similar_set(ACCOUNT, "hunter2", 0, 5, CHEAP)}
    transport = RecordingTransport(sets)
    d = Directory(transport, state_dir=str(state), rng=random.Random(2))
    d.register(ACCOUNT, ResponderEndpoint("r0"))
    open_window(d)
    query, _ = make_query("hunter2")
    d.fanout(query, 1)
    d.audit_responder(ResponderEndpoint("r0"))
    d.close()

    contents = b""
    for path in state.iterdir():
        contents += path.read_bytes()
    assert b"hunter2" not in contents
    digest = similarity.bloom_item("hunter2", ACCOUNT, CHEAP)
    assert digest not in contents
    assert digest.hex().encode() not in contents


def test_persistence_roundtrip(tmp_path):
    state = tmp_path / "dstate"
    d = Directory(None, state_dir=str(state))
    d.register(ACCOUNT, ResponderEndpoint("keep:1"))
    d.register("other@example.com", ResponderEndpoint("keep:2"))
    d.deregister("other@example.com", ResponderEndpoint("keep:2"))
    d.close()

    d2 = Directory(None, state_dir=str(state))
    assert d2.responder_count(ACCOUNT) == 1
    assert d2.responder_count("other@example.com") == 0
    d2.close()


def test_fanout_logs_no_event(tmp_path):
    state = tmp_path / "dstate"
    sets = {"r0": similarity.build_similar_set(ACCOUNT, "hunter2", 0, 5, CHEAP)}
    d = Directory(RecordingTransport(sets), state_dir=str(state),
                  rng=random.Random(4))
    d.register(ACCOUNT, ResponderEndpoint("r0"))
    open_window(d)
    before = (state / "events.jsonl").read_bytes()
    d.fanout(make_query()[0], 1)
    assert (state / "events.jsonl").read_bytes() == before
    d.close()


def test_torn_last_log_line_is_dropped(tmp_path):
    state = tmp_path / "dstate"
    state.mkdir()
    whole = json.dumps({"op": "register", "account": ACCOUNT, "address": "a:1",
                        "transport": "tcp", "ts": 1.0}) + "\n"
    torn = json.dumps({"op": "register", "account": ACCOUNT, "address": "b:1",
                       "transport": "tcp", "ts": 2.0})[:30]
    (state / "events.jsonl").write_text(whole + torn)
    d = Directory(None, state_dir=str(state))
    assert d.responder_count(ACCOUNT) == 1
    d.register(ACCOUNT, ResponderEndpoint("c:1"))
    lines = (state / "events.jsonl").read_text().splitlines()
    assert [json.loads(line)["address"] for line in lines] == ["a:1", "c:1"]
    d.close()
    d2 = Directory(None, state_dir=str(state))
    assert d2.responder_count(ACCOUNT) == 2
    d2.close()


def test_failed_rewrite_keeps_the_old_log(tmp_path, monkeypatch):
    state = tmp_path / "dstate"
    d = Directory(None, state_dir=str(state))
    d.register(ACCOUNT, ResponderEndpoint("a:1"))
    d.register(ACCOUNT, ResponderEndpoint("a:1"))  # a rewrite would drop a line
    d.close()
    before = (state / "events.jsonl").read_bytes()
    opened = []

    def tracking_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    def disk_full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(directory, "open", tracking_open, raising=False)
    monkeypatch.setattr(similarity, "open", tracking_open, raising=False)
    for name in ("fsync", "replace"):
        with monkeypatch.context() as patch:
            patch.setattr(os, name, disk_full)
            with pytest.raises(OSError, match="disk full"):
                Directory(None, state_dir=str(state))
        assert (state / "events.jsonl").read_bytes() == before
        assert opened and all(fh.closed for fh in opened)
    d2 = Directory(None, state_dir=str(state))
    assert d2.responder_count(ACCOUNT) == 1
    d2.close()


def test_restart_without_close_compacts_the_log(tmp_path):
    state = tmp_path / "dstate"
    d = Directory(None, state_dir=str(state))
    for _ in range(50):
        d.register(ACCOUNT, ResponderEndpoint("keep:1"))
    d.register("other@example.com", ResponderEndpoint("gone:1"))
    d.deregister("other@example.com", ResponderEndpoint("gone:1"))
    registry = {account: set(eps) for account, eps in d._accounts.items()}
    # No close(): the first directory died.
    d2 = Directory(None, state_dir=str(state))
    lines = (state / "events.jsonl").read_text().splitlines()
    assert [json.loads(line)["op"] for line in lines] == ["register"]
    assert d2._accounts == registry
    compacted = (state / "events.jsonl").read_bytes()
    d.close()
    d2.close()
    assert os.listdir(state) == ["events.jsonl"]
    assert (state / "events.jsonl").read_bytes() == compacted  # close wrote nothing


def test_every_event_is_logged_under_the_lock():
    def rigged(endpoint, query, timeout):
        return protocol.ResponseMessage(
            elgamal.encrypt(query.pk, query.pk.group.identity))

    d = Directory(rigged, rng=random.Random(13))
    held = []
    log = d._log

    def checked_log(*args, **kwargs):
        held.append(d._lock._is_owned())
        return log(*args, **kwargs)

    d._log = checked_log
    ep = ResponderEndpoint("liar:1")
    d.register(ACCOUNT, ep)
    d.deregister(ACCOUNT, ep)
    assert d.audit_responder(ep) is AuditVerdict.LYING
    assert held == [True, True, True]


_WHOLE_EVENT = json.dumps({"op": "register", "account": ACCOUNT, "address": "a:1",
                           "transport": "tcp", "ts": 1.0}) + "\n"


@pytest.mark.parametrize("name, content", [
    ("events.jsonl", '{"op": "regis\n' + _WHOLE_EVENT),  # corrupt, not last
    ("events.jsonl", _WHOLE_EVENT + '{"op": "register"}\n'),  # missing fields
    ("snapshot.json", '{"accounts": {'),  # does not parse
], ids=["corrupt-line", "missing-field", "bad-snapshot"])
def test_state_that_does_not_replay_raises_state_error(tmp_path, name, content):
    state = tmp_path / "dstate"
    state.mkdir()
    (state / name).write_text(content)
    with pytest.raises(StateError):
        Directory(None, state_dir=str(state))


def test_old_snapshot_is_refused_by_name(tmp_path):
    state = tmp_path / "dstate"
    state.mkdir()
    (state / "snapshot.json").write_text('{"accounts": {}, "flagged": []}')
    with pytest.raises(StateError, match="snapshot.json"):
        Directory(None, state_dir=str(state))


@pytest.mark.parametrize("content", [
    # Replayed, this endpoint would sort an int against a str.
    json.dumps({"op": "register", "account": ACCOUNT, "address": 1,
                "transport": "tcp", "ts": 1.0}) + "\n" + _WHOLE_EVENT,
    "[" * 100_000 + "\n",
], ids=["int-address", "deep-nesting"])
def test_untyped_replay_failures_raise_state_error(tmp_path, content):
    state = tmp_path / "dstate"
    state.mkdir()
    (state / "events.jsonl").write_text(content)
    with pytest.raises(StateError):
        Directory(None, state_dir=str(state))


def _fold(events):
    """Reference replay: the registry and flags a list of events leaves."""
    accounts, flagged = {}, set()
    for event in events:
        ep = ResponderEndpoint(event.get("address"))
        if event["op"] == "register":
            accounts.setdefault(event["account"], set()).add(ep)
        elif event["op"] == "deregister":
            accounts[event["account"]].discard(ep)
            if not accounts[event["account"]]:
                del accounts[event["account"]]
        elif event["op"] == "flag":
            flagged.add(ep)
    return accounts, flagged


def test_log_cut_at_any_byte_replays_its_complete_lines(tmp_path):
    events = [
        {"op": "register", "account": ACCOUNT, "address": "a:1", "transport": "tcp"},
        {"op": "register", "account": ACCOUNT, "address": "b:1", "transport": "udp"},
        {"op": "register", "account": "o@example.com", "address": "c:1",
         "transport": "tcp"},
        {"op": "fanout", "account": ACCOUNT, "rho": 1},  # written by older versions
        {"op": "deregister", "account": ACCOUNT, "address": "a:1", "transport": "tcp"},
        {"op": "flag", "address": "b:1", "transport": "udp"},
        {"op": "deregister", "account": "o@example.com", "address": "c:1",
         "transport": "tcp"},
    ]
    data = "".join(json.dumps(dict(e, ts=1.5)) + "\n" for e in events).encode()
    state = tmp_path / "dstate"
    state.mkdir()
    for cut in range(len(data) + 1):
        (state / "events.jsonl").write_bytes(data[:cut])
        d = Directory(None, state_dir=str(state))
        accounts, flagged = _fold(events[:data[:cut].count(b"\n")])
        assert (d._accounts, d.flagged) == (accounts, flagged), cut
        d.close()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_EVENTS = st.fixed_dictionaries({
    "op": st.sampled_from(["register", "deregister", "flag", "fanout"]) | _JSON,
    "account": st.sampled_from([ACCOUNT, "o@example.com"]) | _JSON,
    "address": st.sampled_from(["a:1", "b:1"]) | _JSON,
    "transport": st.just("tcp") | _JSON,
    "ts": st.floats(0, 1e9),
})
_LOG_LINES = st.lists(_EVENTS | _JSON, max_size=6).map(
    lambda events: "".join(json.dumps(e) + "\n" for e in events).encode())
_LOG_BYTES = st.one_of(
    st.binary(max_size=200),
    _LOG_LINES,
    st.tuples(_LOG_LINES, st.binary(max_size=20), _LOG_LINES).map(b"".join),
)


@settings(max_examples=300, deadline=None)
@given(data=_LOG_BYTES)
def test_any_event_log_replays_or_raises_state_error(data):
    with tempfile.TemporaryDirectory() as state:
        with open(os.path.join(state, "events.jsonl"), "wb") as fh:
            fh.write(data)
        try:
            d = Directory(None, state_dir=state)
        except StateError:
            return
        registry = ({a: set(eps) for a, eps in d._accounts.items()}, d.flagged)
        d.close()
        # The rewrite replays to the same state.
        d2 = Directory(None, state_dir=state)
        assert (d2._accounts, d2.flagged) == registry
        d2.close()


def test_replay_from_log_without_snapshot(tmp_path):
    state = tmp_path / "dstate"
    state.mkdir()
    events = [
        {"op": "register", "account": ACCOUNT, "address": "a:1",
         "transport": "tcp", "ts": 1.0},
        {"op": "register", "account": ACCOUNT, "address": "b:1",
         "transport": "tcp", "ts": 2.0},
        {"op": "deregister", "account": ACCOUNT, "address": "a:1",
         "transport": "tcp", "ts": 3.0},
        {"op": "flag", "address": "b:1", "transport": "tcp", "ts": 4.0},
    ]
    with open(state / "events.jsonl", "w") as fh:
        for e in events:
            fh.write(json.dumps(e) + "\n")
    d = Directory(None, state_dir=str(state))
    # b:1 is registered but flagged, so no query can reach it.
    assert d.responder_count(ACCOUNT) == 0
    assert ResponderEndpoint("b:1") in d.flagged
    assert d.deregister(ACCOUNT, ResponderEndpoint("a:1")).warning == \
        "endpoint was not registered"
    assert d.deregister(ACCOUNT, ResponderEndpoint("b:1")).warning is None
    d.close()


def test_older_log_replays_and_is_rewritten_as_op_account_address(tmp_path):
    """Older versions wrote a transport and a ts on every line."""
    events = [
        {"op": "register", "account": ACCOUNT, "address": "a:1", "transport": "tcp"},
        {"op": "register", "account": ACCOUNT, "address": "b:1", "transport": "udp"},
        {"op": "register", "account": "o@example.com", "address": "c:1",
         "transport": "tcp"},
        {"op": "deregister", "account": "o@example.com", "address": "c:1",
         "transport": "tcp"},
        {"op": "flag", "address": "b:1", "transport": "udp"},
    ]
    state = tmp_path / "dstate"
    state.mkdir()
    (state / "events.jsonl").write_text(
        "".join(json.dumps(dict(e, ts=1000.0 + i)) + "\n" for i, e in enumerate(events)))
    d = Directory(None, state_dir=str(state))
    registry = {ACCOUNT: {ResponderEndpoint("a:1"), ResponderEndpoint("b:1")}}
    assert (d._accounts, d.flagged) == (registry, {ResponderEndpoint("b:1")})
    d.register(ACCOUNT, ResponderEndpoint("d:1"))
    d.close()
    lines = [json.loads(line) for line in (state / "events.jsonl").read_text().splitlines()]
    assert lines == [
        {"op": "register", "account": ACCOUNT, "address": "a:1"},
        {"op": "register", "account": ACCOUNT, "address": "b:1"},
        {"op": "flag", "address": "b:1"},
        {"op": "register", "account": ACCOUNT, "address": "d:1"},
    ]


def test_fanout_raises_only_when_every_chosen_responder_rejects():
    def transport(endpoint, query, timeout):
        if endpoint.address == "down":
            raise TimeoutError("emulated unreachable responder")
        raise InvalidCiphertextError("emulated rejection")

    d = Directory(transport, rng=random.Random(21))
    d.register(ACCOUNT, ResponderEndpoint("no-1"))
    d.register(ACCOUNT, ResponderEndpoint("no-2"))
    open_window(d)
    with pytest.raises(InvalidCiphertextError):
        d.fanout(make_query()[0], 2)
    d.register(ACCOUNT, ResponderEndpoint("down"))
    open_window(d)
    assert d.fanout(make_query()[0], 3) == []
