import hashlib
import os
import random
import secrets
import socket
import socketserver
import statistics
import threading
import time

import pytest

from reuseguard import bloom, elgamal, netnodes, planner, protocol, similarity, wire
from reuseguard.directory import MAX_FANOUT, AuditVerdict, Directory, ResponderEndpoint
from reuseguard.errors import (
    ConsentRequiredError,
    FrameError,
    InsufficientRespondersError,
    InvalidCiphertextError,
    NoResponseError,
    ReuseGuardError,
    TransportError,
)
from reuseguard.groups import P192, P224, P256, EllipticCurveGroup
from reuseguard.netnodes import (
    TRUSTED_PROFILE,
    UNTRUSTED_PROFILE,
    DecoyPolicy,
    DirectoryClient,
    DirectoryServer,
    ResponderStore,
    answer_query,
    draw_latency,
    inject_latency,
    make_inprocess_responder_transport,
    make_tcp_responder_transport,
    requester_set_password,
    serve_directory,
    serve_responder,
    tcp_request,
)

CHEAP = similarity.CHEAP_HASH_PARAMS
ACCOUNT = "user@example.com"


# -- latency profiles ---------------------------------------------------------

def test_latency_deterministic_under_seed():
    a = [draw_latency(UNTRUSTED_PROFILE, random.Random(5)) for _ in range(10)]
    b = [draw_latency(UNTRUSTED_PROFILE, random.Random(5)) for _ in range(10)]
    assert a == b
    c = [draw_latency(UNTRUSTED_PROFILE, random.Random(6)) for _ in range(10)]
    assert a != c


def test_trusted_profile_is_sub_5ms_median():
    rng = random.Random(1)
    draws = sorted(draw_latency(TRUSTED_PROFILE, rng) for _ in range(501))
    assert draws[250] < 0.005


def test_untrusted_profile_much_slower_than_trusted():
    rng = random.Random(2)
    trusted = statistics.median(draw_latency(TRUSTED_PROFILE, rng)
                                for _ in range(501))
    untrusted = statistics.median(draw_latency(UNTRUSTED_PROFILE, rng)
                                  for _ in range(501))
    assert untrusted >= 2 * trusted
    assert UNTRUSTED_PROFILE.hops == 3
    assert TRUSTED_PROFILE.hops == 1


def test_inject_latency_sleeps():
    start = time.perf_counter()
    delay = inject_latency(UNTRUSTED_PROFILE, random.Random(3))
    elapsed = time.perf_counter() - start
    assert elapsed >= delay * 0.5
    assert inject_latency(None) == 0.0


# -- responder store ----------------------------------------------------------

def test_store_save_load_roundtrip(tmp_path):
    store = ResponderStore()
    store.add(similarity.build_similar_set(ACCOUNT, "pw-a", 0, 4, CHEAP))
    store.add(similarity.build_similar_set("b@c.com", "pw-b", 2, 9, CHEAP))
    store.save(str(tmp_path))
    loaded = ResponderStore.load(str(tmp_path))
    assert loaded.accounts() == store.accounts()
    assert loaded.get(ACCOUNT) == store.get(ACCOUNT)


class _DiskFull:
    """A file that takes half of a write, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError("disk full")


def test_failed_save_keeps_the_old_store(tmp_path, monkeypatch):
    old = similarity.build_similar_set(ACCOUNT, "pw-old", 0, 4, CHEAP)
    store = ResponderStore()
    store.add(old)
    store.save(str(tmp_path))
    store.add(similarity.build_similar_set(ACCOUNT, "pw-new", 0, 4, CHEAP))
    monkeypatch.setattr(similarity, "open", lambda *args: _DiskFull(open(*args)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        store.save(str(tmp_path))
    monkeypatch.undo()
    assert ResponderStore.load(str(tmp_path)).get(ACCOUNT) == old


def test_store_load_single_file(tmp_path):
    sset = similarity.build_similar_set(ACCOUNT, "pw", 0, 4, CHEAP)
    path = tmp_path / "one.simset"
    similarity.save_similar_set(sset, str(path))
    assert ResponderStore.load(str(path)).get(ACCOUNT) == sset


def test_store_refuses_a_set_for_a_non_canonical_account(tmp_path):
    # Queries name janedoe@gmail.com, so a set kept under the alias would
    # never be found, and its digests are salted with the alias anyway.
    sset = similarity.build_similar_set("Jane.Doe@gmail.com", "hunter2", 0, 5, CHEAP,
                                        rng_seed=1)
    with pytest.raises(ValueError, match="janedoe@gmail.com"):
        ResponderStore().add(sset)
    path = tmp_path / "alias.simset"
    similarity.save_similar_set(sset, str(path))
    with pytest.raises(ValueError, match="not its canonical form"):
        ResponderStore.load(str(path))


# -- responder service over TCP ----------------------------------------------

@pytest.fixture
def responder_server():
    store = ResponderStore()
    store.add(similarity.build_similar_set(ACCOUNT, "hunter2", 0, 5, CHEAP,
                                           rng_seed=1))
    server = serve_responder(store, "127.0.0.1:0")
    yield server
    server.shutdown()
    server.server_close()


def _count_served(server, monkeypatch):
    """The opcodes of every reply ``server`` sends from now on."""
    served = []
    dispatch = server.dispatch

    def counting(opcode, payload):
        reply = dispatch(opcode, payload)
        served.append(reply[0])
        return reply

    monkeypatch.setattr(server, "dispatch", counting)
    return served


def test_responder_answers_honest_query(responder_server):
    transport = make_tcp_responder_transport()
    query, session = protocol.build_query(ACCOUNT, "hunter2", 5, group=P192,
                                          hash_params=CHEAP)
    response = transport(ResponderEndpoint(responder_server.address), query, 5.0)
    assert protocol.decode_result(session, response) is True

    query2, session2 = protocol.build_query(ACCOUNT, "fresh-password", 5,
                                            group=P192, hash_params=CHEAP)
    response2 = transport(ResponderEndpoint(responder_server.address), query2, 5.0)
    assert protocol.decode_result(session2, response2) is False


def test_responder_unknown_account_answers_not_similar(responder_server):
    transport = make_tcp_responder_transport()
    query, session = protocol.build_query("stranger@example.com", "hunter2", 5,
                                          group=P192, hash_params=CHEAP)
    response = transport(ResponderEndpoint(responder_server.address), query, 5.0)
    assert protocol.decode_result(session, response) is False


# sha256 of a responder's reply to a fixed n = 4 query, with a seeded
# blinding rng, and of a seeded audit query's encoding.  Affine points are
# unique, so no change to how the curve arithmetic computes them may move
# a byte.
PINNED_REPLY_DIGESTS = {
    "P192": "f041ff56fd7997007e49cb85506d8614f7d99991191aaae0da79cbfb9b194d3a",
    "P224": "5e2aa672c584121a35c1a661276bd4465faf5a4ebfe70fcafbe53b35a1eaf6e1",
    "P256": "2700dc1dabd5d2b185d84b8baffc70e37e8299fa207964e3e0bf59ba06b41b8f",
}
PINNED_AUDIT_QUERY_DIGEST = "296570bd1f4d044f3fab13f94eeb2140a7d8b126d429ac9d87125288354a8185"


@pytest.mark.parametrize("group", [P192, P224, P256], ids=lambda g: g.name)
def test_seeded_answer_keeps_its_bytes(group):
    store = ResponderStore()
    store.add(similarity.build_similar_set(ACCOUNT, "hunter2", 1, 4, CHEAP))
    query, _ = protocol.build_query(ACCOUNT, "hunter2", 4, group=group,
                                    hash_params=CHEAP, rng=random.Random(31))
    opcode, body = answer_query(store, wire.encode_query(query), random.Random(32))
    assert opcode == wire.OP_RESPONSE
    assert hashlib.sha256(body).hexdigest() == PINNED_REPLY_DIGESTS[group.name]


def _slot_at(payload, j):
    """The offset of slot j's first point in a query payload."""
    _, group, _, _, first = wire.read_query_header(payload)
    return first + j * 2 * (group.field_bytes + 1)


def _inside_and_outside(query, similar):
    """One slot index inside the responder's J_S and one outside it."""
    j_s = protocol.responder_index_set(query.bloom, similar)
    return min(j_s), min(set(range(query.bloom.length_ell)) - j_s)


@pytest.mark.parametrize("group", [P192, P224, P256], ids=lambda g: g.name)
@pytest.mark.parametrize("case", ["stored", "fresh", "identity slots", "no set"])
def test_one_pass_answer_equals_decode_then_respond(group, case):
    store = ResponderStore()
    store.add(similarity.build_similar_set(ACCOUNT, "hunter2", 1, 4, CHEAP))
    account = "stranger@example.com" if case == "no set" else ACCOUNT
    password = "fresh-password-7" if case == "fresh" else "hunter2"
    query, _ = protocol.build_query(account, password, 4, group=group,
                                    hash_params=CHEAP, rng=random.Random(41))
    similar = store.get(account)
    if case == "identity slots":
        slots = list(query.ciphertexts)
        for j in _inside_and_outside(query, similar):
            slots[j] = elgamal.Ciphertext(None, None)
        query = protocol.QueryMessage(query.account_id, query.pk, query.bloom, tuple(slots))
    payload = wire.encode_query(query)
    if case == "identity slots":
        for j in _inside_and_outside(query, similar):
            assert payload[_slot_at(payload, j)] == 0x00
    reference = wire.encode_response(protocol.respond(
        wire.decode_query(payload), similar or similarity.SimilarSet(account, (), 0, 0),
        random.Random(42)), group)
    assert answer_query(store, payload, random.Random(42)) == (wire.OP_RESPONSE, reference)


@pytest.mark.parametrize("group", [P192, P256], ids=lambda g: g.name)
def test_a_bad_point_inside_or_outside_j_s_gets_the_same_error(group):
    store = ResponderStore()
    store.add(similarity.build_similar_set(ACCOUNT, "hunter2", 1, 4, CHEAP))
    query, _ = protocol.build_query(ACCOUNT, "hunter2", 4, group=group,
                                    hash_params=CHEAP, rng=random.Random(43))
    payload = wire.encode_query(query)
    bad = _off_curve_point(group)
    replies = []
    for j in _inside_and_outside(query, store.get(ACCOUNT)):
        for point in (0, 1):  # the slot's ephemeral, then its body
            at = _slot_at(payload, j) + point * len(bad)
            tampered = payload[:at] + bad + payload[at + len(bad):]
            replies.append(answer_query(store, tampered, random.Random(44)))
    error = (wire.OP_ERROR, wire.encode_error(wire.ERR_INVALID_CIPHERTEXT, group))
    assert replies == [error] * 4


def test_answer_query_neither_decodes_nor_validates_a_whole_query(monkeypatch):
    store = ResponderStore()
    store.add(similarity.build_similar_set(ACCOUNT, "hunter2", 1, 4, CHEAP))
    query, session = protocol.build_query(ACCOUNT, "hunter2", 4, group=P192,
                                          hash_params=CHEAP, rng=random.Random(45))
    payload = wire.encode_query(query)

    def refuse(*args):
        raise AssertionError("the daemon path built or validated a QueryMessage")

    monkeypatch.setattr(wire, "decode_query", refuse)
    monkeypatch.setattr(protocol, "validate_query", refuse)
    opcode, body = answer_query(store, payload)
    assert opcode == wire.OP_RESPONSE
    assert protocol.decode_result(session, wire.decode_response(body, P192)) is True


def test_seeded_audit_query_keeps_its_bytes(monkeypatch):
    monkeypatch.setattr(secrets, "token_hex", lambda n: "ab" * n)
    query, _ = Directory().build_audit_query(random.Random(33))
    digest = hashlib.sha256(wire.encode_query(query)).hexdigest()
    assert digest == PINNED_AUDIT_QUERY_DIGEST


def test_responder_error_frame_same_size_as_response(responder_server):
    from reuseguard.netnodes import tcp_request

    query, _ = protocol.build_query(ACCOUNT, "pw", 1, group=P192,
                                    hash_params=CHEAP)
    payload = bytearray(wire.encode_query(query))
    for x in range(2, 300):  # first x whose curve equation has no solution
        rhs = (x * x * x + P192.a * x + P192.b) % P192.p
        if pow(rhs, (P192.p - 1) // 2, P192.p) != 1:
            payload[-25:] = bytes([0x02]) + x.to_bytes(24, "big")
            break
    opcode, body = tcp_request(responder_server.address, wire.OP_QUERY,
                               bytes(payload), 5.0)
    ok_op, ok_body = tcp_request(responder_server.address, wire.OP_QUERY,
                                 wire.encode_query(query), 5.0)
    assert ok_op == wire.OP_RESPONSE
    assert opcode == wire.OP_ERROR
    assert len(body) == len(ok_body)


def test_responder_survives_garbage_and_wrong_opcode(responder_server):
    host, port = responder_server.server_address[:2]
    # The daemon answers after reading the 8-byte header and closes with 10
    # bytes unread, so this socket may be reset by the time the reply is
    # read: it sends nothing after the garbage.
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(b"not a frame at all")
        with sock.makefile("rb") as reader:
            _assert_padded_error(wire.read_frame(reader.read), wire.ERR_MALFORMED)
    from reuseguard.netnodes import tcp_request
    opcode, _ = tcp_request(responder_server.address, wire.OP_ACK, b"", 5.0)
    assert opcode == wire.OP_ERROR
    # still serving
    query, session = protocol.build_query(ACCOUNT, "hunter2", 5, group=P192,
                                          hash_params=CHEAP)
    transport = make_tcp_responder_transport()
    response = transport(ResponderEndpoint(responder_server.address), query, 5.0)
    assert protocol.decode_result(session, response) is True


def test_concurrent_queries_all_succeed(responder_server, monkeypatch):
    # One query served to many concurrent connections; every connection
    # must get a decodable answer.
    transport = make_tcp_responder_transport()
    query, session = protocol.build_query(ACCOUNT, "hunter2", 16, group=P192,
                                          hash_params=CHEAP)
    endpoint = ResponderEndpoint(responder_server.address)
    results = []
    errors = []

    def worker():
        try:
            results.append(transport(endpoint, query, 30.0))
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(64)]
    served = _count_served(responder_server, monkeypatch)
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 64
    assert all(protocol.decode_result(session, r) for r in results)
    assert served == [wire.OP_RESPONSE] * 64


@pytest.mark.skipif(not os.environ.get("REUSEGUARD_FULL_STRESS"),
                    reason="full-scale stress run; set REUSEGUARD_FULL_STRESS=1")
def test_concurrent_queries_full_scale(responder_server):
    transport = make_tcp_responder_transport()
    query, session = protocol.build_query(ACCOUNT, "hunter2", 1000, group=P192,
                                          hash_params=CHEAP)
    endpoint = ResponderEndpoint(responder_server.address)
    results = []
    errors = []

    def worker():
        try:
            results.append(transport(endpoint, query, 600.0))
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(64)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 64
    assert all(protocol.decode_result(session, r) for r in results)


def test_single_round_per_responder_per_run(responder_server, monkeypatch):
    d = Directory(make_tcp_responder_transport())
    d.register(ACCOUNT, ResponderEndpoint(responder_server.address))
    token = d.begin_consent(ACCOUNT)
    d.confirm_consent(token)
    served = _count_served(responder_server, monkeypatch)
    query, _ = protocol.build_query(ACCOUNT, "pw", 2, group=P192,
                                    hash_params=CHEAP)
    d.fanout(query, 1)
    assert served == [wire.OP_RESPONSE]


def test_request_is_sent_once_when_the_reply_is_lost():
    # A server that accepts and closes without replying: the client must
    # not send the (non-idempotent) request again.
    accepted = []
    listener = socket.create_server(("127.0.0.1", 0))

    def accept_and_hang_up():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            accepted.append(conn)
            conn.close()

    acceptor = threading.Thread(target=accept_and_hang_up, daemon=True)
    acceptor.start()
    client = DirectoryClient("127.0.0.1:%d" % listener.getsockname()[1],
                             TRUSTED_PROFILE, timeout=5.0, rng=random.Random(17))
    try:
        with pytest.raises(TransportError):
            client.begin_consent(ACCOUNT)
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        listener.close()
        acceptor.join(timeout=5.0)
    assert not acceptor.is_alive()
    assert len(accepted) == 1


def _timed_request(address, timeout=0.3):
    """Seconds until ``tcp_request`` raises ``TransportError``."""
    start = time.monotonic()
    with pytest.raises(TransportError):
        tcp_request(address, wire.OP_NEGOTIATE, wire.encode_text(ACCOUNT), timeout)
    return time.monotonic() - start


def test_a_request_with_no_time_left_is_a_transport_error():
    with pytest.raises(TransportError):
        tcp_request("127.0.0.1:1", wire.OP_NEGOTIATE, wire.encode_text(ACCOUNT), -0.001)


def test_request_to_a_silent_server_raises_transport_error_in_time():
    with socket.create_server(("127.0.0.1", 0)) as listener:  # never accepts
        assert _timed_request("127.0.0.1:%d" % listener.getsockname()[1]) < 1.0


def test_request_to_a_trickling_server_raises_transport_error_in_time():
    # A 12-byte reply at one byte every 0.15 s takes 1.65 s; each byte
    # arrives well inside the 0.3 s timeout, so only a deadline on the
    # whole exchange gives up within about one timeout.
    reply = wire.encode_frame(wire.OP_COUNT, wire.encode_count(4))
    stop = threading.Event()
    listener = socket.create_server(("127.0.0.1", 0))

    def trickle():
        conn, _ = listener.accept()
        with conn:
            for i in range(len(reply)):
                try:
                    conn.sendall(reply[i:i + 1])
                except OSError:
                    return
                if stop.wait(0.15):
                    return

    server = threading.Thread(target=trickle, daemon=True)
    server.start()
    try:
        assert _timed_request("127.0.0.1:%d" % listener.getsockname()[1]) < 1.0
    finally:
        stop.set()
        server.join(timeout=5.0)
        listener.close()
    assert not server.is_alive()


def _raw_query():
    query, _ = protocol.build_query(ACCOUNT, "pw", 2, group=P192, hash_params=CHEAP)
    return wire.parse_query_header(wire.encode_query(query))


def _directory_and_responder_calls(address, profile, timeout):
    """One requester call to a directory and one directory call to a
    responder, both at ``address``."""
    client = DirectoryClient(address, profile, timeout=timeout, rng=random.Random(26))
    transport = make_tcp_responder_transport(profile)
    raw = _raw_query()
    return (lambda: client.negotiate(ACCOUNT),
            lambda: transport(ResponderEndpoint(address), raw, timeout))


def test_a_call_to_a_silent_node_ends_within_its_timeout_path_delay_included():
    timeout = 0.3  # about 2.5 times the untrusted profile's median delay
    overruns = []
    with socket.create_server(("127.0.0.1", 0)) as listener:  # never accepts
        address = "127.0.0.1:%d" % listener.getsockname()[1]
        for ask in _directory_and_responder_calls(address, UNTRUSTED_PROFILE, timeout) * 5:
            start = time.monotonic()
            with pytest.raises(TransportError):
                ask()
            overruns.append(time.monotonic() - start - timeout)
    assert max(overruns) < 0.05


def test_a_path_delay_past_the_deadline_sends_nothing(monkeypatch):
    sent = []
    monkeypatch.setattr(netnodes, "draw_latency", lambda profile, rng=None: 1.0)
    monkeypatch.setattr(netnodes, "tcp_request", lambda *call: sent.append(call))
    for ask in _directory_and_responder_calls("127.0.0.1:1", UNTRUSTED_PROFILE, 0.2):
        start = time.monotonic()
        with pytest.raises(TransportError):
            ask()
        assert time.monotonic() - start < 0.2 + 0.05
    assert sent == []


@pytest.mark.parametrize("code, expected", [
    (wire.ERR_INVALID_CIPHERTEXT, InvalidCiphertextError),
    (wire.ERR_MALFORMED, FrameError),
    (wire.ERR_CONSENT_REQUIRED, ConsentRequiredError),
    (wire.ERR_INSUFFICIENT_RESPONDERS, InsufficientRespondersError),
    (wire.ERR_INTERNAL, TransportError),
    (99, TransportError),  # a code no version sends
])
def test_an_error_reply_raises_one_type_on_every_call(monkeypatch, code, expected):
    reply = wire.OP_ERROR, wire.encode_error(code, P192)
    monkeypatch.setattr(netnodes, "tcp_request", lambda *call: reply)
    for ask in _directory_and_responder_calls("127.0.0.1:1", TRUSTED_PROFILE, 1.0):
        with pytest.raises(ReuseGuardError) as info:
            ask()
        assert type(info.value) is expected


# -- full flow over sockets ----------------------------------------------------

@pytest.fixture
def small_deployment():
    servers = []
    stores = {}
    for i in range(4):
        store = ResponderStore()
        store.add(similarity.build_similar_set(ACCOUNT, "hunter2", 0, 5, CHEAP,
                                               rng_seed=i))
        server = serve_responder(store, "127.0.0.1:0")
        servers.append(server)
        stores[server.address] = store
    directory = Directory(make_tcp_responder_transport(),
                          rng=random.Random(77))
    for server in servers:
        directory.register(ACCOUNT, ResponderEndpoint(server.address))
    dserver = serve_directory(directory, "127.0.0.1:0")
    yield dserver, servers
    for server in [dserver] + servers:
        server.shutdown()
        server.server_close()


def test_set_password_rejects_reuse_and_accepts_fresh(small_deployment):
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE,
                             rng=random.Random(1))
    token = client.begin_consent(ACCOUNT)
    assert client.confirm_consent(token) == pytest.approx(60.0)
    assert client.negotiate(ACCOUNT) == 4

    reused = requester_set_password(client, "User@example.com", "hunter2",
                                    0.05, hash_params=CHEAP,
                                    rng=random.Random(2))
    assert not reused.accepted
    assert reused.detections >= 1

    fresh = requester_set_password(client, "User@example.com",
                                   "completely-different-9941", 0.05,
                                   hash_params=CHEAP, rng=random.Random(3))
    assert fresh.accepted
    assert fresh.runs == 1


def test_set_password_requires_consent(small_deployment):
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE,
                             rng=random.Random(4))
    with pytest.raises(ConsentRequiredError):
        requester_set_password(client, ACCOUNT, "whatever-pass", 0.05,
                               hash_params=CHEAP, rng=random.Random(5))


def test_decoy_policy_runs_two_or_three(small_deployment):
    dserver, servers = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE,
                             rng=random.Random(6))
    runs_seen = set()
    for seed in range(8):
        token = client.begin_consent(ACCOUNT)
        client.confirm_consent(token)
        result = requester_set_password(
            client, ACCOUNT, f"fresh-pw-{seed}", 0.015,
            DecoyPolicy(enabled=True), hash_params=CHEAP,
            rng=random.Random(seed))
        assert result.accepted
        assert result.runs in (2, 3)
        runs_seen.add(result.runs)
    assert runs_seen == {2, 3}


def test_a_seeded_flow_makes_the_same_runs_with_or_without_a_spare(small_deployment,
                                                                  monkeypatch):
    # A spare's Bloom seed comes from the system CSPRNG and decides how many
    # slots, so how many r draws, its decoy takes from the flow's rng.
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(6))
    monkeypatch.setattr(protocol, "_fill_spare", lambda *args: None)  # only planted spares

    def run(seed, shape=None):
        protocol._forget_spare()
        if shape is not None:
            protocol._spare = protocol._Spare(*shape)
        client.confirm_consent(client.begin_consent(ACCOUNT))
        result = requester_set_password(
            client, ACCOUNT, f"fresh-pw-{seed}", 0.015, DecoyPolicy(enabled=True),
            hash_params=CHEAP, rng=random.Random(seed))
        assert result.accepted and result.runs in (2, 3)
        assert shape is None or protocol._spare.taken
        return result

    try:
        for seed in range(8):
            alone = run(seed)
            k = bloom.DEFAULT_NUM_HASHES
            shape = (protocol.DEFAULT_GROUP, bloom.length_for(alone.plan.n, k), k)
            assert run(seed, shape).runs == alone.runs
    finally:
        protocol._forget_spare()


@pytest.mark.parametrize("kwargs", [
    {"min_runs": 0}, {"min_runs": -1},
    {"extra_run_probability": float("nan")}, {"extra_run_probability": 1.5},
    {"extra_run_probability": -0.1}, {"extra_run_probability": float("inf")},
], ids=["min_runs=0", "min_runs=-1", "p=nan", "p=1.5", "p=-0.1", "p=inf"])
def test_decoy_policy_refuses_values_out_of_range(kwargs):
    with pytest.raises(ValueError):
        DecoyPolicy(enabled=True, **kwargs)
    DecoyPolicy(enabled=True, min_runs=1, extra_run_probability=0.0)
    DecoyPolicy(enabled=True, min_runs=1, extra_run_probability=1.0)


@pytest.mark.parametrize("extra", [0.0, 1.0])
def test_decoy_runs_hash_nothing(small_deployment, monkeypatch, extra):
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE,
                             rng=random.Random(6))
    token = client.begin_consent(ACCOUNT)
    client.confirm_consent(token)
    hashed = []
    hash_item = similarity.bloom_item

    def counting_hash(password, *args):
        hashed.append(password)
        return hash_item(password, *args)

    monkeypatch.setattr(similarity, "bloom_item", counting_hash)
    result = requester_set_password(
        client, ACCOUNT, "fresh-pw-decoys", 0.015,
        DecoyPolicy(enabled=True, min_runs=2, extra_run_probability=extra),
        hash_params=CHEAP, rng=random.Random(3))
    assert result.accepted
    assert result.runs == (3 if extra else 2)
    assert hashed == ["fresh-pw-decoys"]


def test_decoy_replies_are_not_decrypted(small_deployment, monkeypatch):
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(6))
    client.confirm_consent(client.begin_consent(ACCOUNT))
    decrypted = []
    decode_result = protocol.decode_result
    monkeypatch.setattr(protocol, "decode_result", lambda session, response:
                        decrypted.append(session) or decode_result(session, response))
    result = requester_set_password(
        client, ACCOUNT, "fresh-pw-undecrypted", 0.015,
        DecoyPolicy(enabled=True, min_runs=2, extra_run_probability=1.0),
        hash_params=CHEAP, rng=random.Random(7))
    assert result.accepted and result.runs == 3
    assert len(decrypted) == result.responses_received >= 1
    assert len(set(map(id, decrypted))) == 1  # run 1's session alone


def test_a_decoy_uses_the_spare_an_earlier_scrypt_wait_built(small_deployment, monkeypatch):
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE,
                             rng=random.Random(6))
    client.confirm_consent(client.begin_consent(ACCOUNT))
    made = []

    class CountingSpare(protocol._Spare):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def step(self):
            self.stepped = True
            return super().step()

    hash_item = similarity.bloom_item

    def slow_hash(*args):
        time.sleep(0.3)
        return hash_item(*args)

    sent = []
    send = client.query
    monkeypatch.setattr(client, "query", lambda query, rho: sent.append(query) or send(query, rho))
    monkeypatch.setattr(protocol, "_Spare", CountingSpare)
    monkeypatch.setattr(similarity, "bloom_item", slow_hash)
    protocol._forget_spare()
    try:
        # Decoys off: a slow scrypt wait computes no spare.
        off = requester_set_password(client, ACCOUNT, "fresh-pw-no-decoys", 0.015,
                                     DecoyPolicy(enabled=False), hash_params=CHEAP,
                                     rng=random.Random(1))
        assert off.accepted and off.runs == 1
        assert made == [] and protocol._spare is None

        # Decoys on: a rejected flow's scrypt wait fills the spare ...
        policy = DecoyPolicy(enabled=True, min_runs=2, extra_run_probability=1.0)
        rejected = requester_set_password(client, ACCOUNT, "hunter2", 0.015, policy,
                                          hash_params=CHEAP, rng=random.Random(2))
        assert not rejected.accepted and rejected.runs == 1
        assert made == [protocol._spare] and made[0].stepped
        key = made[0].offline.keypair.pk

        # ... the next accepted flow's first decoy sends it, and the extra
        # decoy builds its own inline.
        monkeypatch.setattr(similarity, "bloom_item", hash_item)
        accepted = requester_set_password(client, ACCOUNT, "fresh-pw-spare", 0.015, policy,
                                          hash_params=CHEAP, rng=random.Random(3))
        assert accepted.accepted and accepted.runs == 3
        assert made[0].taken and sent[-2].pk == key
        assert len(made) == 2 and not hasattr(made[1], "stepped")
        assert len({query.pk for query in sent}) == len(sent) == 5
    finally:
        protocol._forget_spare()


def test_accepted_password_registers_endpoint(small_deployment):
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE,
                             rng=random.Random(8))
    token = client.begin_consent(ACCOUNT)
    client.confirm_consent(token)
    before = client.negotiate(ACCOUNT)
    result = requester_set_password(client, ACCOUNT, "new-site-pass-77", 0.02,
                                    hash_params=CHEAP,
                                    register_endpoint="newsite:9999",
                                    rng=random.Random(9))
    assert result.accepted
    assert client.negotiate(ACCOUNT) == before + 1
    ok, warning = client.deregister(ACCOUNT, "newsite:9999")
    assert ok and not warning
    assert client.negotiate(ACCOUNT) == before
    ok, warning = client.deregister(ACCOUNT, "newsite:9999")
    assert ok and warning


def test_directory_audit_over_wire(small_deployment):
    dserver, servers = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE,
                             rng=random.Random(10))
    assert client.audit(servers[0].address) == "honest"
    assert client.audit("127.0.0.1:1") == "inconclusive"


def test_audit_request_is_the_address_alone(small_deployment, monkeypatch):
    dserver, servers = small_deployment
    sent = []

    def recording_request(address, opcode, payload, timeout):
        if address == dserver.address:  # not the directory's own probe
            sent.append((opcode, payload))
        return tcp_request(address, opcode, payload, timeout)

    monkeypatch.setattr(netnodes, "tcp_request", recording_request)
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(13))
    assert client.audit(servers[0].address) == "honest"
    assert sent == [(wire.OP_AUDIT, wire.encode_text(servers[0].address))]


def _record_audit_builds(monkeypatch, gate=None):
    """Every audit query any directory builds from now on, in build order.
    With ``gate``, each build first calls ``gate()``."""
    built = []
    build = Directory.build_audit_query

    def recording(self, rng=None):
        if gate is not None:
            gate()
        query, keypair = build(self, rng)
        built.append(query)
        return query, keypair

    monkeypatch.setattr(Directory, "build_audit_query", recording)
    return built


def _record_queried_keys(monkeypatch):
    """The public key of every query a responder answers from now on."""
    keys = []
    answer = netnodes.answer_query

    def recording(store, payload, rng=None):
        keys.append(wire.decode_query(payload).pk)
        return answer(store, payload, rng)

    monkeypatch.setattr(netnodes, "answer_query", recording)
    return keys


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_second_audit_sends_the_query_built_after_the_first_reply(small_deployment,
                                                                  monkeypatch):
    dserver, servers = small_deployment
    built = _record_audit_builds(monkeypatch)
    keys = _record_queried_keys(monkeypatch)
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(14))
    assert client.audit(servers[0].address) == "honest"
    # The next audit is built with no audit asked for: after the first reply.
    assert _wait_until(lambda: len(built) == 2), built
    assert client.audit(servers[0].address) == "honest"
    assert keys == [built[0].pk, built[1].pk]
    assert _wait_until(lambda: len(built) == 3)  # and the third after the second


def test_audit_verdict_arrives_while_the_next_audit_is_still_building(small_deployment,
                                                                      monkeypatch):
    dserver, servers = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, timeout=5.0,
                             rng=random.Random(15))
    built = _record_audit_builds(monkeypatch)
    assert client.audit(servers[0].address) == "honest"
    assert _wait_until(lambda: len(built) == 2)  # the next audit is held
    entered, release = threading.Event(), threading.Event()

    def blocked():
        entered.set()
        release.wait(10.0)

    built = _record_audit_builds(monkeypatch, gate=blocked)
    try:
        # Every build now blocks until the verdict is in, so this audit's
        # round trip holds none.
        assert client.audit(servers[0].address) == "honest"
        assert entered.wait(5.0)  # the build after it started, and waits
        assert not built
    finally:
        release.set()
    assert _wait_until(lambda: len(built) == 1)


def test_a_prepared_audit_serves_one_audit():
    keys, lock = [], threading.Lock()
    start = threading.Barrier(4)

    def transport(endpoint, query, timeout):
        with lock:
            keys.append(query.pk.point)
        time.sleep(0.05)  # the four audits overlap
        return protocol.respond(query, similarity.SimilarSet(query.account_id, (), 0, 0),
                                random.Random(16))

    directory = Directory(transport, rng=random.Random(17))
    directory.prepare_audit()
    verdicts = []

    def audit():
        start.wait()
        verdicts.append(directory.audit_responder(ResponderEndpoint("r:1")))

    threads = [threading.Thread(target=audit) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert verdicts == [AuditVerdict.HONEST] * 4
    assert len(keys) == 4 and len(set(keys)) == 4


def test_preparing_an_audit_draws_nothing_from_the_directory_rng(monkeypatch):
    monkeypatch.setattr(secrets, "token_hex", lambda n: "ab" * n)

    def run(prepare):
        rng = random.Random(18)
        directory = Directory(lambda endpoint, query, timeout: endpoint.address, rng=rng)
        for i in range(4):
            directory.register(ACCOUNT, ResponderEndpoint(f"r:{i}"))
        if prepare:
            state = rng.getstate()
            directory.prepare_audit()
            assert rng.getstate() == state
        directory.confirm_consent(directory.begin_consent(ACCOUNT))
        replies = directory.fanout(wire.RawQuery(ACCOUNT, P192, b""), 4)
        own, _ = directory.build_audit_query()
        seeded, _ = directory.build_audit_query(random.Random(33))
        return (sorted(replies), rng.getstate(), wire.encode_query(own),
                hashlib.sha256(wire.encode_query(seeded)).hexdigest())

    prepared = run(True)
    assert prepared == run(False)
    assert prepared[3] == PINNED_AUDIT_QUERY_DIGEST


def test_a_directory_that_never_audits_builds_no_audit(small_deployment, monkeypatch):
    dserver, _ = small_deployment
    built = _record_audit_builds(monkeypatch)
    replied = []
    after_reply = dserver.after_reply

    def counting(opcode):
        after_reply(opcode)
        replied.append(opcode)

    monkeypatch.setattr(dserver, "after_reply", counting)
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(19))
    client.confirm_consent(client.begin_consent(ACCOUNT))
    result = requester_set_password(client, ACCOUNT, "completely-different-9941", 0.05,
                                    hash_params=CHEAP, register_endpoint="new:1",
                                    rng=random.Random(3))
    assert result.accepted
    assert client.deregister(ACCOUNT, "new:1")[0]
    # consent twice, negotiate, query, register, deregister
    assert _wait_until(lambda: len(replied) == 6), replied
    assert wire.OP_AUDIT not in replied
    assert built == []


def test_directory_answers_an_older_clients_requests_as_malformed(small_deployment):
    """An older client sent a transport after a register's address and an
    empty account before an audit's."""
    dserver, servers = small_deployment
    def fields(*texts):
        return b"".join(wire.encode_text(text) for text in texts)

    for opcode, payload in (
            (wire.OP_REGISTER, fields(ACCOUNT, "new:1", "tcp")),
            (wire.OP_DEREGISTER, fields(ACCOUNT, servers[0].address, "tcp")),
            (wire.OP_AUDIT, fields("", servers[0].address, "tcp"))):
        _assert_padded_error(tcp_request(dserver.address, opcode, payload, 5.0),
                             wire.ERR_MALFORMED)
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(14))
    assert client.negotiate(ACCOUNT) == 4


def test_inprocess_transport_matches_tcp_semantics():
    stores = {"here": ResponderStore()}
    stores["here"].add(similarity.build_similar_set(ACCOUNT, "pw-x", 0, 4,
                                                    CHEAP))
    transport = make_inprocess_responder_transport(stores)
    query, session = protocol.build_query(ACCOUNT, "pw-x", 4, group=P192,
                                          hash_params=CHEAP)
    response = transport(ResponderEndpoint("here"), query, 1.0)
    assert protocol.decode_result(session, response) is True
    with pytest.raises(Exception):
        transport(ResponderEndpoint("nowhere"), query, 1.0)


# -- opaque relay and byte-level failures ----------------------------------------

def _off_curve_point(group):
    """A compressed point whose x is off ``group``'s curve."""
    for x in range(2, 300):
        rhs = (x * x * x + group.a * x + group.b) % group.p
        if pow(rhs, (group.p - 1) // 2, group.p) != 1:
            return bytes([0x02]) + x.to_bytes(group.field_bytes, "big")
    raise AssertionError("no off-curve x found")


def _off_curve_payload(query):
    """The query's payload with its last point replaced by an x off its curve."""
    group = query.pk.group
    return wire.encode_query(query)[:-(group.field_bytes + 1)] + _off_curve_point(group)


def _non_utf8_account_payload():
    query, _ = protocol.build_query(ACCOUNT, "pw", 1, group=P192,
                                    hash_params=CHEAP)
    payload = wire.encode_query(query)
    account_len = int.from_bytes(payload[:2], "big")
    return wire._lp(b"\xff\xfe") + payload[2 + account_len:]


def _closed_port_address():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % sock.getsockname()[1]


def test_responder_answers_non_utf8_account_with_padded_error(responder_server):
    opcode, body = tcp_request(responder_server.address, wire.OP_QUERY,
                               _non_utf8_account_payload(), 5.0)
    assert opcode == wire.OP_ERROR
    assert wire.decode_error(body) == wire.ERR_INVALID_CIPHERTEXT
    assert len(body) == wire.response_payload_size(P192)
    # still serving
    query, session = protocol.build_query(ACCOUNT, "hunter2", 5, group=P192,
                                          hash_params=CHEAP)
    response = make_tcp_responder_transport()(
        ResponderEndpoint(responder_server.address), query, 5.0)
    assert protocol.decode_result(session, response) is True


def test_directory_answers_non_utf8_fields_with_padded_error(small_deployment):
    dserver, _ = small_deployment
    bad_register = wire._lp(b"\xff\xfe") + wire._lp(b"h:1")
    for opcode, payload in (
            (wire.OP_QUERY, wire.encode_directory_query(1, _non_utf8_account_payload())),
            (wire.OP_REGISTER, bad_register),
            (wire.OP_NEGOTIATE, wire._lp(b"\xff\xfe"))):
        got_op, body = tcp_request(dserver.address, opcode, payload, 5.0)
        assert got_op == wire.OP_ERROR
        assert len(body) == wire.response_payload_size(P192)
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(12))
    assert client.negotiate(ACCOUNT) == 4


def test_directory_rejects_off_curve_query_as_invalid_ciphertext(small_deployment):
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(13))
    client.confirm_consent(client.begin_consent(ACCOUNT))
    query, _ = protocol.build_query(ACCOUNT, "pw", 2, group=P192,
                                    hash_params=CHEAP)
    opcode, body = tcp_request(
        dserver.address, wire.OP_QUERY,
        wire.encode_directory_query(2, _off_curve_payload(query)), 5.0)
    assert opcode == wire.OP_ERROR
    assert wire.decode_error(body) == wire.ERR_INVALID_CIPHERTEXT
    assert len(body) == wire.response_payload_size(P192)


def test_responder_pads_error_to_the_query_curve(responder_server):
    query, _ = protocol.build_query(ACCOUNT, "pw", 1, group=P256,
                                    hash_params=CHEAP)
    opcode, body = tcp_request(responder_server.address, wire.OP_QUERY,
                               _off_curve_payload(query), 5.0)
    assert opcode == wire.OP_ERROR
    assert wire.decode_error(body) == wire.ERR_INVALID_CIPHERTEXT
    assert len(body) == wire.response_payload_size(P256)


def test_directory_rejects_rho_zero_as_malformed(small_deployment):
    dserver, _ = small_deployment
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(14))
    client.confirm_consent(client.begin_consent(ACCOUNT))
    query, _ = protocol.build_query(ACCOUNT, "pw", 1, group=P256,
                                    hash_params=CHEAP)
    opcode, body = tcp_request(
        dserver.address, wire.OP_QUERY,
        wire.encode_directory_query(0, wire.encode_query(query)), 5.0)
    assert opcode == wire.OP_ERROR
    assert wire.decode_error(body) == wire.ERR_MALFORMED
    assert len(body) == wire.response_payload_size(P256)


def test_directory_answers_a_rho_above_max_fanout_as_malformed():
    calls = []
    directory = Directory(lambda endpoint, query, timeout: calls.append(endpoint),
                          rng=random.Random(19))
    for i in range(MAX_FANOUT + 1):
        directory.register(ACCOUNT, ResponderEndpoint(f"stub-{i}:1"))
    directory.confirm_consent(directory.begin_consent(ACCOUNT))
    query, _ = protocol.build_query(ACCOUNT, "pw", 1, group=P256, hash_params=CHEAP)
    server = DirectoryServer(("127.0.0.1", 0), directory)
    try:
        opcode, body = server.dispatch(wire.OP_QUERY, wire.encode_directory_query(
            MAX_FANOUT + 1, wire.encode_query(query)))
    finally:
        server.server_close()
    assert opcode == wire.OP_ERROR
    assert wire.decode_error(body) == wire.ERR_MALFORMED
    assert len(body) == wire.response_payload_size(P256)
    assert calls == []


def test_directory_answers_a_query_for_a_non_email_account_as_malformed(small_deployment):
    dserver, _ = small_deployment
    query, _ = protocol.build_query("not-an-email", "pw", 1, group=P256,
                                    hash_params=CHEAP)
    opcode, body = tcp_request(
        dserver.address, wire.OP_QUERY,
        wire.encode_directory_query(2, wire.encode_query(query)), 5.0)
    assert opcode == wire.OP_ERROR
    assert wire.decode_error(body) == wire.ERR_MALFORMED
    assert len(body) == wire.response_payload_size(P256)
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(15))
    with pytest.raises(FrameError):
        client.query(query, 2)


class _UndecodableReplier(socketserver.BaseRequestHandler):
    """Answers any query with a reply of the right size that is no point."""

    def handle(self):
        with self.request.makefile("rb") as reader:
            wire.read_frame(reader.read)
        self.request.sendall(wire.encode_frame(
            wire.OP_RESPONSE, b"\x07" * wire.response_payload_size(P192)))


def test_undecodable_reply_of_right_size_is_dropped(responder_server):
    liar = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _UndecodableReplier)
    threading.Thread(target=liar.serve_forever, daemon=True).start()
    directory = Directory(make_tcp_responder_transport(), rng=random.Random(14))
    directory.register(ACCOUNT, ResponderEndpoint(responder_server.address))
    directory.register(ACCOUNT, ResponderEndpoint("127.0.0.1:%d" % liar.server_address[1]))
    dserver = serve_directory(directory, "127.0.0.1:0")
    try:
        client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(15))
        client.confirm_consent(client.begin_consent(ACCOUNT))
        query, session = protocol.build_query(ACCOUNT, "hunter2", 5, group=P192,
                                              hash_params=CHEAP)
        responses = client.query(query, 2)
        assert len(responses) == 1
        assert protocol.decode_result(session, responses[0]) is True
    finally:
        dserver.shutdown()
        dserver.server_close()
        liar.shutdown()
        liar.server_close()


def test_relay_decompresses_no_point(monkeypatch):
    reply = b"\x02" + bytes(wire.response_payload_size(P192) - 1)
    seen = []

    def stub(endpoint, query, timeout):
        seen.append(query)
        return reply

    directory = Directory(stub, rng=random.Random(16))
    for i in range(3):
        directory.register(ACCOUNT, ResponderEndpoint(f"stub-{i}:1"))
    directory.confirm_consent(directory.begin_consent(ACCOUNT))
    query, _ = protocol.build_query(ACCOUNT, "pw", 2, group=P192, hash_params=CHEAP)
    payload = wire.encode_query(query)
    calls = []
    decompress = EllipticCurveGroup.decompress
    monkeypatch.setattr(EllipticCurveGroup, "decompress",
                        lambda self, data: calls.append(data) or decompress(self, data))
    server = DirectoryServer(("127.0.0.1", 0), directory)
    try:
        opcode, body = server.dispatch(wire.OP_QUERY, wire.encode_directory_query(3, payload))
    finally:
        server.server_close()
    assert opcode == wire.OP_RESPONSES
    assert wire.decode_responses(body) == [reply] * 3
    assert calls == []
    assert [q.payload for q in seen] == [payload] * 3


def test_tcp_transport_relays_raw_bytes(responder_server):
    transport = make_tcp_responder_transport()
    query, session = protocol.build_query(ACCOUNT, "hunter2", 5, group=P192,
                                          hash_params=CHEAP)
    raw = wire.parse_query_header(wire.encode_query(query))
    reply = transport(ResponderEndpoint(responder_server.address), raw, 5.0)
    assert len(reply) == wire.response_payload_size(P192)
    assert protocol.decode_result(session, wire.decode_response(reply, P192)) is True
    with pytest.raises(InvalidCiphertextError):
        transport(ResponderEndpoint(responder_server.address),
                  wire.parse_query_header(_off_curve_payload(query)), 5.0)


def test_off_curve_query_rejected_alike_in_process_and_over_tcp(responder_server):
    query, _ = protocol.build_query(ACCOUNT, "hunter2", 5, group=P256,
                                    hash_params=CHEAP)
    bad = _off_curve_payload(query)
    opcode, body = answer_query(responder_server.store, bad)
    assert opcode == wire.OP_ERROR
    assert wire.decode_error(body) == wire.ERR_INVALID_CIPHERTEXT
    assert len(body) == wire.response_payload_size(P256)
    inprocess = make_inprocess_responder_transport({"here": responder_server.store})
    tcp = make_tcp_responder_transport()
    for transport, address in ((inprocess, "here"), (tcp, responder_server.address)):
        with pytest.raises(InvalidCiphertextError):
            transport(ResponderEndpoint(address), wire.parse_query_header(bad), 5.0)


def _lie(payload):
    """A responder's reply claiming that every query reuses a password."""
    query = wire.decode_query(payload)
    lie = protocol.ResponseMessage(elgamal.encrypt(query.pk, query.pk.group.identity))
    return wire.OP_RESPONSE, wire.encode_response(lie, query.pk.group)


@pytest.mark.parametrize("over_tcp", [False, True])
def test_flagged_liar_is_not_counted_and_the_flow_runs_on_the_rest(monkeypatch, over_tcp):
    liar, honest = ResponderStore(), ResponderStore()
    honest.add(similarity.build_similar_set(ACCOUNT, "hunter2", 0, 5, CHEAP, rng_seed=1))
    answer = netnodes.answer_query
    monkeypatch.setattr(netnodes, "answer_query", lambda store, payload, rng=None:
                        _lie(payload) if store is liar else answer(store, payload, rng))
    servers = []
    if over_tcp:
        servers = [serve_responder(store, "127.0.0.1:0") for store in (liar, honest)]
        addresses = [server.address for server in servers]
        transport = make_tcp_responder_transport()
    else:
        addresses = ["site-1", "site-2"]
        transport = make_inprocess_responder_transport(dict(zip(addresses, (liar, honest))))
    directory = Directory(transport, rng=random.Random(31))
    for address in addresses:
        directory.register(ACCOUNT, ResponderEndpoint(address))
    dserver = serve_directory(directory, "127.0.0.1:0")
    try:
        client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(32))
        assert client.audit(addresses[0]) == "lying"
        # Negotiate counts only the responders a query can reach.
        assert client.negotiate(ACCOUNT) == 1
        client.confirm_consent(client.begin_consent(ACCOUNT))
        fresh = requester_set_password(client, ACCOUNT, "fresh-pw-31", 0.05,
                                       hash_params=CHEAP, rng=random.Random(33))
        assert fresh.accepted
        assert (fresh.plan.rho, fresh.responses_received) == (1, 1)
        reused = requester_set_password(client, ACCOUNT, "hunter2", 0.05,
                                        hash_params=CHEAP, rng=random.Random(34))
        assert not reused.accepted
        assert (reused.plan.rho, reused.detections) == (1, 1)
    finally:
        for server in [dserver, *servers]:
            server.shutdown()
            server.server_close()


def test_flow_fails_closed_when_no_responder_answers():
    directory = Directory(make_tcp_responder_transport(), rng=random.Random(17))
    directory.register(ACCOUNT, ResponderEndpoint(_closed_port_address()))
    dserver = serve_directory(directory, "127.0.0.1:0")
    try:
        client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(18))
        client.confirm_consent(client.begin_consent(ACCOUNT))
        with pytest.raises(NoResponseError):
            requester_set_password(client, ACCOUNT, "hunter2", 2.0,
                                   hash_params=CHEAP,
                                   model=planner.LatencyModel(0.0, 1.0, 0.0, 0.0),
                                   rng=random.Random(19))
    finally:
        dserver.shutdown()
        dserver.server_close()


# -- malformed coordinator requests and idle connections ------------------------

def _assert_padded_error(reply, code):
    opcode, body = reply
    assert opcode == wire.OP_ERROR
    assert wire.decode_error(body) == code
    assert len(body) == wire.response_payload_size(P192)


def test_directory_answers_a_non_email_account_as_malformed(small_deployment):
    dserver, servers = small_deployment
    payload = wire.encode_register("not-an-email", servers[0].address)
    _assert_padded_error(tcp_request(dserver.address, wire.OP_REGISTER, payload, 5.0),
                         wire.ERR_MALFORMED)
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(20))
    with pytest.raises(FrameError):
        client.register("not-an-email", servers[0].address)
    assert client.negotiate(ACCOUNT) == 4


def test_directory_answers_a_truncated_register_as_malformed(small_deployment):
    dserver, servers = small_deployment
    payload = wire.encode_register(ACCOUNT, servers[0].address)[:-1]
    _assert_padded_error(tcp_request(dserver.address, wire.OP_REGISTER, payload, 5.0),
                         wire.ERR_MALFORMED)


def _idle_reply(address):
    """The reply to a connection that sends half a frame header, then nothing."""
    host, port = address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(wire.MAGIC)
        with sock.makefile("rb") as reader:
            return wire.read_frame(reader.read)


def test_idle_connection_times_out_on_the_responder(responder_server, monkeypatch):
    monkeypatch.setattr(netnodes, "IDLE_TIMEOUT_S", 0.2)
    _assert_padded_error(_idle_reply(responder_server.address), wire.ERR_MALFORMED)
    query, session = protocol.build_query(ACCOUNT, "hunter2", 5, group=P192,
                                          hash_params=CHEAP)
    response = make_tcp_responder_transport()(
        ResponderEndpoint(responder_server.address), query, 5.0)
    assert protocol.decode_result(session, response) is True


def test_idle_connection_times_out_on_the_directory(small_deployment, monkeypatch):
    dserver, _ = small_deployment
    monkeypatch.setattr(netnodes, "IDLE_TIMEOUT_S", 0.2)
    _assert_padded_error(_idle_reply(dserver.address), wire.ERR_MALFORMED)
    client = DirectoryClient(dserver.address, TRUSTED_PROFILE, rng=random.Random(21))
    assert client.negotiate(ACCOUNT) == 4


def _trickled_reply(address, frame, gap=0.15):
    """The reply to a client that sends ``frame`` one byte every ``gap``
    seconds, and the seconds it took to arrive."""
    host, port = address.rsplit(":", 1)
    stop = threading.Event()
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:

        def trickle():
            for i in range(len(frame)):
                try:
                    sock.sendall(frame[i:i + 1])
                except OSError:
                    return
                if stop.wait(gap):
                    return

        sender = threading.Thread(target=trickle)
        start = time.monotonic()
        sender.start()
        try:
            with sock.makefile("rb") as reader:
                reply = wire.read_frame(reader.read)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            sender.join(timeout=5.0)
    assert not sender.is_alive()
    return reply, elapsed


# A whole frame trickled at 0.15 s a byte takes over 3.5 s; each byte
# arrives well inside the 0.2 s timeout, so only a deadline on the whole
# frame answers within about one timeout.

def test_trickling_connection_times_out_on_the_responder(responder_server, monkeypatch):
    monkeypatch.setattr(netnodes, "IDLE_TIMEOUT_S", 0.2)
    reply, elapsed = _trickled_reply(responder_server.address,
                                     wire.encode_frame(wire.OP_QUERY, bytes(16)))
    _assert_padded_error(reply, wire.ERR_MALFORMED)
    assert elapsed < 1.0


def test_trickling_connection_times_out_on_the_directory(small_deployment, monkeypatch):
    dserver, _ = small_deployment
    monkeypatch.setattr(netnodes, "IDLE_TIMEOUT_S", 0.2)
    reply, elapsed = _trickled_reply(
        dserver.address, wire.encode_frame(wire.OP_NEGOTIATE, wire.encode_text(ACCOUNT)))
    _assert_padded_error(reply, wire.ERR_MALFORMED)
    assert elapsed < 1.0


# -- handler threads: reused, capped, stopped ------------------------------------

@pytest.fixture(params=["responder", "directory"])
def daemon(request):
    """A daemon and a check that sends it one real request and asserts the
    answer; the directory's consent window is open before the test starts."""
    if request.param == "responder":
        server = request.getfixturevalue("responder_server")
        query, session = protocol.build_query(ACCOUNT, "hunter2", 1, group=P192,
                                              hash_params=CHEAP)
        transport = make_tcp_responder_transport()

        def ask():
            response = transport(ResponderEndpoint(server.address), query, 5.0)
            assert protocol.decode_result(session, response) is True
    else:
        server, _ = request.getfixturevalue("small_deployment")
        server.directory.confirm_consent(server.directory.begin_consent(ACCOUNT))
        client = DirectoryClient(server.address, TRUSTED_PROFILE, rng=random.Random(24))
        query, session = protocol.build_query(ACCOUNT, "hunter2", 1, group=P192,
                                              hash_params=CHEAP)

        def ask():
            responses = client.query(query, 2)
            assert [protocol.decode_result(session, r) for r in responses] == [True] * 2
    return server, ask


def _wait_for_idle_handlers(server, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while server._idle != count:
        assert time.monotonic() < deadline, "handlers did not go idle"
        time.sleep(0.01)


def test_a_connection_over_the_cap_is_refused_at_once(daemon, monkeypatch):
    server, ask = daemon
    monkeypatch.setattr(netnodes, "MAX_HANDLERS", 2)
    host, port = server.server_address[:2]
    held = [socket.create_connection((host, port), timeout=5.0) for _ in range(2)]
    try:
        start = time.monotonic()
        with socket.create_connection((host, port), timeout=5.0) as sock:
            with sock.makefile("rb") as reader:
                reply = wire.read_frame(reader.read)
        assert time.monotonic() - start < 1.0 < netnodes.IDLE_TIMEOUT_S
        _assert_padded_error(reply, wire.ERR_INTERNAL)
    finally:
        for sock in held:
            sock.close()
    _wait_for_idle_handlers(server, 2)
    ask()


def test_sequential_requests_reuse_handler_threads_and_close_stops_them(daemon,
                                                                        monkeypatch):
    server, ask = daemon
    handlers = set()
    dispatch = server.dispatch

    def recording(opcode, payload):
        handlers.add(threading.current_thread())
        return dispatch(opcode, payload)

    monkeypatch.setattr(server, "dispatch", recording)
    for _ in range(20):
        ask()
    assert 1 <= len(handlers) <= 2  # not idents: the OS reuses those of ended threads
    server.shutdown()
    server.server_close()
    for thread in handlers:
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class _BusyResponder(netnodes._FrameServer):
    """Answers every query with one error code: ``ERR_INTERNAL`` as a
    responder with no free handler does, ``ERR_MALFORMED`` as one that
    cannot read the frame does."""

    code = wire.ERR_INTERNAL

    def dispatch(self, opcode, payload):
        return wire.OP_ERROR, wire.encode_error(self.code, P192)


@pytest.mark.parametrize("code", [wire.ERR_INTERNAL, wire.ERR_MALFORMED],
                         ids=["ERR_INTERNAL", "ERR_MALFORMED"])
def test_a_busy_responder_is_not_a_rejection(monkeypatch, code):
    monkeypatch.setattr(_BusyResponder, "code", code)
    busy = [_BusyResponder(("127.0.0.1", 0)).serve_in_background() for _ in range(2)]
    directory = Directory(make_tcp_responder_transport(), rng=random.Random(25))
    for server in busy:
        directory.register(ACCOUNT, ResponderEndpoint(server.address))
    directory.confirm_consent(directory.begin_consent(ACCOUNT))
    query, _ = protocol.build_query(ACCOUNT, "pw", 2, group=P192, hash_params=CHEAP)
    try:
        assert directory.fanout(wire.parse_query_header(wire.encode_query(query)), 2) == []
    finally:
        for server in busy:
            server.shutdown()
            server.server_close()
