import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from reuseguard import bloom, elgamal, protocol, similarity, wire
from reuseguard.errors import FrameError, InvalidCiphertextError
from reuseguard.groups import P160, P192

CHEAP = similarity.CHEAP_HASH_PARAMS

GOLDEN_QUERY_FRAME = bytes.fromhex(
    "504d01010000008a00066140622e636f01027a7f99d56472f619577c4e8c9b3a"
    "35e961472188000000020001001000112233445566778899aabbccddeeff027b"
    "76ff541ef363f2df13de1650bd48daa958bc5903703a8dff60ef432216343b27"
    "cca6af689d57278102b4041d8683be99f0afe01c307b1ad4c100cf2a880289bb"
    "86162be41ed63e7ef86dfa5aa77b5837a494"
)


def golden_query():
    pk = elgamal.PublicKey(P160, P160.exp_generator(7))
    params = bloom.BloomParams(2, 1, bytes.fromhex("00112233445566778899aabbccddeeff"))
    c0 = elgamal.encrypt_with_randomness(pk, P160.identity, 3)
    c1 = elgamal.encrypt_with_randomness(pk, P160.exp_generator(5), 4)
    return protocol.QueryMessage("a@b.co", pk, params, (c0, c1))


def test_golden_frame_bytes_are_stable():
    query = golden_query()
    frame = wire.encode_frame(wire.OP_QUERY, wire.encode_query(query))
    assert frame == GOLDEN_QUERY_FRAME


def test_golden_frame_decodes():
    opcode, payload = wire.read_frame(io.BytesIO(GOLDEN_QUERY_FRAME).read)
    assert opcode == wire.OP_QUERY
    assert wire.decode_query(payload) == golden_query()


def test_frame_roundtrip():
    frame = wire.encode_frame(wire.OP_ACK, b"hello")
    assert wire.read_frame(io.BytesIO(frame).read) == (wire.OP_ACK, b"hello")


def test_frame_rejects_bad_magic_version_length():
    good = wire.encode_frame(wire.OP_ACK, b"x")
    oversized = wire.HEADER.pack(wire.MAGIC, wire.VERSION, wire.OP_ACK,
                                 wire.MAX_PAYLOAD + 1)
    for bad in (b"XX" + good[2:], good[:2] + b"\x09" + good[3:], oversized,
                good[:-1], b"PM"):
        with pytest.raises(FrameError):
            wire.read_frame(io.BytesIO(bad).read)


def test_read_frame_from_stream():
    frames = [wire.encode_frame(wire.OP_ACK, b"one"),
              wire.encode_frame(wire.OP_TOKEN, b"two")]
    stream = io.BytesIO(b"".join(frames))
    assert wire.read_frame(stream.read) == (wire.OP_ACK, b"one")
    assert wire.read_frame(stream.read) == (wire.OP_TOKEN, b"two")
    with pytest.raises(FrameError):
        wire.read_frame(stream.read)


def test_read_frame_truncated_stream():
    frame = wire.encode_frame(wire.OP_ACK, b"payload")
    stream = io.BytesIO(frame[:-2])
    with pytest.raises(FrameError):
        wire.read_frame(stream.read)


def test_query_roundtrip_many_random_queries():
    rng = random.Random(42)
    for i in range(100):
        query, _ = protocol.build_query(
            f"user{i}@example.com", f"pw-{i}", 1, group=P192, k=3,
            hash_params=CHEAP, rng=rng)
        assert wire.decode_query(wire.encode_query(query)) == query


def test_query_payload_size_formula():
    rng = random.Random(1)
    for group, n in ((P192, 2), (P160, 3)):
        query, _ = protocol.build_query("a@b.com", "pw", n, group=group,
                                        hash_params=CHEAP, rng=rng)
        ell = query.bloom.length_ell
        point = group.field_bytes + 1
        expected = (2 + len("a@b.com") + 1 + point + 4 + 2 + 2 +
                    len(query.bloom.hash_family_seed) + ell * 2 * point)
        assert len(wire.encode_query(query)) == expected


def test_decode_rejects_bad_curve_id():
    payload = wire.encode_query(golden_query())
    account_len = 2 + len("a@b.co")
    bad = payload[:account_len] + b"\x77" + payload[account_len + 1:]
    with pytest.raises(FrameError):
        wire.decode_query(bad)


def test_decode_rejects_truncation_and_count_mismatch():
    payload = wire.encode_query(golden_query())
    with pytest.raises(FrameError):
        wire.decode_query(payload[:-1])
    with pytest.raises(FrameError):
        wire.decode_query(payload + b"\x00" * 42)
    with pytest.raises(FrameError):
        wire.decode_query(payload[:10])


def test_decode_rejects_off_curve_x_as_invalid_ciphertext():
    # An x with no curve solution decodes to no point at all.
    query = golden_query()
    payload = bytearray(wire.encode_query(query))
    for x in range(2, 300):
        rhs = (x * x * x + P160.a * x + P160.b) % P160.p
        if pow(rhs, (P160.p - 1) // 2, P160.p) != 1:
            payload[-21:] = bytes([0x02]) + x.to_bytes(20, "big")
            break
    with pytest.raises(InvalidCiphertextError):
        wire.decode_query(bytes(payload))


def test_response_roundtrip_and_padding_parity():
    rng = random.Random(3)
    kp = elgamal.gen(P192, rng)
    response = protocol.ResponseMessage(
        elgamal.encrypt(kp.pk, P192.random_element(rng), rng))
    encoded = wire.encode_response(response, P192)
    assert wire.decode_response(encoded, P192) == response
    error = wire.encode_error(wire.ERR_INVALID_CIPHERTEXT, P192)
    assert len(error) == len(encoded)
    assert wire.decode_error(error) == wire.ERR_INVALID_CIPHERTEXT


def test_response_decode_rejects_bad_size():
    with pytest.raises(FrameError):
        wire.decode_response(b"\x00" * 10, P192)


def test_query_schema_has_no_requester_identifier():
    # Every payload byte is accounted for by the public fields; there is
    # no slot that could carry a requester identity.
    query = golden_query()
    group = query.pk.group
    payload = wire.encode_query(query)
    cursor = 0
    account = query.account_id.encode()
    assert payload[cursor:cursor + 2 + len(account)] == \
        len(account).to_bytes(2, "big") + account
    cursor += 2 + len(account)
    assert payload[cursor] == wire.CURVE_IDS[group.name]
    cursor += 1
    assert payload[cursor:cursor + 21] == group.compress(query.pk.point)
    cursor += 21
    assert int.from_bytes(payload[cursor:cursor + 4], "big") == 2
    cursor += 4
    assert int.from_bytes(payload[cursor:cursor + 2], "big") == 1
    cursor += 2
    seed = query.bloom.hash_family_seed
    assert payload[cursor:cursor + 2 + len(seed)] == \
        len(seed).to_bytes(2, "big") + seed
    cursor += 2 + len(seed)
    for c in query.ciphertexts:
        assert payload[cursor:cursor + 21] == group.compress(c.ephemeral)
        cursor += 21
        assert payload[cursor:cursor + 21] == group.compress(c.body)
        cursor += 21
    assert cursor == len(payload)


def test_response_schema_is_exactly_one_ciphertext():
    rng = random.Random(5)
    kp = elgamal.gen(P160, rng)
    c = elgamal.encrypt(kp.pk, P160.random_element(rng), rng)
    encoded = wire.encode_response(protocol.ResponseMessage(c), P160)
    assert encoded == P160.compress(c.ephemeral) + P160.compress(c.body)


@settings(max_examples=100)
@given(st.text(max_size=40), st.text(max_size=40))
def test_register_payload_roundtrip(account, address):
    payload = wire.encode_register(account, address)
    assert payload == wire.encode_text(account) + wire.encode_text(address)
    assert wire.decode_register(payload) == (account, address)


@settings(max_examples=50)
@given(st.booleans(), st.text(max_size=60))
def test_ack_roundtrip(ok, warning):
    assert wire.decode_ack(wire.encode_ack(ok, warning)) == (ok, warning)


def test_misc_payload_roundtrips():
    assert wire.decode_text(wire.encode_text("tok")) == "tok"
    assert wire.decode_window(wire.encode_window(60.0)) == 60.0
    assert wire.decode_count(wire.encode_count(26)) == 26
    rho, rest = wire.decode_directory_query(
        wire.encode_directory_query(7, b"querybytes"))
    assert (rho, rest) == (7, b"querybytes")
    blobs = [b"a" * 50, b"b" * 50, b""]
    assert wire.decode_responses(wire.encode_responses(blobs)) == blobs


def test_trailing_bytes_rejected():
    payload = wire.encode_text("a@b.com") + b"\x00"
    with pytest.raises(FrameError):
        wire.decode_text(payload)


# -- header parse and relay view ------------------------------------------------

def _with_account(payload: bytes, account: bytes) -> bytes:
    """The same query payload with its account field replaced."""
    old_len = int.from_bytes(payload[:2], "big")
    return len(account).to_bytes(2, "big") + account + payload[2 + old_len:]


def test_header_parse_reads_routing_fields_only():
    payload = wire.encode_query(golden_query())
    raw = wire.parse_query_header(payload)
    assert raw == wire.RawQuery("a@b.co", P160, payload)


def test_header_parse_checks_exact_length():
    payload = wire.encode_query(golden_query())
    for bad in (payload[:-1], payload + b"\x00", payload[:10], b""):
        with pytest.raises(FrameError):
            wire.parse_query_header(bad)


def test_non_utf8_text_is_a_frame_error():
    bad = b"\xff\xfe"
    query_payload = _with_account(wire.encode_query(golden_query()), bad)
    for decode, payload in (
            (wire.parse_query_header, query_payload),
            (wire.decode_query, query_payload),
            (wire.decode_register, wire._lp(bad) + wire._lp(b"h:1")),
            (wire.decode_register, wire._lp(b"a@b.co") + wire._lp(bad)),
            (wire.decode_text, wire._lp(bad)),
            (wire.decode_ack, b"\x01" + wire._lp(bad))):
        with pytest.raises(FrameError):
            decode(payload)


def _small_query(group, account, ell, k, scalars):
    pk = elgamal.PublicKey(group, group.exp_generator(scalars[0]))
    params = bloom.BloomParams(ell, k, bytes(range(16)))
    slots = tuple(elgamal.encrypt_with_randomness(pk, group.identity, x)
                  for x in scalars[1:ell + 1])
    return protocol.QueryMessage(account, pk, params, slots)


@st.composite
def query_payloads(draw):
    group = draw(st.sampled_from([P160, P192]))
    ell = draw(st.integers(1, 3))
    k = draw(st.integers(1, ell))
    scalars = draw(st.lists(st.integers(1, group.order - 1),
                            min_size=ell + 1, max_size=ell + 1))
    account = draw(st.text(max_size=20))
    return wire.encode_query(_small_query(group, account, ell, k, scalars))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    query_payloads().flatmap(lambda p: st.tuples(
        st.just(p), st.integers(0, len(p) - 1), st.integers(0, 255))).map(
            lambda t: t[0][:t[1]] + bytes([t[2]]) + t[0][t[1] + 1:]),
    query_payloads().flatmap(lambda p: st.integers(0, len(p)).map(lambda n: p[:n]))))
def test_header_parse_returns_value_or_frame_error(payload):
    try:
        raw = wire.parse_query_header(payload)
    except FrameError:
        return
    assert isinstance(raw, wire.RawQuery)
    assert raw.payload == payload


@settings(max_examples=40, deadline=None)
@given(query_payloads())
def test_header_parse_agrees_with_full_decode(payload):
    raw = wire.parse_query_header(payload)
    query = wire.decode_query(payload)
    assert raw.account_id == query.account_id
    assert raw.group is query.pk.group
