"""Binary framing and payload codecs for every message on the network.

Frame layout (big-endian throughout):

    magic (2) | version (1) | opcode (1) | payload_len (4) | payload

Query payload, a header followed by the slots:

    account (2-byte len + UTF-8) | curve id (1) | pk point (compressed) |
    filter length (4) | hash count (2) | seed (2-byte len + bytes) |
    filter-length ciphertexts, each two compressed points

A compressed point is one parity byte (0x02 even / 0x03 odd / 0x00 for
the identity) followed by the big-endian x coordinate at field size.

Query decoding is split in two.  ``read_query_header`` reads the header,
checks that the payload is exactly as long as the header says, and
decompresses no point: the directory routes on its ``RawQuery`` view
(``parse_query_header``) and relays the payload bytes unchanged.  A
responder walks the slots once (``decode_slots``); ``decode_query``
collects that walk into a ``QueryMessage``.  A response payload is one
ciphertext, so the directory relays it after a size check against
``response_payload_size`` and only the requester decodes it.

Every decoder raises ``FrameError`` on bytes that do not parse (including
text fields that are not UTF-8) and ``NotOnCurveError``, an
``InvalidCiphertextError``, on a point not on the curve.  ``encode_error``
pads an error payload to the exact size of a success response payload on
the given curve, so a failure is not distinguishable by length.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, NamedTuple, Tuple

from . import bloom, elgamal, protocol
from .errors import FrameError
from .groups import CURVES

MAGIC = b"PM"
VERSION = 1
HEADER = struct.Struct(">2sBBI")

MAX_PAYLOAD = 64 * 1024 * 1024

OP_QUERY = 0x01
OP_RESPONSE = 0x02
OP_ERROR = 0x03
OP_REGISTER = 0x04
OP_DEREGISTER = 0x05
OP_BEGIN_CONSENT = 0x06
OP_CONFIRM_CONSENT = 0x07
OP_NEGOTIATE = 0x08
OP_AUDIT = 0x09
OP_ACK = 0x0A
OP_TOKEN = 0x0B
OP_WINDOW = 0x0C
OP_COUNT = 0x0D
OP_RESPONSES = 0x0E
OP_VERDICT = 0x0F

ERR_INVALID_CIPHERTEXT = 1
ERR_MALFORMED = 2
ERR_CONSENT_REQUIRED = 3
ERR_INSUFFICIENT_RESPONDERS = 4
ERR_INTERNAL = 5

CURVE_IDS = {"P160": 1, "P192": 2, "P224": 3, "P256": 4}
CURVES_BY_ID = {cid: CURVES[name] for name, cid in CURVE_IDS.items()}


def encode_frame(opcode: int, payload: bytes) -> bytes:
    return HEADER.pack(MAGIC, VERSION, opcode, len(payload)) + payload


def read_frame(read) -> Tuple[int, bytes]:
    """Read one frame from a ``read(n) -> bytes`` callable (e.g. a socket
    file)."""
    header = _read_exact(read, HEADER.size)
    magic, version, opcode, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError("bad magic")
    if version != VERSION:
        raise FrameError(f"unknown version {version}")
    if length > MAX_PAYLOAD:
        raise FrameError("payload too large")
    return opcode, _read_exact(read, length)


def _read_exact(read, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = read(remaining)
        if not chunk:
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _lp(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise FrameError("length-prefixed field too long")
    return struct.pack(">H", len(data)) + data


class _Cursor:
    __slots__ = ("data", "off")

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FrameError("truncated payload")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def lp(self) -> bytes:
        (n,) = struct.unpack(">H", self.take(2))
        return self.take(n)

    def text(self) -> str:
        try:
            return self.lp().decode()
        except UnicodeDecodeError as exc:
            raise FrameError("text field is not UTF-8") from exc

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def done(self) -> None:
        if self.off != len(self.data):
            raise FrameError("trailing bytes in payload")


def curve_id_for(group) -> int:
    try:
        return CURVE_IDS[group.name]
    except KeyError:
        raise FrameError(f"group {group.name} has no wire id") from None


def encode_query(query: protocol.QueryMessage) -> bytes:
    group = query.pk.group
    parts = [
        _lp(query.account_id.encode()),
        bytes([curve_id_for(group)]),
        group.compress(query.pk.point),
        struct.pack(">IH", query.bloom.length_ell, query.bloom.num_hashes_k),
        _lp(query.bloom.hash_family_seed),
    ]
    for c in query.ciphertexts:
        parts.append(group.compress(c.ephemeral))
        parts.append(group.compress(c.body))
    return b"".join(parts)


class RawQuery(NamedTuple):
    """A query as the directory relays it: routing header plus the bytes."""

    account_id: str
    group: object
    payload: bytes


def read_query_header(payload: bytes):
    """(account, group, pk bytes, Bloom params, offset of the first slot);
    no point is decoded.  Raises FrameError unless the slots exactly fill
    the rest of the payload."""
    cur = _Cursor(payload)
    account = cur.text()
    curve_id = cur.u8()
    group = CURVES_BY_ID.get(curve_id)
    if group is None:
        raise FrameError(f"bad curve id {curve_id}")
    point_len = group.field_bytes + 1
    pk_bytes = cur.take(point_len)
    ell = cur.u32()
    k = cur.u16()
    seed = cur.lp()
    if len(payload) - cur.off != ell * 2 * point_len:
        raise FrameError("ciphertext count does not match filter length")
    try:
        params = bloom.BloomParams(ell, k, seed)
    except ValueError as exc:
        raise FrameError(str(exc)) from exc
    return account, group, pk_bytes, params, cur.off


def parse_query_header(payload: bytes) -> RawQuery:
    """The routing view of a query payload; no point is decoded."""
    account, group, _, _, _ = read_query_header(payload)
    return RawQuery(account, group, payload)


def decode_slots(group, payload: bytes, start: int = 0) -> Iterator[elgamal.Ciphertext]:
    """Each ciphertext from offset ``start`` on, its two points decoded and
    validated by ``group.decompress`` as it is read."""
    n = group.field_bytes + 1
    for at in range(start, len(payload), 2 * n):
        yield elgamal.Ciphertext(group.decompress(payload[at:at + n]),
                                 group.decompress(payload[at + n:at + 2 * n]))


def decode_query(payload: bytes) -> protocol.QueryMessage:
    account, group, pk_bytes, params, at = read_query_header(payload)
    return protocol.QueryMessage(account, elgamal.PublicKey(group, group.decompress(pk_bytes)),
                                 params, tuple(decode_slots(group, payload, at)))


def response_payload_size(group) -> int:
    return 2 * (group.field_bytes + 1)


def encode_response(response: protocol.ResponseMessage, group) -> bytes:
    c = response.result_ciphertext
    return group.compress(c.ephemeral) + group.compress(c.body)


def decode_response(payload: bytes, group) -> protocol.ResponseMessage:
    if len(payload) != response_payload_size(group):
        raise FrameError("bad response payload size")
    return protocol.ResponseMessage(next(decode_slots(group, payload)))


def encode_error(code: int, group) -> bytes:
    """Error payload padded to the size of a success response on ``group``."""
    return bytes([code]) + bytes(response_payload_size(group) - 1)


def decode_error(payload: bytes) -> int:
    if not payload:
        raise FrameError("empty error payload")
    return payload[0]


# Coordinator API payloads ------------------------------------------------

def encode_register(account: str, address: str) -> bytes:
    return _lp(account.encode()) + _lp(address.encode())


def decode_register(payload: bytes) -> Tuple[str, str]:
    cur = _Cursor(payload)
    out = (cur.text(), cur.text())
    cur.done()
    return out


def encode_text(text: str) -> bytes:
    """One text field: an account, a consent token, an audited address or a verdict."""
    return _lp(text.encode())


def decode_text(payload: bytes) -> str:
    cur = _Cursor(payload)
    text = cur.text()
    cur.done()
    return text


def encode_window(seconds: float) -> bytes:
    return struct.pack(">d", seconds)


def decode_window(payload: bytes) -> float:
    if len(payload) != 8:
        raise FrameError("bad window payload")
    return struct.unpack(">d", payload)[0]


def encode_count(count: int) -> bytes:
    return struct.pack(">I", count)


def decode_count(payload: bytes) -> int:
    if len(payload) != 4:
        raise FrameError("bad count payload")
    return struct.unpack(">I", payload)[0]


def encode_ack(ok: bool, warning: str = "") -> bytes:
    return bytes([1 if ok else 0]) + _lp(warning.encode())


def decode_ack(payload: bytes) -> Tuple[bool, str]:
    cur = _Cursor(payload)
    ok = cur.u8() == 1
    warning = cur.text()
    cur.done()
    return ok, warning


def encode_directory_query(rho: int, query_payload: bytes) -> bytes:
    return struct.pack(">H", rho) + query_payload


def decode_directory_query(payload: bytes) -> Tuple[int, bytes]:
    if len(payload) < 2:
        raise FrameError("truncated payload")
    return struct.unpack(">H", payload[:2])[0], payload[2:]


def encode_responses(responses: List[bytes]) -> bytes:
    parts = [struct.pack(">H", len(responses))]
    for r in responses:
        parts.append(_lp(r))
    return b"".join(parts)


def decode_responses(payload: bytes) -> List[bytes]:
    cur = _Cursor(payload)
    count = cur.u16()
    out = [cur.lp() for _ in range(count)]
    cur.done()
    return out

