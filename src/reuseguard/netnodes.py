"""Network roles: responder service, directory daemon, requester client.

Transport is length-prefixed frames over TCP, one request and one reply
per connection, served on reused handler threads, at most ``MAX_HANDLERS``
per daemon; a connection that finds them all busy gets a padded
``ERR_INTERNAL`` frame at once.  Anonymity of the deployment models is
emulated, not implemented: a latency profile stands in for the relay
chain (one sub-ms hop when the directory is trusted to hide identities,
three slower hops when it is not), and the directory's response
permutation hides which responder said what.  Response frames carry no responder identifier and
query frames no requester identifier.
"""

from __future__ import annotations

import math
import queue
import random
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import bloom, elgamal, planner, protocol, similarity, wire
from .directory import Directory, ResponderEndpoint, canonicalize
from .errors import (
    ConsentRequiredError,
    ConsentTokenError,
    FrameError,
    InsufficientRespondersError,
    InvalidCiphertextError,
    MalformedAddressError,
    NoResponseError,
    TransportError,
)
from .groups import P192

_SYSTEM_RNG = random.SystemRandom()


# -- latency emulation -----------------------------------------------------

@dataclass(frozen=True)
class LatencyProfile:
    """Per-hop delay model for one deployment's transport path."""

    name: str
    hops: int
    per_hop_median_s: float
    sigma: float


TRUSTED_PROFILE = LatencyProfile("trusted", hops=1, per_hop_median_s=0.0002, sigma=0.25)
UNTRUSTED_PROFILE = LatencyProfile("untrusted", hops=3, per_hop_median_s=0.040, sigma=0.5)

PROFILES = {"trusted": TRUSTED_PROFILE, "untrusted": UNTRUSTED_PROFILE}


def draw_latency(profile: LatencyProfile, rng=None) -> float:
    """One direction's injected delay: a lognormal draw per hop."""
    rng = rng or _SYSTEM_RNG
    mu = math.log(profile.per_hop_median_s)
    return sum(rng.lognormvariate(mu, profile.sigma) for _ in range(profile.hops))


def inject_latency(profile: Optional[LatencyProfile], rng=None,
                   deadline: float = math.inf) -> float:
    """Sleep for one direction's worth of emulated path delay, but not past
    ``deadline`` (``time.monotonic``): a delay that reaches it sleeps only
    until it and raises ``TransportError``."""
    if profile is None:
        return 0.0
    delay = draw_latency(profile, rng)
    time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
    if time.monotonic() >= deadline:
        raise TransportError(f"a path delay of {delay:.3f} s reached the call's deadline")
    return delay


# -- decoys ----------------------------------------------------------------

@dataclass(frozen=True)
class DecoyPolicy:
    """Post-acceptance dummy runs that mask which run set the password.

    A decoy query is built as a real run's is (fresh key pair, seed and
    slots) but indexes a Bloom item drawn from the run's rng instead of a
    password's slow hash (``protocol.build_decoy_query``); its replies are
    not decrypted.  Run 1's scrypt wait fills the process's spare decoy, which
    only a flow's first decoy takes: it starts one small comb batch plus
    what the spare lacks after the verdict, not one whole build.  Only in
    a process that runs many flows do earlier waits complete the spare.
    The extra run builds inline.  Raises ValueError unless ``min_runs``
    is at least 1 and ``extra_run_probability`` is in [0, 1].
    """

    enabled: bool = False
    min_runs: int = 2
    extra_run_probability: float = 0.5

    def __post_init__(self):
        if self.min_runs < 1:
            raise ValueError("min_runs must be at least 1")
        if not 0.0 <= self.extra_run_probability <= 1.0:  # also refuses nan
            raise ValueError("extra_run_probability must be in [0, 1]")


# -- responder service -------------------------------------------------------

class ResponderStore:
    """Similar sets for the accounts one responder hosts, each keyed by
    the canonical account a query names."""

    def __init__(self):
        self._sets: Dict[str, similarity.SimilarSet] = {}

    def get(self, account: str) -> Optional[similarity.SimilarSet]:
        return self._sets.get(account)

    def add(self, sset: similarity.SimilarSet) -> None:
        """Raises ValueError for a set whose account is not canonical: no
        query would name it, and its digests are salted with the alias."""
        canonical = canonicalize(sset.account_id)
        if canonical != sset.account_id:
            raise ValueError(f"similar set for {sset.account_id!r}, "
                             f"not its canonical form {canonical!r}")
        self._sets[sset.account_id] = sset

    def accounts(self) -> List[str]:
        return sorted(self._sets)

    def save(self, directory: str) -> None:
        import hashlib
        import os
        os.makedirs(directory, exist_ok=True)
        for account, sset in self._sets.items():
            name = hashlib.sha256(account.encode()).hexdigest()[:24] + ".simset"
            similarity.save_similar_set(sset, os.path.join(directory, name))

    @classmethod
    def load(cls, path: str) -> "ResponderStore":
        import os
        store = cls()
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".simset"):
                    store.add(similarity.load_similar_set(os.path.join(path, name)))
        else:
            store.add(similarity.load_similar_set(path))
        return store


def answer_query(store: ResponderStore, payload: bytes, rng=None) -> Tuple[int, bytes]:
    """A responder's whole job on one query payload: the reply's opcode and body.

    One pass: J_S from the header (empty for an account the store does not
    hold), then one walk of the slot bytes into ``protocol.blinded_sum``.  A
    query that does not decode gets ``ERR_INVALID_CIPHERTEXT`` padded to the
    success size of its curve (P192 when even the header does not parse).
    """
    group = P192
    try:
        account, group, pk_bytes, params, at = wire.read_query_header(payload)
        j_s = protocol.responder_index_set(params, store.get(account))
        response = protocol.blinded_sum(elgamal.PublicKey(group, group.decompress(pk_bytes)),
                                        wire.decode_slots(group, payload, at), j_s, rng)
    except (InvalidCiphertextError, FrameError):
        return wire.OP_ERROR, wire.encode_error(wire.ERR_INVALID_CIPHERTEXT, group)
    return wire.OP_RESPONSE, wire.encode_response(response, group)


# Longest time a client has to send a whole request frame.  One that has
# not sent it by then gets a padded ERR_MALFORMED, so neither an idle
# connection nor one that trickles bytes holds a handler thread.
IDLE_TIMEOUT_S = 10.0


def _arm(sock: socket.socket, deadline: float) -> None:
    """Give ``sock`` the time left before ``deadline`` (``time.monotonic``);
    raise ``socket.timeout`` when none is left."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise socket.timeout("deadline passed")
    sock.settimeout(remaining)


def _read_frame_by(sock: socket.socket, deadline: float) -> Tuple[int, bytes]:
    """Read one frame from ``sock`` before ``deadline``.  The deadline bounds
    the whole frame, not each read, so a peer that trickles bytes times out
    like a silent one."""

    def read(n: int) -> bytes:
        _arm(sock, deadline)
        return sock.recv(min(n, 1 << 16))  # not n: a header may claim 64 MB

    return wire.read_frame(read)


# Most connections one daemon serves at once, each on its own handler
# thread.  Beyond it a connection is refused, not queued.
MAX_HANDLERS = 64


class _FrameServer(socketserver.TCPServer):
    """One frame in, one frame out per connection; subclasses define
    ``dispatch(opcode, payload) -> (opcode, payload)``.

    The serving thread hands each accepted connection to an idle handler
    thread, or starts one when none is idle and fewer than ``MAX_HANDLERS``
    run.  Otherwise it sends the connection a padded ``ERR_INTERNAL`` frame
    itself and closes it.  A handler serves one connection at a time
    (``_serve``) and then waits idle for the next.  None starts before the
    first connection, none delays the process's exit, and ``server_close``
    stops the idle ones; a busy one stops when its connection is done.
    """

    allow_reuse_address = True

    def __init__(self, listen_addr: Tuple[str, int]):
        self._lock = threading.Lock()  # set first: a failed bind calls server_close
        self._handoff = queue.SimpleQueue()  # (request, address), or (None, None): stop
        self._handlers = 0  # started, counted under _lock with _idle and _closed
        self._idle = 0
        self._closed = False
        super().__init__(listen_addr, None)  # no handler class: _serve serves

    def process_request(self, request, client_address):
        with self._lock:
            if self._idle:  # each connection put is one idle handler's
                self._idle -= 1
                self._handoff.put((request, client_address))
                return
            busy = self._handlers >= MAX_HANDLERS
            if not busy:
                self._handlers += 1
        if busy:
            try:
                request.sendall(wire.encode_frame(
                    wire.OP_ERROR, wire.encode_error(wire.ERR_INTERNAL, P192)))
            except OSError:
                pass
            self.shutdown_request(request)
        else:
            threading.Thread(target=self._serve,
                             args=(request, client_address), daemon=True).start()

    def _serve(self, request, client_address) -> None:
        """Serve ``request``, then each connection handed to this thread,
        until the server closes: the ``dispatch`` of its one frame read within
        ``IDLE_TIMEOUT_S`` (a padded ``ERR_MALFORMED`` if none is), one close,
        and only then ``after_reply`` for the frame's opcode."""
        while request is not None:
            opcode = None
            try:
                try:
                    opcode, payload = _read_frame_by(request, time.monotonic() + IDLE_TIMEOUT_S)
                except (FrameError, OSError):  # a bad frame, a timeout, a reset
                    reply = wire.OP_ERROR, wire.encode_error(wire.ERR_MALFORMED, P192)
                else:
                    reply = self.dispatch(opcode, payload)
                request.sendall(wire.encode_frame(*reply))
            except OSError:  # the peer has gone
                pass
            except Exception:  # a fault in dispatch: no reply
                self.handle_error(request, client_address)
            self.shutdown_request(request)
            try:
                if opcode is not None:
                    self.after_reply(opcode)
            except Exception:
                self.handle_error(request, client_address)
            with self._lock:
                if self._closed:
                    return
                self._idle += 1
            request, client_address = self._handoff.get()

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, 0
        for _ in range(idle):
            self._handoff.put((None, None))

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def after_reply(self, opcode: int) -> None:
        """Work for the handler thread once the reply to ``opcode`` is sent
        and its connection closed; none by default."""

    def serve_in_background(self):
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self


class ResponderServer(_FrameServer):
    def __init__(self, listen_addr: Tuple[str, int], store: ResponderStore):
        super().__init__(listen_addr)
        self.store = store

    def dispatch(self, opcode: int, payload: bytes) -> Tuple[int, bytes]:
        if opcode != wire.OP_QUERY:
            return wire.OP_ERROR, wire.encode_error(wire.ERR_MALFORMED, P192)
        return answer_query(self.store, payload)


def serve_responder(store: ResponderStore, listen_addr: str) -> ResponderServer:
    """Start a responder service in a background thread."""
    return ResponderServer(_parse_addr(listen_addr), store).serve_in_background()


def _parse_addr(addr: str) -> Tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {addr!r}")
    return host, int(port)


# -- raw request/response over TCP -----------------------------------------

def tcp_request(address: str, opcode: int, payload: bytes, timeout: float
                ) -> Tuple[int, bytes]:
    """One frame out, one back, one connection, all within ``timeout``.
    Every failure, a timeout included, is a ``TransportError``.  Never
    retried: a register, a consent request or a query sent twice is not
    one sent once."""
    if timeout <= 0:  # as a socket timeout, a negative one is a ValueError
        raise TransportError(f"no time left for a request to {address}")
    deadline = time.monotonic() + timeout
    try:
        with socket.create_connection(_parse_addr(address), timeout=timeout) as sock:
            _arm(sock, deadline)
            sock.sendall(wire.encode_frame(opcode, payload))
            return _read_frame_by(sock, deadline)
    except (OSError, FrameError) as exc:
        raise TransportError(f"request to {address} failed: {exc}") from exc


# What an error reply raises, from any node; another code raises TransportError.
_ERROR_EXCEPTIONS = {
    wire.ERR_MALFORMED: FrameError,
    wire.ERR_CONSENT_REQUIRED: ConsentRequiredError,
    wire.ERR_INSUFFICIENT_RESPONDERS: InsufficientRespondersError,
    wire.ERR_INVALID_CIPHERTEXT: InvalidCiphertextError,
}


def _exchange(send, address: str, opcode: int, payload: bytes, expect: int,
              timeout: float, profile: Optional[LatencyProfile], rng) -> bytes:
    """One call from node to node, all within ``timeout``: the emulated path
    delay, ``send(address, opcode, payload, time_left)``, the delay back, and
    the reply's body.  An error reply raises its ``_ERROR_EXCEPTIONS`` type
    (``TransportError`` for a code not there), and a reply of an opcode other
    than ``expect`` raises ``TransportError``."""
    deadline = time.monotonic() + timeout
    inject_latency(profile, rng, deadline)
    got_op, body = send(address, opcode, payload, deadline - time.monotonic())
    inject_latency(profile, rng, deadline)
    if got_op == wire.OP_ERROR:
        code = wire.decode_error(body)
        raise _ERROR_EXCEPTIONS.get(code, TransportError)(f"{address} answered error code {code}")
    if got_op != expect:
        raise TransportError(f"unexpected opcode {got_op} from {address}")
    return body


def _responder_transport(send, profile: Optional[LatencyProfile], rng):
    """Directory-side transport: each query is one ``_exchange`` by ``send``.

    A ``wire.RawQuery`` (a relayed query) goes out as its payload bytes and
    comes back as the reply's bytes, checked for size only.  A
    ``protocol.QueryMessage`` (an audit) is encoded, and its reply decoded.
    Of the error replies only ``ERR_INVALID_CIPHERTEXT`` raises
    ``InvalidCiphertextError``, the one ``Directory.fanout`` counts as a rejection.
    """

    def transport(endpoint: ResponderEndpoint, query, timeout: float):
        relay = isinstance(query, wire.RawQuery)
        group = query.group if relay else query.pk.group
        payload = query.payload if relay else wire.encode_query(query)
        body = _exchange(send, endpoint.address, wire.OP_QUERY, payload, wire.OP_RESPONSE,
                         timeout, profile, rng)
        if not relay:
            return wire.decode_response(body, group)
        if len(body) != wire.response_payload_size(group):
            raise FrameError("bad response payload size")
        return body

    return transport


def make_tcp_responder_transport(profile: Optional[LatencyProfile] = None):
    """Transport delivering queries to responder services over TCP, once each."""

    # tcp_request looked up at each call, so a patch of it applies
    return _responder_transport(lambda *call: tcp_request(*call), profile, None)


def make_inprocess_responder_transport(stores: Dict[str, ResponderStore],
                                       profile: Optional[LatencyProfile] = None,
                                       rng=None):
    """Transport answering from in-process stores keyed by endpoint address.

    Each query and reply passes through the real codecs, as over TCP.
    """

    def send(address: str, opcode: int, payload: bytes, timeout: float):
        store = stores.get(address)
        if store is None:
            raise TransportError(f"no responder at {address}")
        return answer_query(store, payload, rng)

    return _responder_transport(send, profile, rng)


# -- directory daemon --------------------------------------------------------

class DirectoryServer(_FrameServer):
    def __init__(self, listen_addr: Tuple[str, int], directory: Directory):
        super().__init__(listen_addr)
        self.directory = directory

    def dispatch(self, opcode: int, payload: bytes) -> Tuple[int, bytes]:
        """A query that does not parse is ``ERR_INVALID_CIPHERTEXT``, any
        other request that does not parse ``ERR_MALFORMED``."""
        group = P192  # until a query header names its curve
        try:
            if opcode != wire.OP_QUERY:
                return self._coordinate(opcode, payload)
            # Route on the header; query and reply bytes pass through.
            rho, query_payload = wire.decode_directory_query(payload)
            raw = wire.parse_query_header(query_payload)
            group = raw.group
            return wire.OP_RESPONSES, wire.encode_responses(
                self.directory.fanout(raw, rho))
        except (MalformedAddressError, ValueError):  # no email address, rho out of range
            code = wire.ERR_MALFORMED
        except (ConsentRequiredError, ConsentTokenError):
            code = wire.ERR_CONSENT_REQUIRED
        except InsufficientRespondersError:
            code = wire.ERR_INSUFFICIENT_RESPONDERS
        except (InvalidCiphertextError, FrameError):
            code = wire.ERR_INVALID_CIPHERTEXT if opcode == wire.OP_QUERY else wire.ERR_MALFORMED
        except Exception:
            code = wire.ERR_INTERNAL
        return wire.OP_ERROR, wire.encode_error(code, group)

    def after_reply(self, opcode: int) -> None:
        """Build the next audit once an audit's verdict is sent, so the next
        audit's round trip waits only on the responder."""
        if opcode == wire.OP_AUDIT:
            self.directory.prepare_audit()

    def _coordinate(self, opcode: int, payload: bytes) -> Tuple[int, bytes]:
        """A request other than a query.  A payload that does not decode
        raises ``FrameError``, an account that is no email address
        ``MalformedAddressError``."""
        directory = self.directory
        if opcode in (wire.OP_REGISTER, wire.OP_DEREGISTER):
            account, address = wire.decode_register(payload)
            change = directory.register if opcode == wire.OP_REGISTER else directory.deregister
            ack = change(account, ResponderEndpoint(address))
            return wire.OP_ACK, wire.encode_ack(ack.ok, ack.warning or "")
        if opcode == wire.OP_BEGIN_CONSENT:
            token = directory.begin_consent(wire.decode_text(payload))
            return wire.OP_TOKEN, wire.encode_text(token)
        if opcode == wire.OP_CONFIRM_CONSENT:
            seconds = directory.confirm_consent(wire.decode_text(payload))
            return wire.OP_WINDOW, wire.encode_window(seconds)
        if opcode == wire.OP_NEGOTIATE:
            count = directory.responder_count(wire.decode_text(payload))
            return wire.OP_COUNT, wire.encode_count(count)
        if opcode == wire.OP_AUDIT:
            address = wire.decode_text(payload)
            verdict = directory.audit_responder(ResponderEndpoint(address))
            return wire.OP_VERDICT, wire.encode_text(verdict.value)
        raise FrameError(f"unknown opcode {opcode}")


def serve_directory(directory: Directory, listen_addr: str) -> DirectoryServer:
    """Start a directory daemon in a background thread."""
    return DirectoryServer(_parse_addr(listen_addr), directory).serve_in_background()


# -- requester client --------------------------------------------------------

class DirectoryClient:
    """Blocking client for the directory's framed API."""

    def __init__(self, address: str, profile: LatencyProfile = TRUSTED_PROFILE,
                 timeout: float = 30.0, rng=None):
        self.address = address
        self.profile = profile
        self.timeout = timeout
        self.rng = rng or _SYSTEM_RNG

    def _call(self, opcode: int, payload: bytes, expect: int) -> bytes:
        return _exchange(tcp_request, self.address, opcode, payload, expect,
                         self.timeout, self.profile, self.rng)

    def register(self, account: str, address: str) -> Tuple[bool, str]:
        return wire.decode_ack(self._call(
            wire.OP_REGISTER, wire.encode_register(account, address), wire.OP_ACK))

    def deregister(self, account: str, address: str) -> Tuple[bool, str]:
        return wire.decode_ack(self._call(
            wire.OP_DEREGISTER, wire.encode_register(account, address), wire.OP_ACK))

    def begin_consent(self, account: str) -> str:
        return wire.decode_text(
            self._call(wire.OP_BEGIN_CONSENT, wire.encode_text(account),
                       wire.OP_TOKEN))

    def confirm_consent(self, token: str) -> float:
        return wire.decode_window(
            self._call(wire.OP_CONFIRM_CONSENT, wire.encode_text(token),
                       wire.OP_WINDOW))

    def negotiate(self, account: str) -> int:
        return wire.decode_count(
            self._call(wire.OP_NEGOTIATE, wire.encode_text(account),
                       wire.OP_COUNT))

    def query(self, query: protocol.QueryMessage, rho: int
              ) -> List[protocol.ResponseMessage]:
        """The decoded replies; one that does not decode is dropped."""
        payload = wire.encode_directory_query(rho, wire.encode_query(query))
        body = self._call(wire.OP_QUERY, payload, wire.OP_RESPONSES)
        responses = []
        for raw in wire.decode_responses(body):
            try:
                responses.append(wire.decode_response(raw, query.pk.group))
            except (FrameError, InvalidCiphertextError):
                continue
        return responses

    def audit(self, address: str) -> str:
        return wire.decode_text(
            self._call(wire.OP_AUDIT, wire.encode_text(address), wire.OP_VERDICT))


# -- the password-setting flow ----------------------------------------------

@dataclass(frozen=True)
class SetPasswordResult:
    accepted: bool
    detections: int
    responses_received: int
    runs: int
    plan: Optional[planner.PlanResult]


def requester_set_password(client: DirectoryClient, account: str,
                           password: str, t_goal: float,
                           policy: DecoyPolicy = DecoyPolicy(), *,
                           d: int = 0, group=protocol.DEFAULT_GROUP,
                           k: int = bloom.DEFAULT_NUM_HASHES,
                           hash_params: similarity.SlowHashParams = similarity.DEFAULT_HASH_PARAMS,
                           model: Optional[planner.LatencyModel] = None,
                           register_endpoint: Optional[str] = None,
                           rng=None) -> SetPasswordResult:
    """Run the full password-setting flow against a directory.

    Negotiates the responder count, plans (n, rho) for the response-time
    goal, queries, and rejects the password when any responder detects a
    similar one.  On acceptance, executes the decoy policy (total runs
    for the episode reach at least ``min_runs``, plus one extra run with
    the configured probability, decided by one ``rng`` draw before the
    first decoy, so a seeded ``rng`` fixes the run count) and registers
    ``register_endpoint`` for the account when given.  Only the first run
    hashes and decrypts: each decoy query indexes a Bloom item drawn from
    ``rng``.  With decoys on, the first run's scrypt wait fills the
    process's spare decoy, reject or accept, and the flow's first decoy
    takes it as far as this and earlier flows' waits built it.  Raises
    NoResponseError when a run, decoys included, collects no reply at all.
    """
    rng = rng or _SYSTEM_RNG
    canonical = canonicalize(account)
    r_a = client.negotiate(canonical)
    if r_a == 0:
        # First site for this identifier: nothing to compare against.
        if register_endpoint is not None:
            client.register(canonical, register_endpoint)
        return SetPasswordResult(True, 0, 0, 0, None)
    if model is None:
        model = planner.REFERENCE_MODELS[client.profile.name]
    plan = planner.optimize(t_goal, r_a, d, model, planner.DEFAULT_REUSE_CURVE)

    def send(query: protocol.QueryMessage) -> List[protocol.ResponseMessage]:
        responses = client.query(query, plan.rho)
        if not responses:
            # Fail closed: no reply is no verdict, not an acceptance.
            raise NoResponseError(
                f"none of the {plan.rho} chosen responders answered")
        return responses

    def decoy_run() -> None:
        send(protocol.build_decoy_query(canonical, plan.n, group=group, k=k, rng=rng)[0])

    query, session = protocol.build_query(
        canonical, password, plan.n, group=group, k=k, hash_params=hash_params, rng=rng,
        fill_spare=policy.enabled)
    responses = send(query)
    detections = sum(1 for r in responses if protocol.decode_result(session, r))
    runs = 1
    if detections:
        return SetPasswordResult(False, detections, len(responses), runs, plan)
    if policy.enabled:
        # Drawn before any decoy, whose own draws depend on the spare's seed.
        extra = rng.random() < policy.extra_run_probability
        while runs < policy.min_runs:
            decoy_run()
            runs += 1
        if extra:
            decoy_run()
            runs += 1
    if register_endpoint is not None:
        client.register(canonical, register_endpoint)
    return SetPasswordResult(True, 0, len(responses), runs, plan)
