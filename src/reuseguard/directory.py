"""The directory: account registry, consent gating, fan-out, and audits.

The directory maps canonical account identifiers to responder endpoints
and mediates every query: it forwards a query message to a sticky random
subset of the account's responders, collects their responses subject to a
per-responder timeout, and hands them back in a fresh random order so the
requester cannot tell which responder produced which answer.  It never
sees a password or anything derived from one — queries and responses pass
through as opaque ciphertext carriers.

Queries are only forwarded during a consent window that the account owner
opens by redeeming a single-use token (the stand-in for clicking a
confirmation link).  The network daemon hands ``fanout`` a ``wire.RawQuery``
(the parsed header plus the untouched payload) and relays the responders'
reply bytes; only ``account_id`` is read here.

The directory can also audit a responder by sending a query whose every
slot is a non-identity encryption under a key the directory itself holds;
any identity answer to such a query is proof of a fabricated "reused"
verdict.  The daemon builds each audit's query after answering the one
before (``prepare_audit``), so an audit waits only on the responder.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import os
import random
import secrets
import threading
import time
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from . import bloom, elgamal, protocol, similarity
from .errors import (
    ConsentRequiredError,
    ConsentTokenError,
    InsufficientRespondersError,
    InvalidCiphertextError,
    MalformedAddressError,
    StateError,
    TransportError,
)
from .groups import P192

GMAIL_DOMAINS = {"gmail.com", "googlemail.com"}
_33MAIL_SUFFIX = ".33mail.com"

DEFAULT_WINDOW_SECONDS = 60.0
TOKEN_TTL_SECONDS = 600.0  # a consent token unredeemed this long expires
TIMEOUT_PROFILES = {"trusted": 2.0, "untrusted": 8.0}
# The most responders one query asks, and the most transport calls one
# directory has in flight at once, on its one pool of reused threads.
MAX_FANOUT = 64

_AUDIT_FILTER_LENGTH = 16
_AUDIT_NUM_HASHES = 2
_SYSTEM_RNG = random.SystemRandom()


def canonicalize(email: str) -> str:
    """Collapse provider aliases so one user maps to one identifier.

    Lowercases throughout; for Gmail-style domains strips dots and any
    ``+suffix`` from the local part; for 33mail-style per-user domains
    maps every alias to the user's ``you@`` address.
    """
    email = email.strip()
    if email.count("@") != 1 or any(c.isspace() for c in email):
        raise MalformedAddressError(f"not an email address: {email!r}")
    local, domain = email.split("@")
    if not local or not domain or domain.startswith(".") or domain.endswith("."):
        raise MalformedAddressError(f"not an email address: {email!r}")
    local = local.lower()
    domain = domain.lower()
    if domain in GMAIL_DOMAINS:
        local = local.split("+", 1)[0].replace(".", "")
        if not local:
            raise MalformedAddressError(f"empty local part after aliasing: {email!r}")
    elif domain.endswith(_33MAIL_SUFFIX) and domain != _33MAIL_SUFFIX.lstrip("."):
        local = "you"
    return f"{local}@{domain}"


@dataclass(frozen=True, order=True)
class ResponderEndpoint:
    """An opaque (possibly pseudonymous) ``host:port`` address; both
    responder transports deliver by it alone."""

    address: str


@dataclass(frozen=True)
class Ack:
    ok: bool = True
    warning: Optional[str] = None


@dataclass
class ConsentState:
    account: str
    expires_at: float


@dataclass
class _Window:
    window_id: str
    expires_at: float


class AuditVerdict(enum.Enum):
    HONEST = "honest"
    LYING = "lying"
    INCONCLUSIVE = "inconclusive"


# (endpoint, query, timeout) -> reply.  A relayed ``wire.RawQuery`` gets the
# reply's bytes back; a ``protocol.QueryMessage`` (an audit) gets a
# ``protocol.ResponseMessage``.
Transport = Callable[[ResponderEndpoint, object, float], object]


class Directory:
    """In-process directory core; the network daemon wraps this.

    ``transport`` delivers one query to one endpoint within a timeout and
    returns the reply (raising ``InvalidCiphertextError`` when the
    responder rejected the query, ``TransportError`` or any other exception
    on other failures).  ``window_seconds`` must be finite and positive,
    ``early_return_fraction`` in (0, 1].

    With ``state_dir``, registry and flag changes are appended to its one
    state file, ``events.jsonl``, as ``_event_line``s.  Construction replays
    the file's complete lines (a torn last line never counted, any field but
    ``op``, ``account`` and ``address`` ignored), then swaps in a rewrite
    holding only the live state: one ``register`` line per (account,
    endpoint) and one ``flag`` line per flagged endpoint.  A line that does
    not replay, or a ``snapshot.json`` left by an older version, raises
    ``StateError``.  Queries are not logged, and ``close`` writes nothing.

    Fan-out calls run on one pool of at most ``MAX_FANOUT`` threads, each
    started only when no started one is idle and reused after.  The first
    fan-out in each process builds the pool, so a forked child never uses
    its parent's; ``close`` stops it.
    """

    def __init__(self, transport: Optional[Transport] = None, *,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 per_responder_timeout: float = TIMEOUT_PROFILES["trusted"],
                 early_return_fraction: Optional[float] = None,
                 state_dir: Optional[str] = None,
                 audit_group=P192,
                 clock: Callable[[], float] = time.time,
                 rng: Optional[random.Random] = None):
        if not (math.isfinite(window_seconds) and window_seconds > 0):
            raise ValueError(f"window of {window_seconds} s is not finite and positive")
        if not (math.isfinite(per_responder_timeout) and per_responder_timeout > 0):
            raise ValueError(f"per-responder timeout of {per_responder_timeout} s "
                             "is not finite and positive")
        if early_return_fraction is not None and not 0 < early_return_fraction <= 1:
            raise ValueError(f"early return fraction {early_return_fraction} not in (0, 1]")
        self.transport = transport
        self.window_seconds = window_seconds
        self.per_responder_timeout = per_responder_timeout
        self.early_return_fraction = early_return_fraction
        self.audit_group = audit_group
        self.clock = clock
        self._rng = rng or random.SystemRandom()
        self._lock = threading.RLock()
        self._accounts: Dict[str, Set[ResponderEndpoint]] = {}  # never empty sets
        self._tokens: Dict[str, ConsentState] = {}
        self._windows: Dict[str, _Window] = {}
        self._flagged: Set[ResponderEndpoint] = set()
        self._next_audit = None  # (query, keypair) from prepare_audit, for one audit
        self._pool = None  # fan-out threads, built by the first fan-out in a process
        self._pool_pid = None
        self._log_fh = None
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            log_path = os.path.join(state_dir, "events.jsonl")
            self._load_state(log_path)
            self._compact(log_path)
            self._log_fh = open(log_path, "a")

    # -- registry ---------------------------------------------------------

    def register(self, canonical_id: str, endpoint: ResponderEndpoint) -> Ack:
        canonical_id = canonicalize(canonical_id)
        with self._lock:
            endpoints = self._accounts.setdefault(canonical_id, set())
            already = endpoint in endpoints
            endpoints.add(endpoint)
            self._log("register", endpoint, canonical_id)
            return Ack(warning="endpoint already registered" if already else None)

    def deregister(self, canonical_id: str, endpoint: ResponderEndpoint) -> Ack:
        canonical_id = canonicalize(canonical_id)
        with self._lock:
            if not self._drop(canonical_id, endpoint):
                return Ack(warning="endpoint was not registered")
            self._log("deregister", endpoint, canonical_id)
            return Ack()

    def _drop(self, account: str, endpoint: ResponderEndpoint) -> bool:
        """Unregister; an account left with no endpoint is forgotten."""
        endpoints = self._accounts.get(account, ())
        if endpoint not in endpoints:
            return False
        endpoints.discard(endpoint)
        if not endpoints:
            del self._accounts[account]
        return True

    def _eligible(self, account: str) -> list:
        """The account's endpoints that no audit has flagged: the only ones
        a query can reach.  Callers hold ``_lock``."""
        return [ep for ep in self._accounts.get(account, ()) if ep not in self._flagged]

    def responder_count(self, canonical_id: str) -> int:
        """R_a, capped at ``MAX_FANOUT``: how many responders a query for
        this account can reach (``_eligible``)."""
        canonical_id = canonicalize(canonical_id)
        with self._lock:
            return min(MAX_FANOUT, len(self._eligible(canonical_id)))

    # -- consent ----------------------------------------------------------

    def begin_consent(self, canonical_id: str) -> str:
        """Issue a single-use token the account owner must redeem."""
        canonical_id = canonicalize(canonical_id)
        with self._lock:
            now = self.clock()
            self._drop_expired(now)
            token = secrets.token_hex(16)
            self._tokens[token] = ConsentState(canonical_id, now + TOKEN_TTL_SECONDS)
            return token

    def confirm_consent(self, token: str) -> float:
        """Redeem a token, opening a query window; returns its duration."""
        with self._lock:
            state = self._tokens.pop(token, None)  # single use
            now = self.clock()
            if state is None:
                raise ConsentTokenError("unknown or already used token")
            if now >= state.expires_at:
                raise ConsentTokenError("token expired")
            window_id = secrets.token_hex(8)
            # Re-inserted, not updated, so windows stay in expiry order.
            self._windows.pop(state.account, None)
            self._windows[state.account] = _Window(window_id, now + self.window_seconds)
            return self.window_seconds

    def _drop_expired(self, now: float) -> None:
        """Forget expired tokens and windows.

        Both tables are kept in insertion order, which is expiry order
        because every entry of a table gets the same lifetime; so the scan
        stops at the first live entry.
        """
        for table in (self._tokens, self._windows):
            while table:
                key, entry = next(iter(table.items()))
                if now < entry.expires_at:
                    break
                del table[key]

    def _open_window(self, account: str) -> _Window:
        window = self._windows.get(account)
        if window is None or self.clock() >= window.expires_at:
            raise ConsentRequiredError(
                f"no open consent window for {account!r}; query dropped"
            )
        return window

    # -- fan-out ----------------------------------------------------------

    def _plan(self, window: _Window, account: str,
              rho: int) -> Tuple[ResponderEndpoint, ...]:
        """The first rho ``_eligible`` endpoints ranked by ``sha256(window id
        | address)``, stored nowhere: each rho gets a prefix of one random
        order per window, and an endpoint flagged or deregistered mid-window
        leaves at the next query."""
        eligible = self._eligible(account)
        if rho > len(eligible):
            raise InsufficientRespondersError(
                f"{len(eligible)} responders registered, {rho} requested"
            )
        eligible.sort(key=lambda ep: hashlib.sha256(json.dumps(
            [window.window_id, ep.address]).encode()).digest())
        return tuple(eligible[:rho])

    def fanout(self, query, rho: int) -> list:
        """Ask the first rho of the window's ranking (``_plan``) at once, on
        the directory's pool; permute replies.

        ``query`` is a ``wire.RawQuery`` or a ``protocol.QueryMessage``;
        only its ``account_id`` is read, and the transport gets this very
        object.  Requires an open consent window for the query's account;
        a rho outside [1, ``MAX_FANOUT``] raises ``ValueError`` before
        anyone is asked.  Keeps the replies that arrive within the
        per-responder timeout of the fan-out's start, or the first
        early-return share of them.  The reply order is freshly and
        uniformly permuted.

        The fan-out has one deadline, its start plus the per-responder
        timeout.  A call that waits for a free thread is given only the time
        left, and one still waiting at the deadline or once this returns is
        never sent.  So a responder that never answers holds a thread for at
        most one timeout.

        Raises InvalidCiphertextError when every chosen responder rejected
        the query.  Honest responders reject an invalid query before they
        look at their index sets, so this says nothing about any of them.
        """
        if not 1 <= rho <= MAX_FANOUT:
            raise ValueError(f"rho of {rho} not in [1, {MAX_FANOUT}]")
        if self.transport is None:
            raise RuntimeError("directory has no transport configured")
        account = canonicalize(query.account_id)
        with self._lock:
            window = self._open_window(account)
            chosen = self._plan(window, account, rho)
            if self._pool_pid != os.getpid():  # a forked copy counts threads it lacks
                self._pool = futures.ThreadPoolExecutor(max_workers=MAX_FANOUT)
                self._pool_pid = os.getpid()
            pool = self._pool
        need = rho
        if self.early_return_fraction is not None:
            need = max(1, math.ceil(self.early_return_fraction * rho - 1e-9))
        deadline = time.monotonic() + self.per_responder_timeout
        responses, rejected = [], 0
        asked = [pool.submit(self._ask, ep, query, deadline) for ep in chosen]
        try:
            for fut in futures.as_completed(asked, deadline - time.monotonic()):
                try:
                    reply = fut.result()
                except InvalidCiphertextError:
                    rejected += 1
                except Exception:  # unreachable, out of time, or failed otherwise
                    pass
                else:
                    responses.append(reply)
                    if len(responses) == need:
                        break
        except futures.TimeoutError:  # the builtin TimeoutError only from 3.11
            pass
        finally:
            # Wait out no straggler, and send no call that has not started.
            for fut in asked:
                fut.cancel()  # a no-op on a call already sent
        if rejected == rho:
            raise InvalidCiphertextError("every chosen responder rejected the query")
        self._rng.shuffle(responses)
        return responses

    def _ask(self, endpoint: ResponderEndpoint, query, deadline: float):
        """One fan-out call, on a pool thread, with the time left before
        ``deadline`` (``time.monotonic``); none left raises
        ``TransportError`` and sends nothing."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TransportError("fan-out deadline passed before the call was sent")
        return self.transport(endpoint, query, remaining)

    # -- audit ------------------------------------------------------------

    def build_audit_query(self, rng=None):
        """Query whose every slot encrypts a non-identity element.

        Returns (query, keypair); any response in the identity class
        proves the responder fabricated a "reused" answer.
        """
        rng = rng or self._rng
        group = self.audit_group
        keypair = elgamal.gen(group, rng)
        params = bloom.BloomParams(
            _AUDIT_FILTER_LENGTH, _AUDIT_NUM_HASHES,
            bytes(rng.randrange(256) for _ in range(bloom.SEED_BYTES)),
        )
        slots = []
        for _ in range(params.length_ell):
            r = 0
            while r == 0:  # g^0 is the identity
                r = rng.randrange(group.order)
            slots.append((r, rng.randrange(group.order)))
        ciphertexts = tuple(elgamal.encrypt_powers(keypair.sk, slots))
        account = f"audit-{secrets.token_hex(8)}@invalid"
        query = protocol.QueryMessage(account, keypair.pk, params, ciphertexts)
        return query, keypair

    def prepare_audit(self) -> None:
        """Build the next audit's query and key pair, unless one is held.

        Draws from the system CSPRNG, never from this directory's ``rng``, so
        a seeded directory's draws do not depend on when this runs.  The
        directory daemon calls it once it has sent an audit's verdict.
        """
        with self._lock:
            if self._next_audit is not None:
                return
        built = self.build_audit_query(_SYSTEM_RNG)
        with self._lock:
            if self._next_audit is None:
                self._next_audit = built

    def audit_responder(self, endpoint: ResponderEndpoint) -> AuditVerdict:
        """Probe one responder with an all-non-identity query.

        The query is the one ``prepare_audit`` built, when one is held, and
        it serves this audit alone.  Otherwise it is built here by
        ``build_audit_query`` from this directory's ``rng``: for a
        directory's first audit, for one that finds the prebuilt query taken
        or not yet built, and for every audit when nothing calls
        ``prepare_audit``, as in process.
        """
        if self.transport is None:
            raise RuntimeError("directory has no transport configured")
        with self._lock:
            prebuilt, self._next_audit = self._next_audit, None
        query, keypair = prebuilt or self.build_audit_query()
        try:
            response = self.transport(endpoint, query, self.per_responder_timeout)
        except Exception:
            return AuditVerdict.INCONCLUSIVE
        plaintext = elgamal.decrypt(keypair.sk, response.result_ciphertext)
        if plaintext is elgamal.BOTTOM:
            return AuditVerdict.INCONCLUSIVE
        if plaintext == keypair.group.identity:
            with self._lock:
                self._flagged.add(endpoint)
                self._log("flag", endpoint)
            return AuditVerdict.LYING
        return AuditVerdict.HONEST

    @property
    def flagged(self) -> Set[ResponderEndpoint]:
        return set(self._flagged)

    # -- persistence ------------------------------------------------------

    def _log(self, op: str, endpoint: ResponderEndpoint,
             account: Optional[str] = None) -> None:
        """Append one event; callers hold ``_lock``, so lines never interleave."""
        if self._log_fh is not None:
            self._log_fh.write(_event_line(op, endpoint, account))
            self._log_fh.flush()

    def close(self) -> None:
        """Stop the fan-out pool, dropping the calls it has not started, and
        close the state file.  Returns at once: a call already sent ends when
        its transport returns."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    def _load_state(self, log_path: str) -> None:
        snapshot = os.path.join(os.path.dirname(log_path), "snapshot.json")
        if os.path.exists(snapshot):
            raise StateError(f"{snapshot} is from an older version and is not read; "
                             f"only events.jsonl holds state")
        if not os.path.exists(log_path):
            return
        with open(log_path, "rb") as fh:
            data = fh.read()
        # An event counts once its newline is on disk; a torn last line is
        # left out here and so dropped by the rewrite.
        for line in data[:data.rfind(b"\n") + 1].splitlines():
            if not line.strip():
                continue
            try:
                self._replay(json.loads(line))
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                # Bad JSON or encoding, a missing field, a value of the wrong
                # type, a nesting too deep to parse.
                raise StateError(f"{log_path} does not replay: {exc!r}") from exc

    def _replay(self, event: dict) -> None:
        op = event.get("op")
        if op not in ("register", "deregister", "flag"):
            return
        keys = ("address",) if op == "flag" else ("address", "account")
        if not all(isinstance(event[key], str) for key in keys):
            raise TypeError(f"a {op} event with a field that is not a string")
        endpoint = ResponderEndpoint(event["address"])
        if op == "flag":
            self._flagged.add(endpoint)
        elif op == "register":
            self._accounts.setdefault(event["account"], set()).add(endpoint)
        else:
            self._drop(event["account"], endpoint)

    def _compact(self, log_path: str) -> None:
        """Replace the log with the live state, written whole before the swap."""
        lines = [_event_line("register", ep, account)
                 for account, endpoints in self._accounts.items()
                 for ep in sorted(endpoints)]
        lines += [_event_line("flag", ep) for ep in sorted(self._flagged)]
        similarity.replace_file(log_path, "".join(lines).encode())


def _event_line(op: str, endpoint: ResponderEndpoint,
                account: Optional[str] = None) -> str:
    """One ``events.jsonl`` line: ``op``, ``account`` (absent for a
    ``flag``) and ``address``, nothing else."""
    event = {"op": op} if account is None else {"op": op, "account": account}
    return json.dumps(dict(event, address=endpoint.address)) + "\n"
