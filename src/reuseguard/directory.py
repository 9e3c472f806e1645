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
verdict.
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
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from . import bloom, elgamal, protocol
from .errors import (
    ConsentRequiredError,
    ConsentTokenError,
    InsufficientRespondersError,
    InvalidCiphertextError,
    MalformedAddressError,
    StateError,
)
from .groups import P192

GMAIL_DOMAINS = {"gmail.com", "googlemail.com"}
_33MAIL_SUFFIX = ".33mail.com"

DEFAULT_WINDOW_SECONDS = 60.0
DEFAULT_TOKEN_TTL_SECONDS = 600.0
TIMEOUT_PROFILES = {"trusted": 2.0, "untrusted": 8.0}
MAX_WORKERS = 8  # responders queried at once by one fan-out

_AUDIT_FILTER_LENGTH = 16
_AUDIT_NUM_HASHES = 2


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


@dataclass(frozen=True)
class ResponderEndpoint:
    """Opaque (possibly pseudonymous) address plus a transport hint."""

    address: str
    transport: str = "tcp"


@dataclass
class AccountRecord:
    canonical_id: str
    endpoints: Set[ResponderEndpoint] = field(default_factory=set)
    created: float = 0.0
    updated: float = 0.0


@dataclass(frozen=True)
class Ack:
    ok: bool = True
    warning: Optional[str] = None


@dataclass
class ConsentState:
    token: str
    account: str
    expires_at: float
    window: float


@dataclass
class _Window:
    account: str
    window_id: str
    expires_at: float
    plans: Dict[int, "FanoutPlan"] = field(default_factory=dict)


@dataclass(frozen=True)
class FanoutPlan:
    account: str
    chosen: Tuple[ResponderEndpoint, ...]
    sticky_key: str


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
    responder rejected the query, ``TimeoutError`` or any other exception
    on other failures).  Registry and flag changes are appended to a
    JSON-lines log under ``state_dir`` when given, with a snapshot
    swapped in on ``close``; both are replayed on startup, dropping a
    torn last log line.  Any other line or snapshot that does not replay
    raises ``StateError``.  Queries are not logged.
    """

    def __init__(self, transport: Optional[Transport] = None, *,
                 window_seconds: float = DEFAULT_WINDOW_SECONDS,
                 token_ttl: float = DEFAULT_TOKEN_TTL_SECONDS,
                 per_responder_timeout: float = TIMEOUT_PROFILES["trusted"],
                 early_return_fraction: Optional[float] = None,
                 state_dir: Optional[str] = None,
                 audit_group=P192,
                 clock: Callable[[], float] = time.time,
                 rng: Optional[random.Random] = None):
        self.transport = transport
        self.window_seconds = window_seconds
        self.token_ttl = token_ttl
        self.per_responder_timeout = per_responder_timeout
        self.early_return_fraction = early_return_fraction
        self.audit_group = audit_group
        self.clock = clock
        self._rng = rng or random.SystemRandom()
        self._lock = threading.RLock()
        self._accounts: Dict[str, AccountRecord] = {}
        self._tokens: Dict[str, ConsentState] = {}
        self._windows: Dict[str, _Window] = {}
        self._flagged: Set[ResponderEndpoint] = set()
        self._state_dir = state_dir
        self._log_fh = None
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            try:
                self._load_state()
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                # Bad JSON or encoding, a missing field, a value of the wrong type.
                raise StateError(f"state in {state_dir} does not replay: {exc!r}") from exc
            self._log_fh = open(os.path.join(state_dir, "events.jsonl"), "a")

    # -- registry ---------------------------------------------------------

    def register(self, canonical_id: str, endpoint: ResponderEndpoint) -> Ack:
        canonical_id = canonicalize(canonical_id)
        with self._lock:
            now = self.clock()
            record = self._accounts.get(canonical_id)
            if record is None:
                record = AccountRecord(canonical_id, set(), now, now)
                self._accounts[canonical_id] = record
            already = endpoint in record.endpoints
            record.endpoints.add(endpoint)
            record.updated = now
            self._log({"op": "register", "account": canonical_id,
                       "address": endpoint.address, "transport": endpoint.transport})
            return Ack(warning="endpoint already registered" if already else None)

    def deregister(self, canonical_id: str, endpoint: ResponderEndpoint) -> Ack:
        canonical_id = canonicalize(canonical_id)
        with self._lock:
            record = self._accounts.get(canonical_id)
            if record is None or endpoint not in record.endpoints:
                return Ack(warning="endpoint was not registered")
            record.endpoints.discard(endpoint)
            record.updated = self.clock()
            self._log({"op": "deregister", "account": canonical_id,
                       "address": endpoint.address, "transport": endpoint.transport})
            return Ack()

    def responder_count(self, canonical_id: str) -> int:
        """R_a: how many responders hold an account for this identifier."""
        canonical_id = canonicalize(canonical_id)
        with self._lock:
            record = self._accounts.get(canonical_id)
            return len(record.endpoints) if record else 0

    # -- consent ----------------------------------------------------------

    def begin_consent(self, canonical_id: str) -> str:
        """Issue a single-use token the account owner must redeem."""
        canonical_id = canonicalize(canonical_id)
        with self._lock:
            now = self.clock()
            self._drop_expired(now)
            token = secrets.token_hex(16)
            self._tokens[token] = ConsentState(
                token, canonical_id, now + self.token_ttl, self.window_seconds,
            )
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
            self._windows[state.account] = _Window(
                state.account, window_id, now + state.window
            )
            return state.window

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

    def _plan(self, window: _Window, account: str, rho: int) -> FanoutPlan:
        record = self._accounts.get(account)
        eligible = sorted(
            (ep for ep in (record.endpoints if record else ())
             if ep not in self._flagged),
            key=lambda ep: (ep.address, ep.transport),
        )
        if rho > len(eligible):
            raise InsufficientRespondersError(
                f"{len(eligible)} responders registered, {rho} requested"
            )
        plan = window.plans.get(rho)
        if plan is None:
            sticky_key = hashlib.sha256(
                f"{account}|{window.window_id}|{rho}".encode()
            ).hexdigest()
            picker = random.Random(int(sticky_key, 16))
            chosen = tuple(picker.sample(eligible, rho))
            plan = FanoutPlan(account, chosen, sticky_key)
            window.plans[rho] = plan
        return plan

    def fanout(self, query, rho: int) -> list:
        """Forward a query to rho sticky-chosen responders; permute replies.

        ``query`` is a ``wire.RawQuery`` or a ``protocol.QueryMessage``;
        only its ``account_id`` is read, and it goes to the transport as
        is.  Requires an open consent window for the query's account.  Each
        responder gets the per-responder timeout; when an early-return
        fraction is configured, returns as soon as that share of replies
        arrived.  The reply order is freshly and uniformly permuted.

        Raises InvalidCiphertextError when every chosen responder rejected
        the query.  Honest responders reject an invalid query before they
        look at their index sets, so this says nothing about any of them.
        """
        if self.transport is None:
            raise RuntimeError("directory has no transport configured")
        account = canonicalize(query.account_id)
        with self._lock:
            window = self._open_window(account)
            plan = self._plan(window, account, rho)
        responses, rejected = self._collect(plan.chosen, query)
        if rejected and rejected == len(plan.chosen):
            raise InvalidCiphertextError("every chosen responder rejected the query")
        self._rng.shuffle(responses)
        return responses

    def _collect(self, endpoints, query) -> Tuple[list, int]:
        """At most ``need`` replies that arrived in time, and how many
        responders rejected the query."""
        need = len(endpoints)
        if self.early_return_fraction is not None:
            need = max(1, math.ceil(self.early_return_fraction * len(endpoints) - 1e-9))
        timeout = self.per_responder_timeout
        out = []
        rejected = 0
        pool = ThreadPoolExecutor(max_workers=min(MAX_WORKERS, len(endpoints)))
        try:
            pending = {pool.submit(self.transport, ep, query, timeout)
                       for ep in endpoints}
            deadline = time.monotonic() + timeout
            while pending and len(out) < need:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                done, pending = wait(pending, timeout=remaining,
                                     return_when=FIRST_COMPLETED)
                for fut in done:
                    try:
                        out.append(fut.result())
                    except InvalidCiphertextError:
                        rejected += 1
                    except Exception:
                        continue
        finally:
            # Do not wait out stragglers: early return is the whole point.
            pool.shutdown(wait=False, cancel_futures=True)
        return out[:need], rejected

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

    def audit_responder(self, endpoint: ResponderEndpoint,
                        rng=None) -> AuditVerdict:
        """Probe one responder with an all-non-identity query."""
        if self.transport is None:
            raise RuntimeError("directory has no transport configured")
        query, keypair = self.build_audit_query(rng)
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
            self._log({"op": "flag", "address": endpoint.address,
                       "transport": endpoint.transport})
            return AuditVerdict.LYING
        return AuditVerdict.HONEST

    @property
    def flagged(self) -> Set[ResponderEndpoint]:
        return set(self._flagged)

    # -- persistence ------------------------------------------------------

    def _log(self, event: dict) -> None:
        if self._log_fh is not None:
            event = dict(event, ts=self.clock())
            self._log_fh.write(json.dumps(event) + "\n")
            self._log_fh.flush()

    def _snapshot_payload(self) -> dict:
        return {
            "accounts": {
                account: sorted(
                    [ep.address, ep.transport] for ep in record.endpoints
                )
                for account, record in self._accounts.items()
            },
            "flagged": sorted(
                [ep.address, ep.transport] for ep in self._flagged
            ),
        }

    def close(self) -> None:
        if self._state_dir is None:
            return
        snap_path = os.path.join(self._state_dir, "snapshot.json")
        try:
            # A crash leaves either the old snapshot or the new one, never half.
            with open(snap_path + ".tmp", "w") as fh:
                json.dump(self._snapshot_payload(), fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(snap_path + ".tmp", snap_path)
        finally:
            if self._log_fh is not None:
                self._log_fh.close()
                self._log_fh = None
        # The log is folded into the snapshot; start the next run clean.
        open(os.path.join(self._state_dir, "events.jsonl"), "w").close()

    def _load_state(self) -> None:
        snap_path = os.path.join(self._state_dir, "snapshot.json")
        if os.path.exists(snap_path):
            with open(snap_path) as fh:
                snap = json.load(fh)
            for account, endpoints in snap.get("accounts", {}).items():
                record = AccountRecord(account, set(), self.clock(), self.clock())
                for address, transport in endpoints:
                    record.endpoints.add(ResponderEndpoint(address, transport))
                self._accounts[account] = record
            for address, transport in snap.get("flagged", []):
                self._flagged.add(ResponderEndpoint(address, transport))
        log_path = os.path.join(self._state_dir, "events.jsonl")
        if os.path.exists(log_path):
            with open(log_path, "rb+") as fh:
                data = fh.read()
                # An event counts once its newline is on disk.  Cut a torn
                # last line, so the next event does not land on its tail.
                complete = data.rfind(b"\n") + 1
                if complete < len(data):
                    fh.truncate(complete)
            for line in data[:complete].splitlines():
                if line.strip():
                    self._replay(json.loads(line))

    def _replay(self, event: dict) -> None:
        op = event.get("op")
        if op == "register":
            ep = ResponderEndpoint(event["address"], event["transport"])
            record = self._accounts.setdefault(
                event["account"],
                AccountRecord(event["account"], set(), event["ts"], event["ts"]),
            )
            record.endpoints.add(ep)
        elif op == "deregister":
            record = self._accounts.get(event["account"])
            if record is not None:
                record.endpoints.discard(
                    ResponderEndpoint(event["address"], event["transport"])
                )
        elif op == "flag":
            self._flagged.add(
                ResponderEndpoint(event["address"], event["transport"])
            )
