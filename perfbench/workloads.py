"""The three workloads: how each sets up, what one round does, what it checks.

Every operation returns True when the program's output matches what the
benchmark knows on its own (a stored password is in every responder's
Bloom filter; a planted verdict decrypts back; a control reply has its
configured value), and raises when the program fails to answer.

Each workload has two operation classes, reported as ``primary`` and
``secondary``:

    signup   stored-candidate flow (rejected)  fresh-candidate flow (accepted)
    relay    query planted "similar"           query planted "not similar"
    control  control op (small frame)          responder audit
"""

from __future__ import annotations

import math
import os
import random
import string
from dataclasses import dataclass

from reuseguard import netnodes, planner, protocol, similarity, wire
from reuseguard.directory import Directory
from reuseguard.groups import P192, P256

import daemons as procs

D = 1                       # honeywords per stored real password
K = 20                      # Bloom hash count
SIGNUP_RHO = 2
RELAY_RHO = 3
CONTROL_WINDOW_S = 120.0    # the directory's consent window in control
QUERY_WINDOW_S = "3600"     # long enough for any run of signup and relay
SEED_BYTES = 16             # Bloom seed length on the wire

# t(rho, n) = n: with t_goal = n and exactly rho responders registered, the
# planner's best plan is (n, rho) whatever the reference models say.
PINNED_MODEL = planner.LatencyModel(0.0, 1.0, 0.0, 0.0)
DECOYS = netnodes.DecoyPolicy(enabled=True, min_runs=2, extra_run_probability=0.0)


@dataclass(frozen=True)
class Sizes:
    hash_params: similarity.SlowHashParams
    n: int                      # pinned per-responder entry budget
    enrollments_per_audit: int


FULL = Sizes(similarity.DEFAULT_HASH_PARAMS, n=16, enrollments_per_audit=10)
TINY = Sizes(similarity.CHEAP_HASH_PARAMS, n=2, enrollments_per_audit=2)


def filter_length(n):
    return math.ceil(K * n / math.log(2))


def query_layout_bytes(account, group, ell):
    """Encoded query size from the wire layout in perfbench/README.md."""
    point = group.field_bytes + 1
    return 2 + len(account.encode()) + 1 + point + 4 + 2 + 2 + SEED_BYTES + ell * 2 * point


def _word(rng, length):
    return "".join(rng.choice(string.ascii_letters + string.digits) for _ in range(length))


def _account(prefix, seed):
    # Fixed length, so the query size does not depend on the seed.
    return f"{prefix}-{seed % 10 ** 6:06d}@example.com"


def _listen():
    return ["--listen", "127.0.0.1:0"]


class Workload:
    """One deployment of daemons plus the rounds its one client runs."""

    def __init__(self, sizes, seed, workdir, trace):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.daemons = []
        self.rng = random.Random(seed)

    def start(self, specs):
        self.daemons = procs.start_all(specs, self.workdir, self.trace)
        return self.daemons

    def start_client(self):
        """The directory client; its injected path delay is drawn from the seed."""
        self.client = netnodes.DirectoryClient(self.directory.address,
                                               rng=random.Random(self.seed + 1))
        return self.client

    def build_store(self, account, password):
        """Responder store for one account: derivatives of the password and
        D honeywords, filling the filter's capacity at the pinned n."""
        capacity = math.floor(filter_length(self.sizes.n) * math.log(2) / K)
        sset = similarity.build_similar_set(account, password, D, capacity,
                                            self.sizes.hash_params, rng_seed=self.seed)
        store = netnodes.ResponderStore()
        store.add(sset)
        path = os.path.join(self.workdir, "store")
        store.save(path)
        # The first capacity // (D + 1) variants of the real password are stored.
        return path, similarity.generate_similar(password, capacity // (D + 1))

    def enroll_responders(self, client, account, responders):
        for responder in responders:
            ok, warning = client.register(account, responder.address)
            if not ok or warning:
                raise procs.DaemonError(f"register answered {ok}, {warning!r}")
        client.confirm_consent(client.begin_consent(account))

    def log_bytes(self):
        """Size of the directory's event log (only control keeps one)."""
        return 0

    # Filled in by subclasses --------------------------------------------

    def setup(self):
        raise NotImplementedError

    def make_round(self, index):
        """The ``(class, op)`` pairs of round ``index``, in order."""
        raise NotImplementedError

    def counts(self, done):
        """(requester ops, directory ops, responder ops) for the per-op CPU
        figures; the directory count also divides every per-layer figure."""
        raise NotImplementedError


class Signup(Workload):
    """One client runs the full requester flow, alternating candidates."""

    def setup(self):
        self.account = _account("signup", self.seed)
        password = f"Hunter{self.rng.randrange(100, 1000)}"
        store, self.stored = self.build_store(self.account, password)
        self.directory, *self.responders = self.start(
            [("directoryd", _listen() + ["--window-seconds", QUERY_WINDOW_S])]
            + [("responder", ["--store", store] + _listen())] * SIGNUP_RHO)
        client = self.start_client()
        self.enroll_responders(client, self.account, self.responders)
        # Warm-up: one relayed query, which is also the measured query size.
        query, session = protocol.build_query(
            self.account, self.stored[0], self.sizes.n, group=P192, k=K,
            hash_params=self.sizes.hash_params, rng=self.rng)
        self.query_bytes = len(wire.encode_query(query))
        replies = client.query(query, SIGNUP_RHO)
        expected = query_layout_bytes(self.account, P192, filter_length(self.sizes.n))
        return (len(replies) == SIGNUP_RHO and all(protocol.decode_result(session, r) for r in replies)
                and self.query_bytes == expected)

    def flow(self, password, stored):
        result = netnodes.requester_set_password(
            self.client, self.account, password, float(self.sizes.n), DECOYS, d=D,
            group=P192, k=K, hash_params=self.sizes.hash_params, model=PINNED_MODEL,
            rng=self.rng)
        plan = result.plan
        if plan is None or (plan.n, plan.rho) != (self.sizes.n, SIGNUP_RHO):
            return False
        if result.responses_received != SIGNUP_RHO:
            return False
        if stored:  # no false negatives: every responder holds it
            return (not result.accepted and result.detections == SIGNUP_RHO
                    and result.runs == 1)
        return result.accepted and result.detections == 0 and result.runs == DECOYS.min_runs

    def make_round(self, index):
        stored = self.stored[index % len(self.stored)]
        fresh = "fresh-" + _word(self.rng, 16)
        return [("primary", lambda: self.flow(stored, True)),
                ("secondary", lambda: self.flow(fresh, False))]

    def counts(self, done):
        flows = done["primary"] + done["secondary"]
        queries = done["primary"] + DECOYS.min_runs * done["secondary"]
        return flows, queries, queries


class Relay(Workload):
    """The client replays prebuilt P256 queries through the directory."""

    def setup(self):
        self.account = _account("relay", self.seed)
        password = f"Tiger{self.rng.randrange(100, 1000)}"
        store, stored = self.build_store(self.account, password)
        self.directory, *self.responders = self.start(
            [("directoryd", _listen() + ["--window-seconds", QUERY_WINDOW_S])]
            + [("responder", ["--store", store] + _listen())] * RELAY_RHO)
        client = self.start_client()
        self.enroll_responders(client, self.account, self.responders)
        # The pool: one query of a stored variant, one of a fresh password.
        self.pool = []
        for candidate, planted in ((stored[0], True), ("fresh-" + _word(self.rng, 16), False)):
            query, session = protocol.build_query(
                self.account, candidate, self.sizes.n, group=P256, k=K,
                hash_params=self.sizes.hash_params, rng=self.rng)
            self.pool.append((query, session, planted))
        sizes = {len(wire.encode_query(q)) for q, _, _ in self.pool}
        self.query_bytes = sizes.pop()
        expected = query_layout_bytes(self.account, P256, filter_length(self.sizes.n))
        return not sizes and self.query_bytes == expected and self.relay(*self.pool[0])

    def relay(self, query, session, planted):
        replies = self.client.query(query, RELAY_RHO)
        return (len(replies) == RELAY_RHO
                and all(protocol.decode_result(session, r) is planted for r in replies))

    def make_round(self, index):
        similar, fresh = self.pool
        return [("primary", lambda: self.relay(*similar)),
                ("secondary", lambda: self.relay(*fresh))]

    def counts(self, done):
        queries = done["primary"] + done["secondary"]
        return queries, queries, queries


class Control(Workload):
    """The client enrolls fresh accounts and now and then audits a responder."""

    def setup(self):
        store = os.path.join(self.workdir, "empty-store")
        os.makedirs(store)
        self.state_dir = os.path.join(self.workdir, "dstate")
        self.directory, self.responder = self.start([
            ("directoryd", _listen() + ["--state-dir", self.state_dir,
                                        "--window-seconds", str(CONTROL_WINDOW_S)]),
            ("responder", ["--store", store] + _listen())])
        # The size of the query an audit sends, as the directory builds it.
        audit_query, _ = Directory(audit_group=P192).build_audit_query(self.rng)
        self.query_bytes = len(wire.encode_query(audit_query))
        expected = query_layout_bytes(audit_query.account_id, P192, audit_query.bloom.length_ell)
        self.start_client()
        warm = self.make_round(-1)[-6:]  # an enrollment and the audit
        return self.query_bytes == expected and all(op() for _, op in warm)

    def log_bytes(self):
        path = os.path.join(self.state_dir, "events.jsonl")
        return os.path.getsize(path) if os.path.exists(path) else 0

    def make_round(self, index):
        client, raddr = self.client, self.responder.address
        ops = []
        for j in range(self.sizes.enrollments_per_audit):
            account = f"ctl{self.seed}-{index}-{j}@example.com"
            token = []
            ops += [
                ("primary", lambda a=account: client.negotiate(a) == 0),
                ("primary", lambda a=account: client.register(a, raddr) == (True, "")),
                ("primary", lambda a=account: client.negotiate(a) == 1),
                ("primary", lambda a=account, t=token: t.append(client.begin_consent(a))
                 or len(t[0]) == 32),
                ("primary", lambda t=token: client.confirm_consent(t[0]) == CONTROL_WINDOW_S),
            ]
        ops.append(("secondary", lambda: client.audit(raddr) == "honest"))
        return ops

    def counts(self, done):
        ops = done["primary"] + done["secondary"]
        return ops, ops, done["secondary"]


WORKLOADS = {"signup": Signup, "relay": Relay, "control": Control}
