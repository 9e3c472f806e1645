"""In-memory span tracer and the wrappers that put it on reuseguard's layers.

A span is one call of a wrapped entry point: ``(id, parent id, name, start,
end)``, with times from the system-wide monotonic clock so spans from the
load generator and from each daemon can be cut to one measured window.
Spans stay in memory until ``summarise`` folds them into per-name totals:
call count, inclusive time, and self time (the span minus the part of it
that its child spans cover).

A child normally runs in its parent's thread.  The directory's fan-out is
the exception: it hands the query to responder transports on pool threads.
The fan-out span therefore publishes itself under the query object's id,
and each transport call adopts that span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import socket
import threading
import time

# Name of each directory opcode's dispatch span (self time is reported).
DISPATCH_NAMES = {
    0x01: "netnodes.dispatch_query",
    0x04: "netnodes.dispatch_register",
    0x06: "netnodes.dispatch_begin_consent",
    0x07: "netnodes.dispatch_confirm_consent",
    0x08: "netnodes.dispatch_negotiate",
    0x09: "netnodes.dispatch_audit",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._published = {}

    def wrap(self, fn, name, publish=None, adopt=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments.
        ``publish(args)`` gives a key under which the span is findable while
        it is open; ``adopt(args)`` gives the key of the span to take as
        parent when the calling thread has no open span.
        """
        spans, ids, local, published = self.spans, self._ids, self._local, self._published
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            elif adopt is not None:
                parent = published.get(adopt(args))
            else:
                parent = None
            span_name = name if isinstance(name, str) else name(args)
            key = publish(args) if publish is not None else None
            if key is not None:
                published[key] = sid
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if key is not None:
                    published.pop(key, None)
                spans.append((sid, parent, span_name, start, end))

        return traced

    def summarise(self, start_ns, end_ns):
        """Per-name ``[count, total_s, self_s]`` of spans started in the window."""
        spans = list(self.spans)
        children = {}
        for _, parent, _, start, end in spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, name, start, end in spans:
            if not start_ns <= start <= end_ns:
                continue
            covered = 0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += (end - start - covered) / 1e9
        return out


def install(tracer):
    """Wrap the public entry points of every reuseguard layer in place."""
    from reuseguard import bloom, directory, elgamal, groups, netnodes, planner, protocol, similarity, wire

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **kw))

    curve = groups.EllipticCurveGroup
    patch(curve, "exp_generator", "groups.exp_generator")
    patch(curve, "decompress", "groups.decompress")
    patch(groups.FixedBaseTable, "__init__", "groups.fixed_base_table")
    for attr in ("encrypt", "hexp", "decrypt"):
        patch(elgamal, attr, f"elgamal.{attr}")
    for attr in ("indices", "index_union"):
        patch(bloom, attr, f"bloom.{attr}")
    patch(similarity, "bloom_item", "similarity.bloom_item")
    for attr in ("build_query", "validate_query", "respond", "decode_result"):
        patch(protocol, attr, f"protocol.{attr}")
    for attr in ("encode_query", "decode_query", "encode_response", "decode_response"):
        patch(wire, attr, f"wire.{attr}")
    for attr in ("register", "begin_consent", "confirm_consent", "responder_count",
                 "audit_responder"):
        patch(directory.Directory, attr, f"directory.{attr}")
    # Fan-out passes the query to transports on pool threads: args[1].
    patch(directory.Directory, "fanout", "directory.fanout", publish=lambda a: id(a[1]))
    patch(netnodes.DirectoryServer, "dispatch",
          lambda a: DISPATCH_NAMES.get(a[1], "netnodes.dispatch_other"))
    patch(netnodes, "tcp_request", "netnodes.tcp_request")
    patch(netnodes, "inject_latency", "netnodes.inject_latency")
    patch(planner, "optimize", "planner.optimize")
    patch(socket, "create_connection", "netnodes.connect")

    make_transport = netnodes.make_tcp_responder_transport

    @functools.wraps(make_transport)
    def traced_make_transport(*args, **kwargs):
        return tracer.wrap(make_transport(*args, **kwargs), "netnodes.responder_transport",
                           adopt=lambda a: id(a[1]))

    netnodes.make_tcp_responder_transport = traced_make_transport
