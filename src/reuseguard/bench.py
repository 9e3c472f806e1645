"""Desk-scale benchmark harness for the protocol and its deployments.

Spins up in-process responders behind a directory, which queries them
in parallel as it does in service, then times each phase of the protocol
separately: query build (including encoding), responder-side processing
(``netnodes.answer_query``: decode, respond, encode), requester-side
decode, and the full round trip through the directory.  Also reports the
encoded query size and the rate of responses that arrive within a
qualifying threshold.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import protocol, similarity, wire
from .directory import MAX_FANOUT, Directory, ResponderEndpoint
from .groups import CURVES
from .netnodes import (
    LatencyProfile,
    ResponderStore,
    answer_query,
    make_inprocess_responder_transport,
)

CSV_FIELDS = ("rho", "n", "curve", "phase", "time_s", "msg_bytes")

# Every scenario queries for one account whose responders each store the
# derivatives of its password, hashed at the cheap cost, with no decoys.
ACCOUNT = "bench@example.com"
PASSWORD = "benchmark1"
HASH_PARAMS = similarity.CHEAP_HASH_PARAMS


@dataclass(frozen=True)
class BenchScenario:
    curve: str = "P192"
    n_values: Tuple[int, ...] = (1, 8)
    rho_values: Tuple[int, ...] = (1, 4)
    rounds: int = 3
    profile: Optional[LatencyProfile] = None
    qualifying_threshold_s: float = 5.0

    def __post_init__(self):
        if (min(self.n_values + self.rho_values + (self.rounds,)) < 1
                or max(self.rho_values) > MAX_FANOUT):
            raise ValueError(f"every n, rho and the round count must be at least 1, "
                             f"and rho at most {MAX_FANOUT}")
        threshold = self.qualifying_threshold_s
        if not (math.isfinite(threshold) and threshold > 0):
            raise ValueError(f"threshold of {threshold} s is not finite and positive")


@dataclass(frozen=True)
class BenchRecord:
    rho: int
    n: int
    curve: str
    phase: str
    time_s: float
    msg_bytes: int


def _build_stores(n: int, count: int) -> Dict[str, ResponderStore]:
    stores: Dict[str, ResponderStore] = {}
    for i in range(count):
        sset = similarity.build_similar_set(ACCOUNT, PASSWORD, 0, n, HASH_PARAMS,
                                            rng_seed=i)
        store = ResponderStore()
        store.add(sset)
        stores[f"bench-{i}"] = store
    return stores


def bench_run(scenario: BenchScenario) -> List[BenchRecord]:
    group = CURVES[scenario.curve]
    records: List[BenchRecord] = []
    max_rho = max(scenario.rho_values)
    for n in scenario.n_values:
        stores = _build_stores(n, max_rho)
        transport = make_inprocess_responder_transport(stores, scenario.profile)
        directory = Directory(
            transport, window_seconds=86400.0,
            per_responder_timeout=max(scenario.qualifying_threshold_s * 4, 30.0))
        for address in stores:
            directory.register(ACCOUNT, ResponderEndpoint(address))
        token = directory.begin_consent(ACCOUNT)
        directory.confirm_consent(token)

        first_store = next(iter(stores.values()))
        for rho in scenario.rho_values:
            qualifying = 0
            batch_start = time.perf_counter()
            for _ in range(scenario.rounds):
                t0 = time.perf_counter()
                query, session = protocol.build_query(
                    ACCOUNT, PASSWORD, n, group=group, hash_params=HASH_PARAMS)
                payload = wire.encode_query(query)
                t_build = time.perf_counter() - t0
                msg_bytes = len(payload)
                records.append(BenchRecord(rho, n, scenario.curve,
                                           "query_build", t_build, msg_bytes))

                t0 = time.perf_counter()
                _, response_bytes = answer_query(first_store, payload)
                t_respond = time.perf_counter() - t0
                records.append(BenchRecord(rho, n, scenario.curve, "respond",
                                           t_respond, len(response_bytes)))

                t0 = time.perf_counter()
                responses = directory.fanout(query, rho)
                t_round = time.perf_counter() - t0
                t0 = time.perf_counter()
                for r in responses:
                    protocol.decode_result(session, r)
                t_decode = time.perf_counter() - t0
                records.append(BenchRecord(rho, n, scenario.curve, "decode",
                                           t_decode, len(response_bytes)))
                records.append(BenchRecord(rho, n, scenario.curve, "round_trip",
                                           t_round, msg_bytes))
                if t_round <= scenario.qualifying_threshold_s:
                    qualifying += len(responses)
            elapsed = time.perf_counter() - batch_start
            rate = qualifying / elapsed if elapsed > 0 else 0.0
            records.append(BenchRecord(rho, n, scenario.curve,
                                       "qualifying_per_s", rate, 0))
    return records


def mean_phase_time(records: Sequence[BenchRecord], phase: str,
                    rho: Optional[int] = None, n: Optional[int] = None) -> float:
    rows = [r.time_s for r in records
            if r.phase == phase
            and (rho is None or r.rho == rho)
            and (n is None or r.n == n)]
    if not rows:
        raise ValueError(f"no rows for phase {phase!r}")
    return sum(rows) / len(rows)


def write_csv(records: Sequence[BenchRecord], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow([r.rho, r.n, r.curve, r.phase,
                         f"{r.time_s:.6f}", r.msg_bytes])


def read_fit_samples(fh) -> List[Tuple[float, float, float]]:
    """Extract (rho, n, time) fit samples from a CSV stream.

    Accepts either the bench output (round_trip rows are used) or a bare
    three-column rho,n,time file.
    """
    rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError("empty CSV")
    header = [h.strip().lower() for h in rows[0]]
    if "phase" in header:
        *cols, phase = (header.index(name) for name in ("rho", "n", "time_s", "phase"))
        rows = [row for row in rows[1:] if len(row) > phase and row[phase] == "round_trip"]
    else:
        cols = [0, 1, 2]
        rows = rows if _numeric_row(rows[0]) else rows[1:]
    for row in rows:
        if len(row) <= max(cols):
            raise ValueError(f"short CSV row: {','.join(row)}")
    return [tuple(float(row[c]) for c in cols) for row in rows]


def _numeric_row(row) -> bool:
    try:
        [float(x) for x in row[:3]]
        return True
    except ValueError:
        return False
