"""Desk-scale round-trip timer behind ``planner bench`` and acceptance 11(a).

Spins up in-process responders behind a directory, which queries them
in parallel as it does in service, and times each round trip through
``Directory.fanout``: the time the planner's latency model predicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import protocol, similarity
from .directory import MAX_FANOUT, Directory, ResponderEndpoint
from .groups import CURVES
from .netnodes import LatencyProfile, ResponderStore, make_inprocess_responder_transport

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

    def __post_init__(self):
        if (min(self.n_values + self.rho_values + (self.rounds,)) < 1
                or max(self.rho_values) > MAX_FANOUT):
            raise ValueError(f"every n, rho and the round count must be at least 1, "
                             f"and rho at most {MAX_FANOUT}")


@dataclass(frozen=True)
class BenchRecord:
    rho: int
    n: int
    phase: str
    time_s: float


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
    """One ``round_trip`` record per round, for each n and rho in turn."""
    group = CURVES[scenario.curve]
    records: List[BenchRecord] = []
    max_rho = max(scenario.rho_values)
    for n in scenario.n_values:
        stores = _build_stores(n, max_rho)
        transport = make_inprocess_responder_transport(stores, scenario.profile)
        directory = Directory(transport, window_seconds=86400.0,
                              per_responder_timeout=30.0)
        for address in stores:
            directory.register(ACCOUNT, ResponderEndpoint(address))
        token = directory.begin_consent(ACCOUNT)
        directory.confirm_consent(token)
        for rho in scenario.rho_values:
            for _ in range(scenario.rounds):
                query, _ = protocol.build_query(
                    ACCOUNT, PASSWORD, n, group=group, hash_params=HASH_PARAMS)
                t0 = time.perf_counter()
                directory.fanout(query, rho)
                records.append(BenchRecord(rho, n, "round_trip",
                                           time.perf_counter() - t0))
        directory.close()
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
