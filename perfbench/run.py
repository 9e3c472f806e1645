"""End-to-end benchmark of reuseguard's daemons over localhost TCP.

    python3 perfbench/run.py --workload {signup,relay,control} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Starts ``directoryd`` and ``responder`` as their own processes, drives them
from this process with one closed-loop client for S seconds of whole
rounds, checks every answer, and prints each metric by name with its
unit.  The last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``).  ``--tiny`` runs
the same code at toy sizes, for the fast check in ``check.py``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 3        # set-ups per run; setup_s is their median
RUN_LIMIT_S = 150.0   # from start to the end of measuring
HARD_LIMIT_S = 170    # whatever hangs (a set-up, a stop), the run ends here
TAIL_MIN_SAMPLES = 40

END_TO_END = {  # name -> unit
    "setup_s": "s", "primary_p50_s": "s", "secondary_p50_s": "s", "requester_cpu_s": "s", "directory_cpu_s": "s", "responder_cpu_s": "s",
    "query_bytes": "B",
}
# Per-layer metric -> (span name, figure), figures per directory op.
LAYER_SPANS = {
    "groups.exp_generator_s": ("groups.exp_generator", "total"),
    "groups.decompress_s": ("groups.decompress", "total"),
    "groups.decompress_calls": ("groups.decompress", "count"),
    "groups.fixed_base_tables": ("groups.fixed_base_table", "count"),
    "elgamal.encrypt_s": ("elgamal.encrypt", "total"),
    "elgamal.hexp_s": ("elgamal.hexp", "total"),
    "elgamal.decrypt_s": ("elgamal.decrypt", "total"),
    "bloom.indices_s": ("bloom.indices", "total"),
    "bloom.index_union_s": ("bloom.index_union", "total"),
    "similarity.bloom_item_s": ("similarity.bloom_item", "total"),
    "protocol.build_query_self_s": ("protocol.build_query", "self"),
    "protocol.validate_query_s": ("protocol.validate_query", "total"),
    "protocol.respond_s": ("protocol.respond", "total"),
    "protocol.decode_result_s": ("protocol.decode_result", "total"),
    "wire.encode_query_s": ("wire.encode_query", "total"),
    "wire.decode_query_s": ("wire.decode_query", "total"),
    "wire.decode_query_calls": ("wire.decode_query", "count"),
    "wire.encode_response_s": ("wire.encode_response", "total"),
    "wire.decode_response_s": ("wire.decode_response", "total"),
    "directory.fanout_s": ("directory.fanout", "total"),
    "directory.fanout_self_s": ("directory.fanout", "self"),
    "directory.register_s": ("directory.register", "total"),
    "directory.begin_consent_s": ("directory.begin_consent", "total"),
    "directory.confirm_consent_s": ("directory.confirm_consent", "total"),
    "directory.responder_count_s": ("directory.responder_count", "total"),
    "directory.audit_responder_s": ("directory.audit_responder", "total"),
    "netnodes.dispatch_query_self_s": ("netnodes.dispatch_query", "self"),
    "netnodes.dispatch_register_self_s": ("netnodes.dispatch_register", "self"),
    "netnodes.dispatch_begin_consent_self_s": ("netnodes.dispatch_begin_consent", "self"),
    "netnodes.dispatch_confirm_consent_self_s": ("netnodes.dispatch_confirm_consent", "self"),
    "netnodes.dispatch_negotiate_self_s": ("netnodes.dispatch_negotiate", "self"),
    "netnodes.dispatch_audit_self_s": ("netnodes.dispatch_audit", "self"),
    "netnodes.tcp_request_s": ("netnodes.tcp_request", "total"),
    "netnodes.connections": ("netnodes.connect", "count"),
    "netnodes.inject_latency_s": ("netnodes.inject_latency", "total"),
    "planner.optimize_s": ("planner.optimize", "total"),
}
PER_LAYER = {**{name: ("count/op" if figure == "count" else "s/op")
                for name, (_, figure) in LAYER_SPANS.items()},
             "directory.log_bytes": "B/op", "cli.daemon_start_s": "s"}


class Tally:
    """Outcome of every operation the client attempts (written by the
    client thread only)."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.errors = []
        self.samples = {"primary": [], "secondary": []}

    def done(self):
        return {cls: len(times) for cls, times in self.samples.items()}

    @property
    def failed(self):
        return self.attempted - sum(self.done().values())


def client_loop(workload, tally, deadline, stop):
    """Closed loop: whole rounds, each op only after the previous answered."""
    index = 0
    while not stop.is_set() and time.monotonic() < deadline:
        ops = workload.make_round(index)
        index += 1
        tally.attempted += len(ops)
        for cls, op in ops:
            if stop.is_set():
                return  # the rest of the round counts as failed
            t0 = time.perf_counter()
            try:
                ok = op()
            except Exception as exc:  # the program failed to answer
                tally.errors.append(f"{cls}: {type(exc).__name__}: {exc}")
                continue
            tally.samples[cls].append(time.perf_counter() - t0)
            tally.wrong += not ok


def measure(workload, seconds, run_deadline):
    """Run the client; returns (tally, window, cpu figures, ok).

    The client runs on its own thread so that this one can stop the run
    when a daemon dies or the run passes its deadline.
    """
    tally = Tally()
    stop = threading.Event()
    daemons = workload.daemons
    cpu0 = [d.cpu_seconds() for d in daemons]
    log0 = workload.log_bytes()
    own0 = time.process_time()
    start_ns = time.monotonic_ns()
    client = threading.Thread(target=client_loop, daemon=True,
                              args=(workload, tally, time.monotonic() + seconds, stop))
    client.start()
    healthy = True
    while healthy and client.is_alive():
        client.join(0.2)
        healthy = all(d.alive() for d in daemons) and time.monotonic() < run_deadline
    if not healthy:
        stop.set()
        for d in daemons:
            d.kill()
        client.join(5.0)
        return tally, None, None, False
    end_ns = time.monotonic_ns()
    own = time.process_time() - own0
    cpu = [d.cpu_seconds() - c for d, c in zip(daemons, cpu0)]
    log = workload.log_bytes() - log0
    return tally, (start_ns, end_ns), (own, cpu, log), True


def latency_line(name, samples):
    """Median, the highest percentile with ten samples beyond it, and n."""
    line = f"{name} = {statistics.median(samples):.6f} s (n={len(samples)}"
    if len(samples) >= TAIL_MIN_SAMPLES:
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        for per_mille in (999, 990, 950, 900, 750):
            if len(samples) * (1000 - per_mille) / 1000 >= 10:
                line += f", p{per_mille / 10:g} = {cuts[per_mille - 1]:.6f} s"
                break
    return line + ")"


# Each workload's figures under the names its reader expects: the two
# latency classes and the client's throughput (ungated: see README.md).
ALIASES = {
    "signup": ("reject_p50_s", "accept_p50_s", "flows_per_s"),
    "relay": ("relay_similar_p50_s", "relay_fresh_p50_s", "relay_qps"),
    "control": ("control_p50_s", "audit_p50_s", "control_ops_per_s"),
}


def end_to_end(workload, tally, cpu, setups):
    own, daemon_cpu, _ = cpu
    requester_ops, directory_ops, responder_ops = workload.counts(tally.done())
    return {
        "setup_s": statistics.median(setups),
        "primary_p50_s": statistics.median(tally.samples["primary"]),
        "secondary_p50_s": statistics.median(tally.samples["secondary"]),
        "requester_cpu_s": own / requester_ops,
        "directory_cpu_s": daemon_cpu[0] / directory_ops,
        "responder_cpu_s": sum(daemon_cpu[1:]) / responder_ops,
        "query_bytes": workload.query_bytes,
    }


def per_layer(workload, tally, window, cpu, tracer, daemon_starts):
    totals = tracer.summarise(*window)
    for d in workload.daemons:
        with open(d.trace_out) as fh:
            for name, (count, total, own) in json.load(fh).items():
                row = totals.setdefault(name, [0, 0.0, 0.0])
                row[0] += count
                row[1] += total
                row[2] += own
    ops = workload.counts(tally.done())[1]
    column = {"count": 0, "total": 1, "self": 2}
    out = {name: totals.get(span, [0, 0.0, 0.0])[column[figure]] / ops
           for name, (span, figure) in LAYER_SPANS.items()}
    out["directory.log_bytes"] = cpu[2] / ops
    out["cli.daemon_start_s"] = statistics.median(daemon_starts)
    return out


def run(args):
    import daemons as procs
    import tracing
    from workloads import FULL, TINY, WORKLOADS

    run_deadline = time.monotonic() + RUN_LIMIT_S
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    sizes = TINY if args.tiny else FULL
    setups, daemon_starts = [], []
    workload = None
    try:
        for rep in range(SETUP_REPS):
            if workload is not None:  # nothing of an earlier set-up is kept
                procs.stop_all(workload.daemons, grace=0.0)
            rep_dir = os.path.join(workdir, f"setup{rep}")
            os.makedirs(rep_dir)
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](sizes, args.seed, rep_dir, bool(args.trace))
            if not workload.setup():
                print("set-up check failed: a warm-up answer was wrong", file=sys.stderr)
                return None
            setups.append(time.perf_counter() - t0)
            daemon_starts += [d.start_s for d in workload.daemons]
        tally, window, cpu, healthy = measure(workload, args.seconds, run_deadline)
        if healthy:
            with open(os.path.join(workload.workdir, "window.json"), "w") as fh:
                json.dump(list(window), fh)
        procs.stop_all(workload.daemons)
        for err in tally.errors[:5]:
            print("error:", err, file=sys.stderr)
        for d in workload.daemons if not healthy else ():
            print(f"{d.label} (exit {d.proc.returncode}): {d.log_tail()}", file=sys.stderr)
        result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": {}}
        if not healthy or tally.failed:
            return result
        names = ALIASES[args.workload]
        for name, cls in zip(names, ("primary", "secondary")):
            print(latency_line(name, tally.samples[cls]))
        elapsed = (window[1] - window[0]) / 1e9
        print(f"{names[2]} = {sum(tally.done().values()) / elapsed:.6g} ops/s")
        e2e = end_to_end(workload, tally, cpu, setups)
        units = dict(END_TO_END)
        metrics = e2e
        if args.trace:
            metrics = per_layer(workload, tally, window, cpu, tracer, daemon_starts)
            units = PER_LAYER
            for name, value in e2e.items():
                print(f"{name} = {value:.6g} {END_TO_END[name]} (traced)")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        result["metrics"] = {name: {"value": value, "unit": units[name]}
                             for name, value in metrics.items()}
        return result
    finally:
        if workload is not None:
            procs.stop_all(workload.daemons)
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["signup", "relay", "control"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for check.py")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reuseguard", "__init__.py")):
        print(f"no reuseguard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGALRM, lambda *_: sys.exit(f"run passed {HARD_LIMIT_S} s"))
    signal.alarm(HARD_LIMIT_S)
    result = run(args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] and result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
