"""Command-line entry points: planner, responder, requester, directoryd."""

from __future__ import annotations

import argparse
import getpass
import sys
import time

from . import bench, netnodes, planner
from .directory import TIMEOUT_PROFILES, Directory
from .errors import ConsentRequiredError, InfeasibleError, ReuseGuardError
from .groups import CURVES
from .similarity import DEFAULT_HASH_PARAMS, SlowHashParams


def planner_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planner",
        description="Pick protocol parameters, fit latency models, run benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="maximize detection under a time goal")
    p_opt.add_argument("--t-goal", type=float, required=True,
                       help="response-time goal in seconds")
    p_opt.add_argument("--d", type=int, default=0, help="honeyword count")
    p_opt.add_argument("--responders", type=int, required=True,
                       help="number of responders registered for the account")
    p_opt.add_argument("--model", choices=sorted(planner.REFERENCE_MODELS),
                       default="trusted")
    p_opt.add_argument("--coeffs", help="latency coefficients file (key = value lines)")
    p_opt.add_argument("--curve", help="reuse curve file (x,p lines)")

    p_fit = sub.add_parser("fit", help="fit latency coefficients from a CSV")
    p_fit.add_argument("--csv", required=True,
                       help="rho,n,time rows, as planner bench writes them")

    p_bench = sub.add_parser("bench", help="time in-process round trips as rho,n,time rows")
    p_bench.add_argument("--curve-id", default="P192", choices=sorted(CURVES))
    p_bench.add_argument("--n", type=int, nargs="+", default=[1, 8])
    p_bench.add_argument("--rho", type=int, nargs="+", default=[1, 4])
    p_bench.add_argument("--rounds", type=int, default=3)
    p_bench.add_argument("--profile", choices=["none", *netnodes.PROFILES],
                         default="none")
    p_bench.add_argument("--out", help="CSV output path (default: stdout)")

    args = parser.parse_args(argv)

    if args.command == "optimize":
        model = planner.REFERENCE_MODELS[args.model]
        curve = planner.DEFAULT_REUSE_CURVE
        try:
            if args.coeffs:
                with open(args.coeffs) as fh:
                    model = planner.parse_coeffs_file(fh.read())
            if args.curve:
                with open(args.curve) as fh:
                    curve = planner.parse_curve_file(fh.read())
        except (OSError, ValueError) as exc:  # a missing or malformed file
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            plan = planner.optimize(args.t_goal, args.responders, args.d,
                                    model, curve)
        except InfeasibleError as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:  # a negative --d
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"n = {plan.n}")
        print(f"rho = {plan.rho}")
        print(f"tdr = {plan.tdr:.4f}")
        print(f"t_predicted = {plan.t_predicted:.4f} s")
        return 0

    if args.command == "fit":
        try:
            with open(args.csv) as fh:
                model = planner.fit_model(planner.parse_samples_file(fh.read()))
        except (OSError, ValueError) as exc:
            print(f"fit failed: {exc}", file=sys.stderr)
            return 1
        print(planner.format_coeffs_file(model), end="")
        return 0

    if args.command == "bench":
        profile = None if args.profile == "none" else netnodes.PROFILES[args.profile]
        try:
            scenario = bench.BenchScenario(
                curve=args.curve_id, n_values=tuple(args.n),
                rho_values=tuple(args.rho), rounds=args.rounds, profile=profile)
        except ValueError as exc:  # an n, rho or round count out of range
            print(f"error: {exc}", file=sys.stderr)
            return 1
        text = planner.format_samples_file(
            (r.rho, r.n, r.time_s) for r in bench.bench_run(scenario))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0

    return 2


def _run_until_interrupted(server) -> None:
    """Serve until SIGINT (Ctrl-C), then stop ``server``."""
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.shutdown()


def responder_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="responder",
        description="Serve membership-test responses for stored similar sets.")
    parser.add_argument("--store", required=True,
                        help="similar-set store (file or directory of .simset)")
    parser.add_argument("--listen", required=True, help="host:port to bind")
    args = parser.parse_args(argv)

    try:
        store = netnodes.ResponderStore.load(args.store)
        server = netnodes.serve_responder(store, args.listen)
    except (ReuseGuardError, OSError, ValueError) as exc:  # a bad store, a port in use, a bad address
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"responder listening on {server.address} "
          f"({len(store.accounts())} accounts)", flush=True)
    _run_until_interrupted(server)
    return 0


def requester_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="requester",
        description="Set a password after checking for cross-site reuse.")
    parser.add_argument("--directory", required=True, help="directory host:port")
    parser.add_argument("--account", required=True, help="account email address")
    parser.add_argument("--t-goal", type=float, required=True,
                        help="response-time goal in seconds, at most the "
                             "directory's per-responder deadline for --profile")
    parser.add_argument("--decoys", action="store_true",
                        help="run decoy protocol executions after acceptance")
    parser.add_argument("--password",
                        help="candidate password (prompted when omitted)")
    parser.add_argument("--profile", choices=sorted(netnodes.PROFILES), default="trusted")
    parser.add_argument("--d", type=int, default=0, help="honeyword count assumed")
    parser.add_argument("--hash-cost", type=int, default=None,
                        help="log2 scrypt cost for candidate digests "
                             "(must match the responders' stores)")
    parser.add_argument("--register-endpoint",
                        help="endpoint to register for this account on acceptance")
    parser.add_argument("--auto-consent", action="store_true",
                        help="request and confirm a consent token first "
                             "(stands in for the account owner's click)")
    args = parser.parse_args(argv)

    # A plan for a longer goal builds a query no responder answers before the
    # directory stops waiting.
    deadline = TIMEOUT_PROFILES[args.profile]
    if not 0 < args.t_goal <= deadline:  # also refuses nan
        print(f"rejected: a --t-goal of {args.t_goal} s is not in (0, {deadline}] s, "
              f"the directory's per-responder deadline for --profile {args.profile}",
              file=sys.stderr)
        return 2

    hash_params = DEFAULT_HASH_PARAMS
    if args.hash_cost is not None:
        hash_params = SlowHashParams(log2_n=args.hash_cost)

    password = args.password or getpass.getpass("candidate password: ")
    client = netnodes.DirectoryClient(args.directory, netnodes.PROFILES[args.profile])
    try:
        if args.auto_consent:
            token = client.begin_consent(args.account)
            client.confirm_consent(token)
        result = netnodes.requester_set_password(
            client, args.account, password, args.t_goal,
            netnodes.DecoyPolicy(enabled=args.decoys), d=args.d,
            hash_params=hash_params,
            register_endpoint=args.register_endpoint)
    except ConsentRequiredError:
        print("rejected: no open consent window (queries were dropped)",
              file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (ReuseGuardError, ValueError) as exc:  # ValueError: a negative --d, a bad --directory
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if result.accepted:
        if result.plan is None:
            print("accepted (first site for this account, nothing to check)")
        else:
            print(f"accepted (runs={result.runs}, rho={result.plan.rho}, "
                  f"n={result.plan.n}, responses={result.responses_received})")
        return 0
    print(f"rejected: {result.detections} of {result.responses_received} "
          f"responders report a similar password")
    return 1


def directoryd_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="directoryd",
        description="Run the account directory and query fan-out daemon.")
    parser.add_argument("--listen", required=True, help="host:port to bind")
    parser.add_argument("--profile", choices=sorted(netnodes.PROFILES), default="trusted")
    parser.add_argument("--early-return-fraction", type=float, default=None,
                        help="return once this share of responses arrived")
    parser.add_argument("--window-seconds", type=float, default=60.0)
    parser.add_argument("--state-dir", default=None)
    args = parser.parse_args(argv)

    profile = netnodes.PROFILES[args.profile]
    transport_profile = profile if args.profile == "untrusted" else None
    try:
        directory = Directory(
            netnodes.make_tcp_responder_transport(transport_profile),
            window_seconds=args.window_seconds,
            per_responder_timeout=TIMEOUT_PROFILES[args.profile],
            early_return_fraction=args.early_return_fraction,
            state_dir=args.state_dir)
    except (ReuseGuardError, OSError, ValueError) as exc:  # a bad state dir, fraction or window
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        server = netnodes.serve_directory(directory, args.listen)
    except (OSError, ValueError) as exc:  # a port in use or a bad address
        directory.close()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"directory listening on {server.address} (profile={args.profile})", flush=True)
    _run_until_interrupted(server)
    directory.close()
    return 0
