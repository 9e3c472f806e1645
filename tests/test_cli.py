import random
import socket
import subprocess
import sys
import time

import pytest

from reuseguard import bench, planner, similarity
from reuseguard.run import TOOLS
from reuseguard.cli import planner_main, requester_main, responder_main
from reuseguard.directory import Directory, ResponderEndpoint
from reuseguard.netnodes import ResponderStore, make_tcp_responder_transport, serve_directory

CHEAP = similarity.CHEAP_HASH_PARAMS


def test_planner_optimize_stdout(capsys):
    rc = planner_main(["optimize", "--t-goal", "0.02", "--d", "0",
                       "--responders", "26", "--model", "trusted"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n = 1" in out
    assert "rho = 10" in out
    assert "tdr = 0.9850" in out


def test_planner_optimize_infeasible(capsys):
    rc = planner_main(["optimize", "--t-goal", "0.03", "--d", "9",
                       "--responders", "26", "--model", "trusted"])
    assert rc == 1
    assert "infeasible" in capsys.readouterr().err


def test_planner_optimize_with_files(tmp_path, capsys):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("c0 = 1.5507\nc1 = 5.8834e-3\nc2 = 2.6209e-3\n"
                      "c3 = 4.7135e-5\n")
    curve = tmp_path / "curve.txt"
    curve.write_text("1,0.343\n10,0.409\n100,0.4305\n1000,0.4527\n5000,0.4677\n")
    rc = planner_main(["optimize", "--t-goal", "1.62", "--d", "9",
                       "--responders", "26", "--coeffs", str(coeffs),
                       "--curve", str(curve)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n = 10" in out
    assert "rho = 3" in out


def test_planner_optimize_ends_when_time_does_not_grow_with_n(tmp_path):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("c0 = 0.001\nc1 = 0\nc2 = 0.001\nc3 = 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "reuseguard.run", "planner", "optimize",
         "--t-goal", "0.004", "--responders", "8", "--coeffs", str(coeffs)],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "n = 5000\nrho = 3\n" in proc.stdout


def test_planner_fit_roundtrip(tmp_path, capsys):
    rows = ["rho,n,time"]
    for rho in (1, 8, 16, 24):
        for n in (1, 16, 32, 64):
            rows.append(f"{rho},{n},{planner.predict_time(planner.TRUSTED_MODEL, rho, n)}")
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(rows) + "\n")
    rc = planner_main(["fit", "--csv", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "c0 = 6.459500e-03" in out
    assert "rmse = 0.0000" in out


def test_planner_fit_rejects_a_non_finite_time(tmp_path, capsys):
    rows = ["rho,n,time"] + [f"{rho},{n},{'inf' if rho == n == 1 else 0.1}"
                             for rho in (1, 2, 3) for n in (1, 2, 3)]
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(rows) + "\n")
    assert planner_main(["fit", "--csv", str(path)]) == 1
    assert "fit failed" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    "",
    "1,2\n",
    "rho,n,phase\n1,8,round_trip\n",
    "".join(f"{rho},{n},0.{rho}{n}\n" for rho in (1, 2, 3) for n in (1, 2, 3)) + "1,2,3,4\n",
], ids=["empty", "short-row", "bench-without-time", "four-columns"])
def test_planner_fit_reports_a_malformed_csv(tmp_path, capsys, content):
    path = tmp_path / "samples.csv"
    path.write_text(content)
    assert planner_main(["fit", "--csv", str(path)]) == 1
    assert "fit failed" in capsys.readouterr().err


def test_responder_refuses_a_malformed_store(tmp_path, capsys):
    path = tmp_path / "bad.simset"
    path.write_bytes(b"RGSS\x01")
    assert responder_main(["--store", str(path), "--listen", "127.0.0.1:0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


OPTIMIZE = ["optimize", "--t-goal", "1.0", "--responders", "3"]


@pytest.mark.parametrize("tool, argv, prefix", [
    ("directoryd", ["--listen", "127.0.0.1:0", "--state-dir", "{bad_log_dir}"], "error: "),
    ("responder", ["--store", "{missing}", "--listen", "127.0.0.1:0"], "error: "),
    ("planner", ["fit", "--csv", "{missing}"], "fit failed: "),
    ("planner", OPTIMIZE + ["--coeffs", "{missing}"], "error: "),
    ("planner", OPTIMIZE + ["--coeffs", "{bad_coeffs}"], "error: "),
    ("planner", OPTIMIZE + ["--curve", "{missing}"], "error: "),
    ("planner", OPTIMIZE + ["--curve", "{bad_curve}"], "error: "),
    ("directoryd", ["--listen", "{busy}"], "error: "),
    ("responder", ["--store", "{empty_store}", "--listen", "{busy}"], "error: "),
    ("planner", OPTIMIZE + ["--d", "-1"], "error: "),
    ("planner", ["bench", "--n", "0"], "error: "),
    ("planner", ["bench", "--rho", "0"], "error: "),
    ("planner", ["bench", "--rounds", "0"], "error: "),
    ("planner", ["bench", "--rho", "65"], "error: "),
] + [
    ("directoryd", ["--listen", "127.0.0.1:0", "--early-return-fraction", fraction], "error: ")
    for fraction in ("nan", "inf", "0", "-1", "1.5")
] + [
    ("directoryd", ["--listen", "127.0.0.1:0", "--window-seconds", seconds], "error: ")
    for seconds in ("nan", "inf", "0", "-5")
], ids=["directoryd-log-does-not-replay", "responder-missing-store", "fit-missing-csv",
        "optimize-missing-coeffs", "optimize-malformed-coeffs",
        "optimize-missing-curve", "optimize-malformed-curve",
        "directoryd-port-in-use", "responder-port-in-use",
        "optimize-negative-d", "bench-n-zero", "bench-rho-zero", "bench-rounds-zero",
        "bench-rho-above-fanout",
        "directoryd-fraction-nan", "directoryd-fraction-inf",
        "directoryd-fraction-zero", "directoryd-fraction-negative",
        "directoryd-fraction-above-one",
        "directoryd-window-nan", "directoryd-window-inf",
        "directoryd-window-zero", "directoryd-window-negative"])
def test_cli_reports_a_bad_input_in_one_line(tmp_path, capsys, tool, argv, prefix):
    bad_log_dir = tmp_path / "dstate"
    bad_log_dir.mkdir()
    (bad_log_dir / "events.jsonl").write_text('{"op": "regis\n')
    paths = {"bad_log_dir": bad_log_dir, "missing": tmp_path / "missing",
             "bad_coeffs": tmp_path / "coeffs.txt", "bad_curve": tmp_path / "curve.txt",
             "empty_store": tmp_path / "store"}
    paths["bad_coeffs"].write_text("c0 1.5\n")
    paths["bad_curve"].write_text("1;0.343\n")
    paths["empty_store"].mkdir()
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        paths["busy"] = "127.0.0.1:%d" % busy.getsockname()[1]
        assert TOOLS[tool]([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def test_package_and_planner_fit_run_without_numpy(tmp_path):
    rows = ["rho,n,time"] + [
        f"{rho},{n},{planner.predict_time(planner.TRUSTED_MODEL, rho, n)}"
        for rho in (1, 8, 16) for n in (1, 16, 32)]
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(rows) + "\n")
    script = ("import sys\n"
              "sys.modules['numpy'] = None  # any import of numpy now fails\n"
              "import reuseguard\n"
              "from reuseguard.cli import planner_main\n"
              "sys.exit(planner_main(['fit', '--csv', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "c0 = 6.459500e-03" in proc.stdout


def test_planner_bench_writes_csv(tmp_path):
    out_path = tmp_path / "bench.csv"
    rc = planner_main(["bench", "--curve-id", "P192", "--n", "1", "--rho", "1",
                       "2", "--rounds", "2", "--out", str(out_path)])
    assert rc == 0
    header, *rows = [line.split(",") for line in out_path.read_text().splitlines()]
    assert header == ["rho", "n", "time"]
    assert len(rows) == 1 * 2 * 2  # |n| * |rho| * rounds
    assert sorted((int(rho), int(n)) for rho, n, _ in rows) == [(1, 1), (1, 1), (2, 1), (2, 1)]
    assert all(float(t) > 0 for _, _, t in rows)


def test_bench_fit_pipeline():
    scenario = bench.BenchScenario(n_values=(1, 4), rho_values=(1, 2),
                                   rounds=2)
    measured = [(r.rho, r.n, r.time_s) for r in bench.bench_run(scenario)]
    samples = planner.parse_samples_file(planner.format_samples_file(measured))
    assert samples == measured and len(samples) == 8
    model = planner.fit_model(samples)
    assert model.c0 >= 0 or model.rmse >= 0  # fit ran end to end


def test_planner_bench_output_is_what_planner_fit_reads(tmp_path):
    out_path = tmp_path / "bench.csv"

    def planner_cli(*argv):
        return subprocess.run([sys.executable, "-m", "reuseguard.run", "planner", *argv],
                              capture_output=True, text=True, timeout=300)

    bench_proc = planner_cli("bench", "--n", "1", "4", "--rho", "1", "2",
                             "--rounds", "2", "--out", str(out_path))
    assert bench_proc.returncode == 0, bench_proc.stderr
    fit_proc = planner_cli("fit", "--csv", str(out_path))
    assert fit_proc.returncode == 0, fit_proc.stderr
    assert [line.split(" = ")[0] for line in fit_proc.stdout.splitlines()] == \
        ["c0", "c1", "c2", "c3", "rmse"]


def test_responder_refuses_a_store_for_a_non_canonical_account(tmp_path):
    sset = similarity.build_similar_set("Jane.Doe@gmail.com", "hunter2", 0, 5, CHEAP,
                                        rng_seed=1)
    path = tmp_path / "alias.simset"
    similarity.save_similar_set(sset, str(path))
    # A subprocess, so a daemon that started serving fails the test on the
    # timeout instead of blocking it.
    proc = subprocess.run(
        [sys.executable, "-m", "reuseguard.run", "responder",
         "--store", str(path), "--listen", "127.0.0.1:0"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "janedoe@gmail.com" in proc.stderr


def _wait_for_line(proc, needle, timeout=20):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if needle in line:
            return line
    raise AssertionError(f"never saw {needle!r}")


def test_cli_daemons_end_to_end(tmp_path):
    store_dir = tmp_path / "store"
    params = similarity.SlowHashParams(log2_n=11)
    store = ResponderStore()
    store.add(similarity.build_similar_set("user@example.com", "hunter2", 0, 5,
                                           params, rng_seed=3))
    store.save(str(store_dir))

    procs = []
    try:
        responder = subprocess.Popen(
            [sys.executable, "-u", "-m", "reuseguard.run", "responder",
             "--store", str(store_dir), "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        procs.append(responder)
        rline = _wait_for_line(responder, "responder listening on ")
        raddr = rline.split("responder listening on ")[1].split()[0]

        directoryd = subprocess.Popen(
            [sys.executable, "-u", "-m", "reuseguard.run", "directoryd",
             "--listen", "127.0.0.1:0", "--state-dir", str(tmp_path / "dstate")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        procs.append(directoryd)
        dline = _wait_for_line(directoryd, "directory listening on ")
        daddr = dline.split("directory listening on ")[1].split()[0]

        def requester(password, extra=()):
            return subprocess.run(
                [sys.executable, "-u", "-m", "reuseguard.run", "requester",
                 "--directory", daddr, "--account", "user@example.com",
                 "--t-goal", "0.05", "--password", password,
                 "--hash-cost", "11", *extra],
                capture_output=True, text=True, timeout=120)

        # First site for the account: trivially accepted, registers itself.
        first = requester("first-password-1", ["--register-endpoint", raddr])
        assert first.returncode == 0, first.stderr + first.stdout
        assert "accepted" in first.stdout

        # Now a responder exists; without consent, queries are dropped.
        no_consent = requester("hunter2")
        assert no_consent.returncode == 3, no_consent.stderr + no_consent.stdout

        reused = requester("hunter2", ["--auto-consent"])
        assert reused.returncode == 1, reused.stderr + reused.stdout
        assert "rejected" in reused.stdout

        fresh = requester("another-new-pass-8", ["--auto-consent"])
        assert fresh.returncode == 0, fresh.stderr + fresh.stdout
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
            proc.stdout.close()


def test_requester_reports_failure_when_no_responder_answers(capsys):
    with socket.socket() as sock:  # a port with nothing listening
        sock.bind(("127.0.0.1", 0))
        silent = "127.0.0.1:%d" % sock.getsockname()[1]
    directory = Directory(make_tcp_responder_transport(), rng=random.Random(1))
    directory.register("user@example.com", ResponderEndpoint(silent))
    dserver = serve_directory(directory, "127.0.0.1:0")
    try:
        rc = requester_main(["--directory", dserver.address,
                             "--account", "user@example.com", "--t-goal", "0.05",
                             "--password", "hunter2", "--hash-cost", "4",
                             "--auto-consent"])
    finally:
        dserver.shutdown()
        dserver.server_close()
    captured = capsys.readouterr()
    assert rc == 4
    assert "accepted" not in captured.out
    assert "answered" in captured.err


@pytest.mark.parametrize("directory_address, extra", [
    ("{served}", ["--d", "-1"]),
    ("no-port", []),
    ("{served}", ["--hash-cost", "64"]),
    ("{served}", ["--hash-cost", "0"]),
], ids=["negative-d", "bad-directory-address", "hash-cost-64", "hash-cost-0"])
def test_requester_reports_a_bad_input_in_one_line(capsys, directory_address, extra):
    directory = Directory(make_tcp_responder_transport(), rng=random.Random(2))
    directory.register("user@example.com", ResponderEndpoint("127.0.0.1:1"))
    dserver = serve_directory(directory, "127.0.0.1:0")
    try:
        rc = requester_main(["--directory", directory_address.format(served=dserver.address),
                             "--account", "user@example.com", "--t-goal", "0.05",
                             "--password", "hunter2", "--hash-cost", "4",
                             "--auto-consent", *extra])
    finally:
        dserver.shutdown()
        dserver.server_close()
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _closed_port_address():
    with socket.socket() as sock:  # a port with nothing listening
        sock.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % sock.getsockname()[1]


@pytest.mark.parametrize("t_goal, code, prefix", [
    (t_goal, 2, "rejected: ") for t_goal in ("2.5", "inf", "nan", "0", "-1")
] + [("2.0", 4, "error: ")])  # trusted: the directory waits 2 s
def test_requester_refuses_a_goal_the_directory_will_not_wait_for(t_goal, code, prefix):
    # The directory is unreachable, so a goal let through ends in exit 4.
    proc = subprocess.run(
        [sys.executable, "-m", "reuseguard.run", "requester",
         "--directory", _closed_port_address(), "--account", "user@example.com",
         "--t-goal", t_goal, "--password", "hunter2"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1, proc.stderr
