"""Start, watch and stop reuseguard daemons as child processes."""

from __future__ import annotations

import ctypes
import itertools
import os
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1
_serial = itertools.count()


def _die_with_parent():
    # Runs in the child before exec: a benchmark killed outright takes its
    # daemons with it instead of leaving them listening.
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One ``responder`` or ``directoryd`` process.

    Untraced daemons run as ``python -m reuseguard.run TOOL ARGS``; traced
    ones run under ``perfbench/launch.py``, which wraps the layers first.
    The bound address is read from the daemon's first stdout line.
    """

    def __init__(self, tool, args, workdir, trace):
        self.label = f"{tool}-{next(_serial)}"
        self.trace_out = os.path.join(workdir, self.label + ".trace.json")
        self.window_file = os.path.join(workdir, "window.json")
        self.log_path = os.path.join(workdir, self.label + ".log")
        if trace:
            cmd = [sys.executable, "-u", os.path.join(HERE, "launch.py"),
                   self.trace_out, self.window_file, tool, *args]
        else:
            cmd = [sys.executable, "-u", "-m", "reuseguard.run", tool, *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(self.log_path, "wb")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self._log,
                                     preexec_fn=_die_with_parent)
        self._line = b""
        self.address = None
        self.start_s = None

    def feed(self, chunk):
        """Take stdout bytes until the 'listening on HOST:PORT' line is whole."""
        if not chunk:
            raise DaemonError(f"{self.label} exited before listening: {self.log_tail()}")
        self._line += chunk
        if not self._line.endswith(b"\n"):
            return False
        self.start_s = time.monotonic() - self.started
        text = self._line.decode()
        if " listening on " not in text:
            raise DaemonError(f"{self.label} printed {text!r}")
        self.address = text.split(" listening on ")[1].split()[0]
        return True

    def alive(self):
        return self.proc.poll() is None

    def cpu_seconds(self):
        """User plus system CPU of the process, all threads, from /proc."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def log_tail(self):
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode(errors="replace")

    def interrupt(self):
        """SIGINT: the daemons' clean shutdown."""
        if self.alive():
            self.proc.send_signal(signal.SIGINT)

    def reap(self, grace):
        """Wait for exit, killing the process after ``grace`` seconds."""
        try:
            self.proc.wait(grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def kill(self):
        if self.alive():
            self.proc.kill()


def start_all(specs, workdir, trace, timeout=60.0):
    """Start every ``(tool, args)`` at once and wait until each listens."""
    daemons = []
    try:
        for tool, args in specs:
            daemons.append(Daemon(tool, args, workdir, trace))
        pending = {d.proc.stdout.fileno(): d for d in daemons}
        deadline = time.monotonic() + timeout
        while pending:
            remaining = deadline - time.monotonic()
            ready = select.select(list(pending), [], [], remaining)[0] if remaining > 0 else []
            if not ready:
                names = ", ".join(d.label for d in pending.values())
                raise DaemonError(f"{names} did not report an address in {timeout} s")
            for fd in ready:
                if pending[fd].feed(os.read(fd, 4096)):
                    del pending[fd]
    except BaseException:
        stop_all(daemons)
        raise
    return daemons


def stop_all(daemons, grace=10.0):
    """Interrupt every daemon; kill those still running after ``grace`` s."""
    for daemon in daemons:
        daemon.interrupt()
    for daemon in daemons:
        daemon.reap(grace)
