"""Start a reuseguard daemon with every layer traced.

    python3 perfbench/launch.py TRACE_OUT WINDOW_FILE {responder,directoryd} ARGS...

Wraps the layers, then runs ``cli.responder_main`` or ``cli.directoryd_main``
with ARGS.  When the daemon stops (SIGINT), it reads the measured window
``[start_ns, end_ns]`` from WINDOW_FILE and writes the per-name span summary
of that window to TRACE_OUT as JSON.  Without a window file it writes nothing.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from reuseguard import cli  # noqa: E402

import tracing  # noqa: E402

MAINS = {"responder": cli.responder_main, "directoryd": cli.directoryd_main}


def main(argv):
    trace_out, window_file, tool, args = argv[0], argv[1], argv[2], argv[3:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = MAINS[tool](args)
    if os.path.exists(window_file):
        with open(window_file) as fh:
            start_ns, end_ns = json.load(fh)
        with open(trace_out, "w") as fh:
            json.dump(tracer.summarise(start_ns, end_ns), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
