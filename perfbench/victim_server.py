"""Serve one model over loopback HTTP through the ``ensattack serve`` verb.

    python3 perfbench/victim_server.py MODEL.bem [--stats FILE]

Prints the verb's "serving ... on URL" line and runs until SIGINT. With
``--stats`` every request handler is timed, and on exit the handler
durations (ns) and reply statuses are written to FILE as JSON, in the
order the requests were handled.
"""

import argparse
import json
import signal
import sys
import threading
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ensattack import cli, server  # noqa: E402


def _time_handlers(handle_ns: list, statuses: list) -> None:
    handler = server._Handler
    send = handler._send
    lock = threading.Lock()

    def timed_send(self, status, payload):
        self._bench_status = status
        return send(self, status, payload)

    def timed(method):
        def run(self):
            self._bench_status = None
            t0 = perf_counter_ns()
            try:
                return method(self)
            finally:
                dur = perf_counter_ns() - t0
                with lock:
                    handle_ns.append(dur)
                    statuses.append(self._bench_status)
        return run

    handler._send = timed_send
    handler.do_GET = timed(handler.do_GET)
    handler.do_POST = timed(handler.do_POST)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model")
    parser.add_argument("--stats", default=None)
    args = parser.parse_args()
    # a process started in the background can inherit SIGINT as ignored;
    # the verb stops on KeyboardInterrupt, so make SIGINT raise it again
    signal.signal(signal.SIGINT, signal.default_int_handler)
    handle_ns, statuses = [], []
    if args.stats:
        _time_handlers(handle_ns, statuses)
    rc = cli.main(["serve", "--model", args.model, "--mode", "soft", "--bind", "127.0.0.1:0"])
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            json.dump({"handle_ns": handle_ns, "status": statuses}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
