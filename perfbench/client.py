"""Closed-loop load generator for the serve stage, run as its own process.

    python3 perfbench/client.py HOST PORT CONNECTIONS < requests.txt

Reads one request line per input line.  Request ``i`` goes out on
connection ``i mod CONNECTIONS``, one thread per connection, each waiting
for its answer before sending the next.  Prints ``elapsed SECONDS`` and
then, in input order, ``LATENCY_SECONDS ANSWER`` per request.  A request
that fails at the socket is answered ``error: client ...``.

A fresh process keeps the benchmark's own heap and history out of the
client-side latencies.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.serve.client import ServeClient

from servetier import SOCKET_TIMEOUT


def main() -> int:
    host, port, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    requests = sys.stdin.read().splitlines()
    answers = ["error: client not sent"] * len(requests)
    latencies = [0.0] * len(requests)
    connections = [ServeClient(host, port, timeout=SOCKET_TIMEOUT) for _ in range(count)]

    def drive(slot: int) -> None:
        connection = connections[slot]
        for i in range(slot, len(requests), count):
            tick = time.perf_counter()
            try:
                answers[i] = connection.request(requests[i])
            except OSError as error:
                answers[i] = f"error: client {error}"
            latencies[i] = time.perf_counter() - tick

    threads = [threading.Thread(target=drive, args=(slot,)) for slot in range(count)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for connection in connections:
        connection.close()
    lines = [f"elapsed {elapsed!r}"]
    lines += [f"{latency!r} {answer}" for latency, answer in zip(latencies, answers)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
