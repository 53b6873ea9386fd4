"""What the serve end-to-end tests need to talk to a real ``repro serve``.

Boot one (:func:`spawn_server`), stop it (:func:`drain_server`), send one
request (:func:`request_once`), send many at once (:func:`burst`).  It
asserts nothing and times nothing: the client that measures is
``benchmarks/layered/loadclient.py``.
"""

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time

_READY_RE = re.compile(r"listening on http://([^\s:]+):(\d+)")


def spawn_server(extra_args=(), *, env=None, timeout=30.0):
    """Boot ``python -m repro serve --port 0``; returns ``(process, host,
    port)`` once the ready line is out.  Stdout stays on a pipe -- read it
    after exit to see the drain line."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + timeout
    while True:
        line = process.stdout.readline()
        match = _READY_RE.search(line)
        if match:
            return process, match.group(1), int(match.group(2))
        if process.poll() is not None:
            raise RuntimeError(
                f"server exited with {process.returncode} before becoming "
                f"ready: {line!r}"
            )
        if time.monotonic() > deadline:
            process.kill()
            raise RuntimeError("server did not print its ready line in time")


def drain_server(process, *, timeout=30.0):
    """SIGTERM the server and wait for its graceful exit; returns its rc."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=5)
    if process.stdout is not None:
        process.stdout.read()
        process.stdout.close()
    return process.returncode


def _exchange(conn, method, path, body):
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload,
                 headers={"Content-Type": "application/json"} if payload else {})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def request_once(host, port, method, path, body=None, *, timeout=60.0):
    """One request on a fresh connection; returns ``(status, document)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        return _exchange(conn, method, path, body)
    finally:
        conn.close()


def burst(host, port, bodies, *, concurrency, barrier=False, timeout=60.0):
    """``POST /v1/map`` every body from *concurrency* threads.

    Bodies are dealt round-robin; each thread keeps one keep-alive
    connection and sends its share in order, so *concurrency* requests are
    in flight.  ``barrier=True`` holds every thread until all are ready and
    releases them together -- the thundering herd.  Returns the
    ``(status, document)`` pairs in the order of *bodies*.
    """
    responses = [None] * len(bodies)
    gate = threading.Barrier(concurrency) if barrier else None

    def worker(first):
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            if gate is not None:
                gate.wait(timeout=timeout)
            for index in range(first, len(bodies), concurrency):
                responses[index] = _exchange(
                    conn, "POST", "/v1/map", bodies[index]
                )
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(first,), daemon=True)
               for first in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses
