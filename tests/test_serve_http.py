"""HTTP/1.1 framing of a real ``repro serve``, on raw sockets.

The server frames requests and responses itself (``repro.serve.server``).
These tests hold it to the wire: a request it cannot frame gets a typed
JSON error and a closed connection, so no unread byte parses as the next
request; keep-alive follows the request's version and ``Connection``
header; ``Expect: 100-continue`` is answered; pipelined requests are
answered in order; ``Date`` is an IMF-fixdate; every status line carries
the reason phrase ``http.HTTPStatus`` names.  A client that resets its
connection ends it quietly, a POST on a kept-alive connection while the
server drains is a 503, and ``--verbose`` logs one line per response.
"""

import email.utils
import json
import os
import signal
import socket
import struct
import time
from http import HTTPStatus

import pytest

from tests.serve_client import drain_server, spawn_server

BODY = json.dumps(
    {"program": "dnc", "bind": {"m": 3}, "topology": "mesh:2x2"}
).encode()


def _post(body: bytes = BODY) -> bytes:
    return (b"POST /v1/map HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body)


HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    env = {**os.environ,
           "REPRO_CACHE_DIR": str(tmp_path_factory.mktemp("serve-cache"))}
    env.pop("REPRO_CACHE", None)
    env.pop("REPRO_CHAOS", None)
    process, host, port = spawn_server(env=env)
    yield host, port
    drain_server(process)


class Reader:
    """Responses off one socket, one at a time, bytes kept across calls
    (a pipelined second response may arrive with the first)."""

    def __init__(self, sock):
        self.sock, self.buf = sock, b""

    def _fill(self, size: int) -> None:
        while len(self.buf) < size:
            chunk = self.sock.recv(65536)
            assert chunk, f"connection closed after {self.buf!r}"
            self.buf += chunk

    def response(self) -> tuple[int, dict, bytes]:
        """``(status, headers, body)``; the status line's reason phrase
        must be the one ``HTTPStatus`` names."""
        while b"\r\n\r\n" not in self.buf:
            self._fill(len(self.buf) + 1)
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, code, phrase = status_line.split(" ", 2)
        assert version == "HTTP/1.1"
        assert phrase == HTTPStatus(int(code)).phrase, status_line
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers.get("Content-Length", 0))
        self._fill(length)
        body, self.buf = self.buf[:length], self.buf[length:]
        return int(code), headers, body

    def closed(self) -> bool:
        return not self.buf and self.sock.recv(1) == b""


def _exchange(server, request: bytes) -> tuple[int, dict, bytes, bool]:
    """One request on a fresh connection: ``(status, headers, body,
    whether the server then closed the connection)``."""
    with socket.create_connection(server, timeout=30) as sock:
        sock.sendall(request)
        reader = Reader(sock)
        status, headers, body = reader.response()
        if headers.get("Connection") == "close":
            return status, headers, body, reader.closed()
        sock.sendall(HEALTH)  # still open: the next request is answered
        assert reader.response()[0] == 200
        return status, headers, body, False


REFUSALS = {
    "chunked": (b"POST /v1/map HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n" % len(BODY) + BODY + b"\r\n0\r\n\r\n",
                411, "LengthRequired"),
    "conflicting-lengths": (
        b"POST /v1/map HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
        b"Content-Length: 70\r\n\r\n" + BODY, 400, "BadRequest"),
    "garbage-line": (b"GARBAGE\r\n\r\n", 400, "BadRequest"),
    "bad-version": (b"GET /v1/health HTTP/x\r\n\r\n", 400, "BadRequest"),
    "http2": (b"GET /v1/health HTTP/2.0\r\n\r\n", 505,
              "HTTPVersionNotSupported"),
    "method": (b"DELETE /v1/map HTTP/1.1\r\nHost: x\r\n\r\n", 501,
               "NotImplemented"),
    "long-line": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414,
                  "URITooLong"),
    "long-header": (b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"a" * 70_000
                    + b"\r\n\r\n", 431, "HeaderFieldsTooLarge"),
    "many-headers": (b"GET /v1/health HTTP/1.1\r\n"
                     + b"".join(b"X-%d: 1\r\n" % i for i in range(101))
                     + b"\r\n", 431, "HeaderFieldsTooLarge"),
    "get-with-body": (b"GET /v1/health HTTP/1.1\r\nContent-Length: 5\r\n"
                      b"\r\nhello", 400, "BadRequest"),
    "header-without-colon": (b"GET /v1/health HTTP/1.1\r\nHost x\r\n\r\n",
                             400, "BadRequest"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_an_unframeable_request_is_a_typed_error_and_a_close(server, name):
    request, expected, kind = REFUSALS[name]
    status, headers, body, closed = _exchange(server, request)
    assert (status, headers.get("Connection"), closed) == (
        expected, "close", True)
    assert headers["Content-Type"] == "application/json"
    error = json.loads(body)["error"]
    assert error["type"] == kind and error["exit_code"] == 2


def test_a_request_with_exactly_100_headers_is_served(server):
    request = (b"GET /v1/health HTTP/1.1\r\n"
               + b"".join(b"X-%d: 1\r\n" % i for i in range(100)) + b"\r\n")
    assert _exchange(server, request)[0] == 200


def test_conflicting_lengths_leave_no_bytes_behind(server):
    """The refusal's close is what keeps the 68 unread body bytes from
    parsing as a request: nothing but the one response comes back."""
    with socket.create_connection(server, timeout=30) as sock:
        sock.sendall(REFUSALS["conflicting-lengths"][0] + HEALTH)
        reader = Reader(sock)
        assert reader.response()[0] == 400
        assert reader.closed()


def test_expect_100_continue(server):
    with socket.create_connection(server, timeout=30) as sock:
        request = _post()
        head, _, body = request.partition(b"\r\n\r\n")
        sock.sendall(head + b"\r\nExpect: 100-continue\r\n\r\n")
        reader = Reader(sock)
        assert reader.response()[0] == 100
        sock.sendall(body)
        status, headers, payload = reader.response()
        assert status == 200 and "Connection" not in headers
        assert json.loads(payload)["result"]["mapping"]


def test_http_1_0_closes_unless_asked_to_keep_alive(server):
    status, headers, _, closed = _exchange(
        server, b"GET /v1/health HTTP/1.0\r\n\r\n")
    assert (status, headers.get("Connection"), closed) == (200, "close", True)
    status, headers, _, closed = _exchange(
        server, b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
    assert (status, "Connection" in headers, closed) == (200, False, False)


def test_http_1_1_stays_open_unless_asked_to_close(server):
    status, headers, _, closed = _exchange(server, HEALTH)
    assert (status, "Connection" in headers, closed) == (200, False, False)
    status, headers, _, closed = _exchange(
        server, b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert (status, headers.get("Connection"), closed) == (200, "close", True)


def test_pipelined_requests_are_answered_in_order(server):
    with socket.create_connection(server, timeout=30) as sock:
        sock.sendall(_post() + b"GET /nope HTTP/1.1\r\n\r\n" + HEALTH)
        reader = Reader(sock)
        status, _, body = reader.response()
        assert status == 200 and json.loads(body)["result"]["mapping"]
        assert reader.response()[0] == 404
        status, _, body = reader.response()
        assert status == 200
        assert json.loads(body)["format"] == "oregami-serve-health-v1"


def test_date_is_an_imf_fixdate(server):
    before = time.time()
    date = _exchange(server, HEALTH)[1]["Date"]
    stamp = email.utils.parsedate_to_datetime(date).timestamp()
    assert email.utils.formatdate(stamp, usegmt=True) == date
    assert int(before) <= stamp <= time.time()


@pytest.mark.parametrize("request_, expected", [
    (HEALTH, 200),
    (b"GET /nope HTTP/1.1\r\n\r\n", 404),
    (_post(b"{nope"), 400),
    (b"POST /v1/map HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (1 << 30),
     413),
    (_post(json.dumps({
        "program": "jacobi", "bind": {"rows": 16, "cols": 16, "msize": 4},
        "topology": "mesh:4x4", "deadline_s": 0.001,
        "config": {"sim": {"hop_latency": 3.5}},
    }).encode()), 504),
], ids=["200", "404", "400", "413", "504"])
def test_reason_phrases_are_http_status_phrases(server, request_, expected):
    # Reader.response() checks the phrase of every status line it reads;
    # 100 and the framing statuses are read above, 503 below
    assert _exchange(server, request_)[0] == expected


def test_resets_are_quiet_draining_is_a_503_and_verbose_logs_each(tmp_path):
    env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path)}
    env.pop("REPRO_CHAOS", None)
    process, host, port = spawn_server(["--verbose"], env=env)
    try:
        # reset once idle between requests, once in the middle of one
        for tail in (b"", HEALTH[:20]):
            sock = socket.create_connection((host, port), timeout=30)
            sock.sendall(HEALTH)
            Reader(sock).response()
            sock.sendall(tail)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()  # RST, not FIN
        # a keep-alive connection's next POST while draining is a 503
        with socket.create_connection((host, port), timeout=30) as sock:
            reader = Reader(sock)
            sock.sendall(HEALTH)
            reader.response()
            process.send_signal(signal.SIGTERM)
            time.sleep(0.5)
            sock.sendall(_post())
            status, headers, _ = reader.response()
            assert (status, headers["Connection"]) == (503, "close")
            assert reader.closed()
    except BaseException:
        process.kill()
        process.wait(timeout=60)
        raise
    assert process.wait(timeout=60) == 0
    output = process.stdout.read()
    process.stdout.close()
    assert "Traceback" not in output and "Error" not in output, output
    *logged, last = output.splitlines()
    assert last == "repro serve drained, shutting down"
    assert [line.rsplit(" ", 1)[0] for line in logged] == [
        '127.0.0.1 - "GET /v1/health HTTP/1.1" 200'] * 3 + [
        '127.0.0.1 - "POST /v1/map HTTP/1.1" 503'], output
