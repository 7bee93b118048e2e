"""Load generation: closed-loop HTTP readers and an open-loop writer.

Readers use stdlib ``http.client`` with its default socket options and
time each request from send to the last body byte.  A keep-alive reader
holds one connection for its whole run; the other kind opens a new
connection per request, as curl and ``urlopen`` do.
"""

from __future__ import annotations

import http.client
import threading
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Any, Callable, Optional

from measure import Recorder

HEADERS = {"Content-Type": "application/json"}


@dataclass
class Response:
    """A response kept for answer checking after the timed loop."""

    index: int  # position in the client's Recorder
    request: Any
    body: bytes
    #: Writer progress: operations completed before send, and operations
    #: started by receipt (None without a writer).
    ops_before: Optional[int] = None
    ops_after: Optional[int] = None


class Reader:
    """One closed-loop client: the next request waits for the last reply."""

    def __init__(
        self,
        address: tuple[str, int],
        stream: Any,
        keep_alive: bool,
        writer: Optional["Writer"] = None,
    ) -> None:
        self.address = address
        self.stream = stream
        self.keep_alive = keep_alive
        self.writer = writer
        self.recorder = Recorder()
        self.kept: list[Response] = []
        self.connects = 0
        self.response_bytes = 0
        self.requests: list[Any] = []  # every request sent, in order

    def run(self, deadline: float) -> None:
        host, port = self.address
        conn: Optional[http.client.HTTPConnection] = None
        writer = self.writer
        try:
            while perf_counter() < deadline:
                request = self.stream.next()
                body = request.body()
                before = writer.completed if writer is not None else None
                start = perf_counter()
                try:
                    if conn is None:
                        conn = http.client.HTTPConnection(host, port, timeout=60)
                        self.connects += 1
                    conn.request("POST", "/query", body, HEADERS)
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException):
                    if conn is not None:
                        conn.close()
                        conn = None
                    self.requests.append(request)
                    self.recorder.fail()
                    continue
                elapsed = perf_counter() - start
                after = writer.started if writer is not None else None
                if not self.keep_alive:
                    conn.close()
                    conn = None
                self.requests.append(request)
                if response.status != 200:
                    self.recorder.fail()
                    continue
                index = self.recorder.ok(elapsed)
                self.response_bytes += len(data)
                if request.check:
                    self.kept.append(Response(index, request, data, before, after))
        finally:
            if conn is not None:
                conn.close()


class Writer:
    """The open-loop writer: one batch due every ``1 / rate`` seconds.

    Each batch is an ``insert_many`` of fresh rows and one ``delete`` of
    as many of the oldest rows.  ``started`` and ``completed`` count the
    relation's row-level operations (one per inserted row, one per
    delete): a reader that pins between them sees exactly the state
    after some count in that range.  Every ``checkpoint_every`` batches
    the writer saves the relation.
    """

    def __init__(
        self,
        relation: Any,
        batches: list[tuple[list[Any], frozenset[str]]],
        rate: float,
        checkpoint_every: int,
        checkpoint: Callable[[], None],
    ) -> None:
        self.relation = relation
        self.batches = batches
        self.rate = rate
        self.checkpoint_every = checkpoint_every
        self.checkpoint = checkpoint
        self.started = 0
        self.completed = 0
        self.recorder = Recorder()  # batch latency from when it was due
        self.late: list[float] = []
        self.write_seconds: list[float] = []
        self.checkpoint_seconds: list[float] = []
        self.checkpoint_ops: Optional[int] = None
        self.batches_done = 0
        self.error: Optional[Exception] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, begin: float, deadline: float) -> None:
        self._thread = threading.Thread(
            target=self._run, args=(begin, deadline), name="bench-writer"
        )
        self._thread.start()

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()

    def _run(self, begin: float, deadline: float) -> None:
        try:
            self._loop(begin, deadline)
        except Exception as exc:  # reported as a failed operation
            self.error = exc
            self.recorder.fail()

    def _loop(self, begin: float, deadline: float) -> None:
        relation = self.relation
        for number, (rows, dead) in enumerate(self.batches):
            due = begin + number / self.rate
            if due >= deadline:
                return
            now = perf_counter()
            if now < due:
                sleep(due - now)
            start = perf_counter()
            self.late.append(start - due)
            self.started = self.completed + len(rows)
            relation.insert_many(rows)
            self.completed = self.started
            self.started += 1
            relation.delete(lambda row: row.value("co_name") in dead)
            self.completed = self.started
            self.write_seconds.append(perf_counter() - start)
            if (number + 1) % self.checkpoint_every == 0:
                saved = perf_counter()
                self.checkpoint()
                self.checkpoint_seconds.append(perf_counter() - saved)
                self.checkpoint_ops = self.completed
            self.recorder.ok(perf_counter() - due)
            self.batches_done += 1
        raise RuntimeError(
            f"writer ran out of generated batches ({len(self.batches)})"
        )


def run_readers(readers: list[Reader], deadline: float) -> float:
    """Run every reader on its own thread; returns the wall seconds."""
    threads = [
        threading.Thread(target=reader.run, args=(deadline,), name=f"bench-reader-{i}")
        for i, reader in enumerate(readers)
    ]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return perf_counter() - start
