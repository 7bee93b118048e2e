"""The benchmark's own tests: percentiles, failure accounting, inputs."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

import inputs
from httpload import Reader, Response
from measure import FAILED, Recorder, median, tail_percentile
from oracle import same_answer
from workloads import WORKLOADS, LookupKeepalive

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
CONFIG = json.loads((BENCH / "config.json").read_text())
LADDER = CONFIG["tail"]["ladder"]


# -- percentile selection ------------------------------------------------------


@pytest.mark.parametrize(
    "count, percentile",
    [(100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9), (99, 75.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, percentile):
    values = [float(i) for i in range(count)]
    pct, value, beyond = tail_percentile(values, LADDER, 10)
    assert pct == percentile
    assert beyond == sum(1 for v in values if v > value) >= 10
    higher = [p for p in LADDER if p > pct]
    for p in higher:  # every higher rung leaves fewer than ten beyond
        rank = math.ceil(p * count / 100)
        assert count - rank < 10


def test_tail_ignores_ties_at_the_percentile():
    values = [1.0] * 80 + [2.0] * 20
    # p90 has ten samples above its rank, but they tie with it.
    pct, value, beyond = tail_percentile(values, LADDER, 10)
    assert (pct, value, beyond) == (75.0, 1.0, 20)


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile([1.0] * 5 + [2.0] * 4, LADDER, 10) is None


# -- failures are samples, never dropped --------------------------------------


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    statuses: list[int] = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        status = self.statuses.pop(0)
        body = b'{"columns": [], "rows": [], "row_count": 0}'
        if status == 503:
            body = b'{"error": "overloaded"}'
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _Done(Exception):
    pass


class _FiniteStream:
    """Yields ``count`` requests, then stops the reader."""

    def __init__(self, count):
        self.left = count

    def next(self):
        if self.left == 0:
            raise _Done
        self.left -= 1
        return inputs.Request("SELECT a FROM t")


def _serve(statuses):
    _Stub.statuses = list(statuses)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    return server, thread


@pytest.mark.parametrize("keep_alive", [True, False])
def test_refused_request_counts_as_failed_sample(keep_alive):
    statuses = [200, 503, 200, 503, 503, 200]
    server, thread = _serve(statuses)
    reader = Reader(server.server_address[:2], _FiniteStream(len(statuses)), keep_alive)
    try:
        with pytest.raises(_Done):
            reader.run(perf_counter() + 30)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    recorder = reader.recorder
    assert recorder.attempted == 6
    assert recorder.failed == 3
    assert sum(1 for v in recorder.latencies if v == FAILED) == 3
    assert median(recorder.latencies) == FAILED  # refusals weigh on latency


def test_wrong_answer_counts_as_failed_sample(tmp_path):
    from repro.relational.catalog import Database
    from repro.relational.schema import Column, RelationSchema

    database = Database("t")
    database.create_relation(RelationSchema("t", [Column("a", "INT")]))
    database.insert_many("t", [{"a": 1}, {"a": 2}])
    request = inputs.Request("SELECT a FROM t ORDER BY a")
    reader = Reader(("127.0.0.1", 1), None, True)
    right = json.dumps({"columns": ["a"], "rows": [[1], [2]], "row_count": 2}).encode()
    wrong = json.dumps({"columns": ["a"], "rows": [[2], [1]], "row_count": 2}).encode()
    for body in (right, wrong):
        index = reader.recorder.ok(0.001)
        reader.kept.append(Response(index, request, body))
    workload = LookupKeepalive(1, CONFIG["workloads"]["lookup_keepalive"], 1, tmp_path)
    problems = workload.check(SimpleNamespace(source=database), [reader], None)
    assert len(problems) == 1
    assert reader.recorder.attempted == 2
    assert reader.recorder.failed == 1
    assert reader.recorder.latencies == [0.001, FAILED]


def test_mark_wrong_is_idempotent():
    recorder = Recorder()
    index = recorder.fail()
    recorder.mark_wrong(index)
    assert recorder.failed == 1


def test_unordered_answers_compare_as_multisets():
    expected = {"columns": ["a"], "rows": [[1], [2]], "row_count": 2}
    swapped = json.dumps({"columns": ["a"], "rows": [[2], [1]], "row_count": 2}).encode()
    assert same_answer(swapped, expected, ordered=False)
    assert not same_answer(swapped, expected, ordered=True)
    short = json.dumps({"columns": ["a"], "rows": [[1]], "row_count": 1}).encode()
    assert not same_answer(short, expected, ordered=False)


# -- generator determinism -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    params = CONFIG["workloads"][name]

    def digest(seed):
        return inputs.fingerprint(WORKLOADS[name](seed, params, 2, tmp_path).generate(2))

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_adhoc_literals_are_fresh():
    stream = inputs.AdhocStream(3, 0, 4096, 0.25, 0.25, 0.1)
    texts = [stream.next().sql for _ in range(500)]
    assert len(set(texts)) > 490  # nearly every text misses the plan cache


def test_ingest_states_follow_the_writer_operations(tmp_path):
    workload = WORKLOADS["ingest_mixed"](1, CONFIG["workloads"]["ingest_mixed"], 2, tmp_path)
    workload.generate(1)
    rows, size = workload.params["rows"], workload.batch
    assert workload.state_ids(0) == range(0, rows)
    assert workload.state_ids(3) == range(0, rows + 3)  # mid insert_many
    assert workload.state_ids(size) == range(0, rows + size)
    assert workload.state_ids(size + 1) == range(size, rows + size)


# -- the command ---------------------------------------------------------------


def _run(workdir: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=workdir,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_listed_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(
        ROOT, "--workload", "lookup_keepalive", "--seed", "5", "--seconds", "1", "--trace", trace
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[key])
    for metric in spec[key]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_command_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run(tmp_path, "--workload", "lookup_keepalive", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert "correct" not in out.stdout
