"""The three workloads: data, server set-up, readers, writer and checks."""

from __future__ import annotations

import gc
import http.client
import os
import shutil
import threading
from pathlib import Path
from typing import Any, Callable, Optional

import inputs
from httpload import Reader, Response, Writer
from layers import distinct_capture
from oracle import Checker, CustomerOracle, expected_payload, same_document

from repro.experiments.scenarios import CUSTOMER_SCHEMA, customer_tag_schema
from repro.quality.materialize import (
    ScoringProfile,
    clear_profiles,
    register_profile,
)
from repro.quality.scoring import credibility_scorer
from repro.relational import hash_partitions, storage
from repro.relational.catalog import Database
from repro.relational.schema import Column, RelationSchema
from repro.service.http import make_server
from repro.sql import clear_plan_cache
from repro.tagging.cell import QualityCell
from repro.tagging.indicators import IndicatorValue
from repro.tagging.relation import TaggedRelation


class Server:
    """A running HTTP front end over one service."""

    def __init__(self, source: Any, service: Any) -> None:
        self.source = source
        self.service = service
        self.http = make_server(service, port=0)
        self.address = self.http.server_address[:2]
        self._thread = threading.Thread(
            target=self.http.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="bench-http",
        )
        self._thread.start()

    def close(self) -> None:
        self.http.shutdown()
        self.http.server_close()
        self._thread.join()
        self.service.close()


def warm(address: tuple[str, int], requests: list[Any]) -> None:
    """Send each request once; the set-up ends when all are answered."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        for request in requests:
            conn.request("POST", "/query", request.body(), {"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"warm-up request failed: {response.status} {body!r}")
    finally:
        conn.close()


def reset_process_state() -> None:
    """Process-wide caches and registries back to empty, as at start."""
    clear_plan_cache()
    clear_profiles()
    gc.collect()


def to_cells(values: dict[str, Any]) -> dict[str, Any]:
    """Generated plain values and tags as a customer row of cells."""

    def cell(pair: tuple[Any, list[tuple[str, Any]]]) -> QualityCell:
        value, tags = pair
        return QualityCell(value, [IndicatorValue(name, tag) for name, tag in tags])

    return {
        "co_name": values["co_name"],
        "address": cell(values["address"]),
        "employees": cell(values["employees"]),
    }


class Workload:
    """One named workload; subclasses fill in data, readers and checks."""

    name = ""

    def __init__(self, seed: int, params: dict[str, Any], nproc: int, workdir: Path):
        self.seed = seed
        self.params = params
        self.nproc = nproc
        self.workdir = workdir

    # -- inputs ------------------------------------------------------------
    def generate(self, seconds: float) -> list[Any]:
        """Generate this run's inputs; returns their fingerprint parts."""
        raise NotImplementedError

    # -- set-up ------------------------------------------------------------
    def build_source(self) -> Any:
        raise NotImplementedError

    def register(self) -> None:
        """Register scoring profiles (tagged workloads)."""

    def warmup_requests(self) -> list[Any]:
        raise NotImplementedError

    def setup(self, service_factory: Callable[[Any], Any]) -> Server:
        source = self.build_source()
        self.register()
        server = Server(source, service_factory(source))
        warm(server.address, self.warmup_requests())
        return server

    # -- load ---------------------------------------------------------------
    def readers(self, server: Server, writer: Optional[Writer]) -> list[Reader]:
        raise NotImplementedError

    def writer(self, server: Server) -> Optional[Writer]:
        return None

    def capture(self) -> Callable[[str, Any], bool]:
        raise NotImplementedError

    # -- checks -------------------------------------------------------------
    def check(self, server: Server, readers: list[Reader], writer: Optional[Writer]) -> list[str]:
        """Check kept responses after the loop; marks wrong ones failed.

        Returns a description of each problem found.
        """
        cap = self.params.get("check_cap")
        if cap is not None:  # the seeded sample, capped in client order
            for reader in readers:
                del reader.kept[cap // len(readers):]
        checker = self.checker(server)
        problems = []
        for reader in readers:
            for response in reader.kept:
                if not checker.matches(response, self.states(response)):
                    reader.recorder.mark_wrong(response.index)
                    problems.append(f"wrong answer: {response.request.sql}")
        return problems

    def checker(self, server: Server) -> Checker:
        raise NotImplementedError

    def states(self, response: Response) -> Optional[list[Any]]:
        return None


class LookupKeepalive(Workload):
    name = "lookup_keepalive"

    def generate(self, seconds: float) -> list[Any]:
        p = self.params
        self.rows = inputs.event_rows(self.seed, p["rows"], p["regions"])
        self.pool = inputs.lookup_pool(self.seed, p["pool"], p["regions"])
        streams = [inputs.PoolStream(self.pool, self.seed, self.name, c) for c in range(self.nproc)]
        return [self.rows, self.pool, [[s.next() for _ in range(64)] for s in streams]]

    def build_source(self) -> Database:
        database = Database("bench")
        relation = database.create_relation(
            RelationSchema(
                "events",
                [Column("event_id", "INT"), Column("region", "STR"), Column("amount", "FLOAT")],
            ),
            enforce_key=False,
            partition_by=hash_partitions("region", self.params["buckets"]),
        )
        relation.insert_many(self.rows)
        return database

    def warmup_requests(self) -> list[Any]:
        return self.pool

    def readers(self, server: Server, writer: Optional[Writer]) -> list[Reader]:
        return [
            Reader(server.address, inputs.PoolStream(self.pool, self.seed, self.name, c), True)
            for c in range(self.nproc)
        ]

    def capture(self) -> Callable[[str, Any], bool]:
        return distinct_capture(len(self.pool))

    def checker(self, server: Server) -> Checker:
        return Checker(lambda _state: server.source)


class _Customers(Workload):
    """Shared parts of the two workloads over the tagged customer relation."""

    def _generate_customers(self, count: int) -> None:
        self.tag_schema = customer_tag_schema()
        self.cells = [to_cells(inputs.customer_values(self.seed, i)) for i in range(count)]

    def _profile(self) -> ScoringProfile:
        return ScoringProfile("credibility", [credibility_scorer(inputs.SOURCE_RATINGS)])

    def build_source(self) -> TaggedRelation:
        relation = TaggedRelation(CUSTOMER_SCHEMA, self.tag_schema)
        relation.repartition(hash_partitions("co_name", self.params["buckets"]))
        relation.insert_many(self.cells[: self.params["rows"]])
        return relation

    def register(self) -> None:
        register_profile(self._profile(), relations=[CUSTOMER_SCHEMA.name])

    def _oracle(self, count: int) -> CustomerOracle:
        oracle = CustomerOracle(CUSTOMER_SCHEMA, self.tag_schema, self._profile())
        for index in range(count):
            oracle.add(index, self.cells[index])
        return oracle


class AdhocQuality(_Customers):
    name = "adhoc_quality"

    def _stream(self, client: int) -> inputs.AdhocStream:
        p = self.params
        return inputs.AdhocStream(
            self.seed, client, p["rows"], p["strict_share"], p["tags_share"], p["check_share"]
        )

    def generate(self, seconds: float) -> list[Any]:
        self._generate_customers(self.params["rows"])
        warm_stream = self._stream(-1)
        self.warmups = [warm_stream.next() for _ in range(2 * inputs.AdhocStream.SHAPES)]
        streams = [self._stream(c) for c in range(self.nproc)]
        return [self.cells, self.warmups, [[s.next() for _ in range(64)] for s in streams]]

    def warmup_requests(self) -> list[Any]:
        return self.warmups

    def readers(self, server: Server, writer: Optional[Writer]) -> list[Reader]:
        return [Reader(server.address, self._stream(c), False) for c in range(self.nproc)]

    def capture(self) -> Callable[[str, Any], bool]:
        return distinct_capture(self.params["replay_cap"])

    def checker(self, server: Server) -> Checker:
        oracle = self._oracle(self.params["rows"])
        source = oracle.relation(range(self.params["rows"]))
        return Checker(lambda _state: source)


class IngestMixed(_Customers):
    name = "ingest_mixed"

    def generate(self, seconds: float) -> list[Any]:
        p = self.params
        w = p["writer"]
        self.batch = w["rows_per_batch"]
        #: Batches the writer can reach in ``seconds``, plus spares for
        #: the off-path refresh samples of the traced run.
        self.batch_count = int(w["batches_per_second"] * seconds) + 2 + p["refresh_samples"]
        self._generate_customers(p["rows"] + self.batch_count * self.batch)
        self.pool = inputs.ingest_pool(self.seed, p["pool"])
        streams = [self._stream(c) for c in range(self._reader_count())]
        return [self.cells, self.pool, [[s.next() for _ in range(64)] for s in streams]]

    def _reader_count(self) -> int:
        return max(1, self.nproc - 1)

    def _stream(self, client: int) -> inputs.CheckedPoolStream:
        return inputs.CheckedPoolStream(
            self.pool, self.seed, self.name, client, self.params["check_share"]
        )

    def warmup_requests(self) -> list[Any]:
        return self.pool

    def batches(self, first: int = 0) -> list[tuple[list[Any], frozenset[str]]]:
        """Batch k inserts ids rows + k*B .. and deletes ids k*B .. (k+1)*B."""
        rows, size = self.params["rows"], self.batch
        out = []
        for k in range(first, self.batch_count):
            new = self.cells[rows + k * size : rows + (k + 1) * size]
            dead = frozenset(inputs.customer_name(i) for i in range(k * size, (k + 1) * size))
            out.append((new, dead))
        return out

    def state_ids(self, ops: int) -> range:
        """Ids live after ``ops`` row-level writer operations.

        Each batch is ``B`` single-row inserts followed by one delete,
        so ``B + 1`` operations.
        """
        size = self.batch
        done, inserted = divmod(ops, size + 1)
        low = done * size
        return range(low, self.params["rows"] + low + inserted)

    def checkpoint_dir(self) -> Path:
        return self.workdir / "checkpoint"

    def writer(self, server: Server) -> Writer:
        target = self.checkpoint_dir()
        shutil.rmtree(target, ignore_errors=True)
        w = self.params["writer"]
        relation = server.source
        return Writer(
            relation,
            self.batches(),
            w["batches_per_second"],
            w["checkpoint_every_batches"],
            lambda: storage.save(relation, target),
        )

    def readers(self, server: Server, writer: Optional[Writer]) -> list[Reader]:
        return [
            Reader(server.address, self._stream(c), True, writer)
            for c in range(self._reader_count())
        ]

    def capture(self) -> Callable[[str, Any], bool]:
        return distinct_capture(self.params["replay_cap"], per_snapshot=True)

    def check(self, server, readers, writer):
        return super().check(server, readers, writer) + self.check_checkpoint(writer)

    def checker(self, server: Server) -> Checker:
        oracle = self._oracle(len(self.cells))
        return Checker(lambda ops: oracle.relation(self.state_ids(ops)))

    def states(self, response: Response) -> list[int]:
        # Most likely first: no write overlapped, then the newest state.
        first, last = response.ops_before, response.ops_after
        return [first, last] + list(range(first + 1, last))

    def check_checkpoint(self, writer: Writer) -> list[str]:
        """``load()`` of the last checkpoint equals the state it saved."""
        if writer.checkpoint_ops is None:
            # A run shorter than the checkpoint interval: take one now,
            # off the clock, so the round trip is still checked.
            writer.checkpoint()
            writer.checkpoint_ops = writer.completed
        self.checkpoint_payload = self.state_payload(writer.checkpoint_ops)
        loaded = storage.load(self.checkpoint_dir())
        if not same_document(expected_payload(loaded, True), self.checkpoint_payload, False):
            writer.recorder.fail()
            return ["checkpoint does not load back to the state it saved"]
        return []

    def state_payload(self, ops: int) -> dict[str, Any]:
        relation = TaggedRelation(CUSTOMER_SCHEMA, self.tag_schema)
        relation.insert_many(self.cells[i] for i in self.state_ids(ops))
        return expected_payload(relation, True)

    def checkpoint_bytes(self) -> int:
        return sum(
            path.stat().st_size for path in self.checkpoint_dir().rglob("*") if path.is_file()
        )


WORKLOADS = {cls.name: cls for cls in (LookupKeepalive, AdhocQuality, IngestMixed)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
