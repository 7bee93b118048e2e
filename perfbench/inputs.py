"""Seeded workload inputs: the rows and statements the program receives.

Everything here is a pure function of the seed.  Each client draws its
statements from its own stream (``seed``, workload, client index), so a
client's sequence is fixed by the seed however many requests it gets to
send in the measured window.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Any, Optional

#: Sources tagged on customer cells and their credibility ratings (the
#: ``credibility`` scoring profile registered by the tagged workloads).
SOURCE_RATINGS = {
    "acct'g": 0.9,
    "Nexis": 0.8,
    "sales": 0.7,
    "phone": 0.5,
    "estimate": 0.3,
}
SOURCES = tuple(SOURCE_RATINGS)
STREETS = ("Jay", "Lois", "Elm", "Oak", "Main", "Pine")
BASE_DATE = dt.date(1990, 1, 1)
DATE_SPAN_DAYS = 1000
MAX_EMPLOYEES = 10_000


def rng_for(seed: int, *stream: Any) -> random.Random:
    """An independent generator for one named stream of one seed."""
    return random.Random(":".join(str(part) for part in (seed,) + stream))


@dataclass(frozen=True)
class Request:
    """One generated ``POST /query`` request and how to check it."""

    sql: str
    strict: bool = False
    tags: bool = False
    #: Statement the oracle runs; differs from ``sql`` only where the
    #: oracle relation spells ``QUALITY(credibility)`` as a column.
    oracle_sql: Optional[str] = None
    #: Whether row order is part of the answer (ORDER BY present).
    ordered: bool = True
    #: Whether this response is in the seeded checked sample.
    check: bool = True

    def body(self) -> bytes:
        return json.dumps(
            {"sql": self.sql, "strict": self.strict, "tags": self.tags}
        ).encode("utf-8")


# -- events (lookup_keepalive) ----------------------------------------------


def event_rows(seed: int, rows: int, regions: int) -> list[dict[str, Any]]:
    """The BENCH_SERVICE ``events`` shape with seeded, distinct amounts.

    Distinct amounts make every ``ORDER BY amount`` answer unique.
    """
    amounts = rng_for(seed, "events").sample(range(10_000_000), rows)
    return [
        {
            "event_id": index,
            "region": f"region_{index % regions}",
            "amount": amounts[index] / 100.0,
        }
        for index in range(rows)
    ]


def lookup_pool(seed: int, size: int, regions: int) -> list[Request]:
    rng = rng_for(seed, "lookup-pool")
    pool = []
    for region in rng.sample(range(regions), size):
        floor = rng.randrange(0, 5_000_000) / 100.0
        pool.append(
            Request(
                "SELECT event_id, amount FROM events "
                f"WHERE region = 'region_{region}' AND amount >= {floor:.2f} "
                "ORDER BY amount DESC LIMIT 20"
            )
        )
    return pool


class PoolStream:
    """A client's seeded walk over a fixed statement pool.

    The walk visits the pool in seeded shuffled rounds, so every client
    sends each statement equally often, whatever the seed.
    """

    def __init__(self, pool: list[Request], seed: int, name: str, client: int):
        self._pool = pool
        self._rng = rng_for(seed, name, "client", client)
        self._round: list[Request] = []

    def next(self) -> Request:
        if not self._round:
            self._round = self._rng.sample(self._pool, len(self._pool))
        return self._round.pop()


# -- customers (adhoc_quality, ingest_mixed) --------------------------------


def customer_name(index: int) -> str:
    return f"co{index:06d}"


def _tags(rng: random.Random) -> list[tuple[str, Any]]:
    created = BASE_DATE + dt.timedelta(days=rng.randrange(DATE_SPAN_DAYS))
    return [("creation_time", created), ("source", rng.choice(SOURCES))]


def customer_values(seed: int, index: int) -> dict[str, Any]:
    """Row ``index`` of the customer relation as plain values and tags.

    Each row depends only on (seed, index), so the writer's sliding
    window of ids always holds the same rows for the same ids.
    """
    rng = rng_for(seed, "customer", index)
    address = (
        f"{rng.randrange(1, 1000)} {rng.choice(STREETS)} St",
        _tags(rng),
    )
    employees = (rng.randrange(1, MAX_EMPLOYEES), _tags(rng))
    return {
        "co_name": customer_name(index),
        "address": address,
        "employees": employees,
    }


def _date(rng: random.Random, low: float = 0.0, high: float = 1.0) -> str:
    """A date literal in the [low, high) share of the tagged date span."""
    days = rng.randrange(int(low * DATE_SPAN_DAYS), int(high * DATE_SPAN_DAYS))
    return (BASE_DATE + dt.timedelta(days=days)).isoformat()


def _quote(text: str) -> str:
    """A QSQL string literal (``'`` doubled inside, as in ``'acct''g'``)."""
    return "'" + text.replace("'", "''") + "'"


def _oracle(sql: str) -> str:
    return sql.replace("QUALITY(credibility)", "cred")


def _score_topk(threshold: float, below: int, k: int) -> str:
    return (
        "SELECT co_name, address FROM customer "
        f"WHERE QUALITY(credibility) > {threshold:.3f} AND employees < {below} "
        f"ORDER BY QUALITY(credibility) DESC, co_name LIMIT {k}"
    )


def _tag_topk(source: str, above: int, k: int) -> str:
    return (
        "SELECT co_name, employees FROM customer "
        f"WHERE QUALITY(employees.source) = {_quote(source)} "
        f"AND employees > {above} "
        f"ORDER BY employees DESC, co_name LIMIT {k}"
    )


class AdhocStream:
    """Ad hoc quality statements with fresh literals on every request.

    Literal ranges are narrow enough that one request's work varies
    within a small factor, so the tail reflects the system, not a rare
    huge statement.
    """

    SHAPES = 6

    def __init__(
        self,
        seed: int,
        client: int,
        rows: int,
        strict_share: float,
        tags_share: float,
        check_share: float,
    ) -> None:
        self._rng = rng_for(seed, "adhoc", "client", client)
        self._rows = rows
        self._strict = strict_share
        self._tags = tags_share
        self._check = check_share
        self._sent = self._rng.randrange(self.SHAPES)

    def next(self) -> Request:
        """The next request; shapes rotate so the mix is the same for every seed."""
        rng = self._rng
        shape = self._sent % self.SHAPES
        self._sent += 1
        ordered = True
        if shape == 0:
            sql = _tag_topk(
                rng.choice(SOURCES), rng.randrange(3000, 6000), rng.randrange(5, 51)
            )
        elif shape == 1:
            sql = _score_topk(
                rng.randrange(550, 750) / 1000.0,
                rng.randrange(4000, 7000),
                rng.randrange(5, 51),
            )
        elif shape == 2:
            ordered = False
            sql = (
                "SELECT QUALITY(address.source) AS src, COUNT(*) AS n, "
                "AVG(employees) AS avg_employees FROM customer "
                f"WHERE QUALITY(address.creation_time) >= DATE '{_date(rng, 0.3, 0.7)}' "
                f"AND employees > {rng.randrange(2000, 4000)} "
                "GROUP BY QUALITY(address.source)"
            )
        elif shape == 3:
            ordered = False
            low = rng.randrange(MAX_EMPLOYEES - 200)
            sql = (
                "SELECT co_name, address, employees FROM customer "
                f"WHERE employees >= {low} "
                f"AND employees < {low + rng.randrange(20, 200)} "
                f"AND QUALITY(address.source) <> {_quote(rng.choice(SOURCES))}"
            )
        elif shape == 4:
            ordered = False
            sql = (
                "SELECT co_name, employees FROM customer "
                f"WHERE QUALITY(employees.creation_time) >= DATE '{_date(rng)}' "
                f"AND QUALITY(employees.source) = {_quote(rng.choice(SOURCES))} "
                f"AND employees > {rng.randrange(9000, MAX_EMPLOYEES)}"
            )
        else:
            ordered = False
            names = ", ".join(
                f"'{customer_name(rng.randrange(self._rows))}'"
                for _ in range(rng.randrange(1, 6))
            )
            sql = (
                "SELECT co_name, address, employees FROM customer "
                f"WHERE co_name IN ({names}) "
                f"AND QUALITY(credibility) >= {rng.randrange(0, 900) / 1000.0:.3f}"
            )
        return Request(
            sql,
            strict=rng.random() < self._strict,
            tags=rng.random() < self._tags,
            oracle_sql=_oracle(sql),
            ordered=ordered,
            check=rng.random() < self._check,
        )


def ingest_pool(seed: int, size: int) -> list[Request]:
    """Fixed score and tag lookups (LIMIT 20) read beside the writer."""
    rng = rng_for(seed, "ingest-pool")
    pool = []
    for index in range(size):
        # Narrow literal ranges: every seed's pool does alike work.
        if index % 2:
            sql = _tag_topk(SOURCES[index // 2 % len(SOURCES)], rng.randrange(4000, 5000), 20)
        else:
            sql = _score_topk(rng.randrange(550, 650) / 1000.0, rng.randrange(6000, 7000), 20)
        pool.append(Request(sql, oracle_sql=_oracle(sql)))
    return pool


class CheckedPoolStream(PoolStream):
    """A pool walk that also draws the seeded checked-sample flag."""

    def __init__(self, pool, seed, name, client, check_share):
        super().__init__(pool, seed, name, client)
        self._check = check_share

    def next(self) -> Request:
        request = super().next()
        return replace(request, check=self._rng.random() < self._check)


# -- self-check ---------------------------------------------------------------


def fingerprint(parts: Any) -> str:
    """A digest of generated inputs (rows, statements, request streams)."""
    text = json.dumps(parts, default=repr, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
