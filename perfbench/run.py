#!/usr/bin/env python3
"""One HTTP-to-JSON benchmark of the query service, split by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lookup_keepalive --seed 1 \\
        --seconds 30 --trace 0

It builds the workload's data from ``--seed``, starts the real HTTP
front end (``repro.service.http.make_server`` over a ``QueryService``)
in this process, drives it with closed-loop readers (and, for
``ingest_mixed``, an open-loop writer), checks the answers against the
naive interpreter, and prints a report.  The last line of standard
output is one JSON object.

- ``--trace 0`` measures for ``--seconds`` and reports the end-to-end
  metrics.
- ``--trace 1`` splits ``--seconds`` into an untraced pass and a traced
  pass over a fresh set-up with the same seed, and reports the
  per-layer metrics of the traced pass; the difference in median read
  latency between the two passes is the tracing overhead.

The exit code is 0 only when every checked answer was right and the
traced layers add up to the client latency.  Workload sizes, client
counts, the writer's rate and the checkpoint policy are in
``perfbench/config.json``; the benchmark's own tests run with
``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _metric(value: Any, unit: str) -> dict[str, Any]:
    if isinstance(value, float) and not math.isfinite(value):
        value = None
    return {"value": value, "unit": unit}


class Pass:
    """What one measured pass produced."""

    def __init__(self, readers, writer, wall, rss, cache, service, problems):
        self.readers = readers
        self.writer = writer
        self.wall = wall
        self.rss = rss
        self.cache = cache  # (hits, misses) of the plan cache during the pass
        self.service = service  # QueryService.stats() at the end
        self.problems = problems

    @property
    def recorders(self) -> list[Any]:
        out = [reader.recorder for reader in self.readers]
        return out + ([self.writer.recorder] if self.writer is not None else [])

    @property
    def latencies(self) -> list[float]:
        return [v for reader in self.readers for v in reader.recorder.latencies]

    @property
    def answered(self) -> list[float]:
        return [v for v in self.latencies if math.isfinite(v)]

    @property
    def attempted(self) -> int:
        return sum(recorder.attempted for recorder in self.recorders)

    @property
    def failed(self) -> int:
        return sum(recorder.failed for recorder in self.recorders)


def run_pass(workload: Any, server: Any, seconds: float) -> Pass:
    """Drive a set-up server for ``seconds``, stop it, check the answers."""
    from httpload import run_readers
    from repro.sql import plan_cache_stats

    writer = workload.writer(server)
    readers = workload.readers(server, writer)
    before = plan_cache_stats()
    begin = perf_counter()
    deadline = begin + seconds
    if writer is not None:
        writer.start(begin, deadline)
    wall = run_readers(readers, deadline)
    if writer is not None:
        writer.join()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = plan_cache_stats()
    service_stats = server.service.stats()
    server.close()
    problems = workload.check(server, readers, writer)
    if writer is not None and writer.error is not None:
        problems.append(f"writer failed: {writer.error!r}")
    cache = (after["hits"] - before["hits"], after["misses"] - before["misses"])
    return Pass(readers, writer, wall, rss, cache, service_stats, problems)


def latency_summary(values: list[float], tail: dict[str, Any], cap: float = 100.0):
    """Median and capped tail of latencies (seconds in, ms out)."""
    from measure import median, tail_percentile

    ladder = [pct for pct in tail["ladder"] if pct <= cap]
    found = tail_percentile(values, ladder, tail["min_beyond"])
    return _ms(median(values)), None if found is None else (found[0], _ms(found[1]), found[2])


def _tail_text(tail, count: int) -> str:
    if tail is None:
        return f"n/a (too few samples, n={count})"
    pct, value, beyond = tail
    return f"{value:.3f} ms at p{pct:g} ({beyond} samples beyond, n={count})"


def self_check(workload: Any, seconds: float, digest: str) -> list[str]:
    """Same seed -> identical inputs; another seed -> different inputs."""
    from inputs import fingerprint

    def inputs_for(seed: int) -> Any:
        fresh = type(workload)(seed, workload.params, workload.nproc, workload.workdir)
        return fresh.generate(seconds)

    again = inputs_for(workload.seed)
    other = inputs_for(workload.seed + 1)
    problems = []
    if fingerprint(again) != digest:
        problems.append("generator: the same seed gave different inputs")
    if fingerprint(other) == digest:
        problems.append("generator: another seed gave the same inputs")
    return problems


def end_to_end(workload, run: Pass, setup_times, import_s, config) -> dict[str, Any]:
    from measure import median

    p50, tail = latency_summary(run.latencies, config["tail"], workload.params["tail_cap_pct"])
    count = len(run.latencies)
    reads = len(run.answered)
    setup_s = import_s + median(setup_times)
    print(f"read_p50_ms {p50:.3f} ms (n={count})")
    print(f"read_tail_ms {_tail_text(tail, count)}")
    print(f"read_qps {reads / run.wall:.2f} 1/s ({reads} reads in {run.wall:.3f} s)")
    print(
        f"setup_s {setup_s:.4f} s (import {import_s:.4f} s + median of "
        f"{len(setup_times)} set-ups: {', '.join(f'{t:.4f}' for t in setup_times)})"
    )
    print(f"peak_rss_mb {run.rss:.1f} MiB (at the end of the timed loop)")
    if run.writer is None:
        print("write_p50_ms n/a (this workload has no writer)")
        print("write_tail_ms n/a (this workload has no writer)")
    else:
        writes = run.writer.recorder.latencies
        write_p50, write_tail = latency_summary(writes, config["tail"])
        print(f"write_p50_ms {write_p50:.3f} ms (n={len(writes)}, timed from when due)")
        print(f"write_tail_ms {_tail_text(write_tail, len(writes))}")
    return {
        "setup_s": _metric(setup_s, "s"),
        "read_p50_ms": _metric(p50, "ms"),
        "read_tail_ms": _metric(None if tail is None else tail[1], "ms"),
        "read_qps": _metric(reads / run.wall, "1/s"),
        "peak_rss_mb": _metric(run.rss, "MiB"),
    }


def per_layer(plain: Pass, traced: Pass, calls, replayed, config) -> tuple[dict, list[str]]:
    from layers import OPERATOR_KINDS
    from measure import mean, median

    answered = traced.answered
    latency = mean(answered)
    submit = mean([c.submit for c in calls])
    wait = mean([c.queue_wait for c in calls])
    execute = mean([c.execute for c in calls])
    handoff = mean([c.handoff for c in calls])
    # What execute() does not cover: parsing, serialization, the socket.
    overhead = latency - (submit + wait + execute + handoff)
    layers = {
        "http.overhead_ms": _ms(overhead),
        "service.submit_ms": _ms(submit),
        "service.queue_wait_ms": _ms(wait),
        "service.exec_ms": _ms(execute),
    }
    layer_sum = sum(layers.values())
    gap_pct = 100.0 * (_ms(latency) - layer_sum) / _ms(latency)
    tolerance = config["layer_sum_tolerance_pct"]
    print(
        f"traced reads: n={len(answered)}, mean client latency {_ms(latency):.3f} ms, "
        f"{len(calls)} timed execute calls"
    )
    for name, value in layers.items():
        print(f"  {name} {value:.4f} (mean, {100 * value / _ms(latency):.1f}% of latency)")
    print(f"dominant layer of read latency: {max(layers, key=layers.get)}")
    print(
        f"layer-sum check: {' + '.join(layers)} = {layer_sum:.4f} ms vs client latency "
        f"{_ms(latency):.4f} ms; gap {gap_pct:.2f}% (the ticket hand-off), "
        f"tolerance {tolerance}%"
    )
    plain_p50, traced_p50 = median(plain.latencies), median(traced.latencies)
    overhead_pct = 100.0 * (traced_p50 - plain_p50) / plain_p50
    print(
        f"tracing overhead: read_p50_ms {_ms(plain_p50):.3f} untraced "
        f"(n={len(plain.latencies)}) vs {_ms(traced_p50):.3f} traced "
        f"(n={len(traced.latencies)}): {overhead_pct:+.1f}%"
    )
    print(f"replayed {len(replayed.parse)} statement executions")
    hits, misses = traced.cache
    requests = sum(r.recorder.attempted for r in traced.readers)
    total = replayed.operator_total or math.nan
    metrics = {name: _metric(value, "ms") for name, value in layers.items()}
    metrics.update(
        {
            "http.serialize_ms": _metric(_ms(mean(replayed.serialize)), "ms"),
            "http.response_bytes": _metric(
                sum(r.response_bytes for r in traced.readers) / max(1, len(answered)), "bytes"
            ),
            "http.connects_per_request": _metric(
                sum(r.connects for r in traced.readers) / max(1, requests), "ratio"
            ),
            "service.rejected": _metric(traced.service["rejected"], "count"),
            "sql.plancache.hit_ratio": _metric(
                hits / (hits + misses) if hits + misses else math.nan, "ratio"
            ),
            "sql.parse_ms": _metric(_ms(mean(replayed.parse)), "ms"),
            "analysis.strict_ms": _metric(_ms(mean(replayed.strict)), "ms"),
            "sql.plan_ms": _metric(_ms(mean(replayed.plan)), "ms"),
            "sql.compile_ms": _metric(_ms(mean(replayed.compile)), "ms"),
            "sql.execute_ms": _metric(_ms(mean(replayed.execute)), "ms"),
        }
    )
    for kind in OPERATOR_KINDS:
        share = 100.0 * replayed.operator_self.get(kind, 0.0) / total
        metrics[f"sql.op.{kind}.self_pct"] = _metric(share, "%")
    metrics["sql.rows_examined_per_row_returned"] = _metric(
        replayed.rows_examined / max(1, replayed.rows_returned), "ratio"
    )
    metrics["trace.overhead_pct"] = _metric(overhead_pct, "%")
    metrics["trace.layer_gap_pct"] = _metric(gap_pct, "%")
    problems = []
    if not abs(gap_pct) <= tolerance:
        problems.append(f"layer-sum check failed: gap {gap_pct:.2f}% > {tolerance}%")
    if len(calls) != len(answered):
        problems.append(f"{len(calls)} timed execute calls for {len(answered)} answered reads")
    return metrics, problems


def write_path_report(workload, writer, refresh: list[float]) -> None:
    """Write-path figures of ingest_mixed (only this workload writes)."""
    from measure import mean, median

    payload_bytes = len(json.dumps(workload.checkpoint_payload))
    print(
        f"tagging.write_ms {_ms(mean(writer.write_seconds)):.3f} "
        f"(mean insert_many + delete per batch, n={len(writer.write_seconds)})"
    )
    print(
        f"storage.checkpoint_ms {_ms(median(writer.checkpoint_seconds)):.3f} "
        f"(median, n={len(writer.checkpoint_seconds)})"
    )
    print(
        f"storage.bytes_per_user_byte {workload.checkpoint_bytes() / payload_bytes:.3f} "
        "(checkpoint bytes on disk / JSON bytes of its rows and tags)"
    )
    print(
        f"gen.writer_late_ms {_ms(median(writer.late)):.3f} median, "
        f"{_ms(max(writer.late)):.3f} max (n={len(writer.late)})"
    )
    print(
        f"quality.refresh_ms {_ms(median(refresh)):.3f} (median "
        f"materializer_for(snapshot).refresh() after one more batch, n={len(refresh)})"
    )


def refresh_samples(workload, relation, writer) -> list[float]:
    """Off the request path: score refresh on fresh post-write snapshots."""
    from repro.quality.materialize import materializer_for

    times = []
    spare = workload.batches(first=writer.batches_done)
    for rows, dead in spare[: workload.params["refresh_samples"]]:
        relation.insert_many(rows)
        relation.delete(lambda row: row.value("co_name") in dead)
        materializer = materializer_for(relation.read_snapshot())
        start = perf_counter()
        materializer.refresh()
        times.append(perf_counter() - start)
    return times


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC.name}/repro", file=sys.stderr)
        return 2
    config = json.loads((HERE / "config.json").read_text())
    if args.workload not in config["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    started = perf_counter()
    import workloads as wl
    from inputs import fingerprint
    from layers import TimedService, replay
    from repro.service.core import QueryService

    import_s = perf_counter() - started
    params = config["workloads"][args.workload]
    nproc = wl.nproc()
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = wl.WORKLOADS[args.workload](args.seed, params, nproc, workdir)
    try:
        digest = fingerprint(workload.generate(args.seconds))
        problems = self_check(workload, args.seconds, digest)
        print(
            f"workload {args.workload} seed {args.seed}: nproc {nproc}, "
            f"inputs {digest[:16]}, trace {args.trace}"
        )

        def plain_service(source):
            return QueryService(source, workers=nproc)

        if args.trace == 0:
            setup_times = []
            for repeat in range(config["setup_repeats"]):
                wl.reset_process_state()
                begin = perf_counter()
                server = workload.setup(plain_service)
                setup_times.append(perf_counter() - begin)
                if repeat + 1 < config["setup_repeats"]:
                    server.close()
            passes = [run_pass(workload, server, args.seconds)]
            metrics = end_to_end(workload, passes[0], setup_times, import_s, config)
        else:
            half = args.seconds / 2
            wl.reset_process_state()
            plain = run_pass(workload, workload.setup(plain_service), half)
            wl.reset_process_state()
            capture = workload.capture()
            server = workload.setup(
                lambda source: TimedService(source, capture=capture, workers=nproc)
            )
            server.service.calls.clear()  # drop the warm-up requests
            traced = run_pass(workload, server, half)
            passes = [plain, traced]
            tags_of = {
                request.sql: request.tags
                for reader in traced.readers
                for request in reader.requests
            }
            replayed = replay(
                server.service.captured,
                lambda sql: tags_of.get(sql, False),
                params["replay_repeats"],
            )
            metrics, layer_problems = per_layer(
                plain, traced, server.service.calls, replayed, config
            )
            problems += layer_problems
            if traced.writer is not None:
                refresh = refresh_samples(workload, server.source, traced.writer)
                write_path_report(workload, traced.writer, refresh)
        for run in passes:
            problems += run.problems
        attempted = sum(run.attempted for run in passes)
        failed = sum(run.failed for run in passes)
        print(
            f"error_share {failed / attempted:.6f} ratio "
            f"({failed} failed of {attempted} attempted)"
        )
        for problem in problems:
            print(f"PROBLEM: {problem}")
        correct = failed == 0 and not problems
        result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        print(json.dumps(result), flush=True)
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
