"""The service workloads: a closed loop against ``repro serve`` / ``repro route``.

Two keep-alive connections from this one process each send their next
``POST /map`` only after the previous answer arrived (a runtime waits for
its placement).  The server starts fresh for every run, so the cache
class each request must get is known (see ``stream.py``).
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import layers
import spans
import stream
from stats import describe, tree_peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
CONNECTIONS = 2
SETUPS = 5
BOOT_TIMEOUT = 60.0
_LISTEN = re.compile(r"listening on http://([0-9.]+):(\d+)")

#: workload -> (CLI arguments, request block, prologue sizes, requests to
#: pre-generate per connection per measured second).
WORKLOADS: Dict[str, Tuple[List[str], stream.Block, Tuple[int, ...], int]] = {
    "serve-mix": (["serve", "--port", "0"], stream.SERVE_MIX, (8, 16, 32, 64), 180),
    "route-warm": (["route", "--port", "0", "--shards", "2"], stream.ROUTE_WARM, (8, 16), 1300),
}


@dataclass
class Record:
    conn: int
    req: stream.Request
    status: int
    cache: str
    body: bytes
    t0: int
    t1: int

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6


class Server:
    """One ``repro serve`` or ``repro route`` process tree."""

    def __init__(self, args: List[str], env: Dict[str, str], launcher: bool):
        head = [sys.executable, LAUNCH] if launcher else [sys.executable, "-m", "repro"]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(head + args, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True, env=env)
        self.output: List[str] = []
        try:
            self.host, self.port = self._await_banner()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - t0
        threading.Thread(target=self._drain, daemon=True).start()

    def _await_banner(self) -> Tuple[str, int]:
        assert self.proc.stdout is not None
        deadline = time.perf_counter() + BOOT_TIMEOUT
        while time.perf_counter() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.output.append(line)
            match = _LISTEN.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server did not start:\n" + "".join(self.output))

    def _await_healthy(self) -> None:
        deadline = time.perf_counter() + BOOT_TIMEOUT
        while time.perf_counter() < deadline:
            if self.get("/healthz")[0] == 200:
                return
            time.sleep(0.01)
        raise RuntimeError("server never reported healthy")

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain of the whole tree) and wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _counter(text: str, name: str) -> float:
    """One unlabelled row of a Prometheus text exposition (0 if absent)."""
    match = re.search(rf"^{re.escape(name)} (\S+)$", text, re.M)
    return float(match.group(1)) if match else 0.0


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, str, bytes]:
    status = int((await reader.readline()).split()[1])
    length = 0
    cache = ""
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "x-repro-cache":
            cache = value.strip()
    return status, cache, await reader.readexactly(length)


async def _drive(server: Server, streams: List[Iterator[stream.Request]],
                 warm: List[int], seconds: float) -> Tuple[List[Record], List[Record], float]:
    """Warm every connection with its prologue, then loop for ``seconds``."""
    conns = [await asyncio.open_connection(server.host, server.port) for _ in streams]
    warm_records: List[Record] = []
    timed: List[Record] = []

    async def loop(idx: int, count: Optional[int], stop_at: float, out: List[Record]) -> None:
        reader, writer = conns[idx]
        sent = 0
        for req in streams[idx]:
            t0 = time.perf_counter_ns()
            writer.write(req.wire)
            status, cache, body = await _read_response(reader)
            out.append(Record(idx, req, status, cache, body, t0, time.perf_counter_ns()))
            sent += 1
            if (count is not None and sent >= count) or time.perf_counter() >= stop_at:
                return

    try:
        await asyncio.gather(*(loop(i, warm[i], float("inf"), warm_records)
                               for i in range(len(streams))))
        start = time.perf_counter()
        await asyncio.gather(*(loop(i, None, start + seconds, timed)
                               for i in range(len(streams))))
        elapsed = time.perf_counter() - start
    finally:
        for _reader, writer in conns:
            writer.close()
            await writer.wait_closed()
    return warm_records, timed, elapsed


def _streams(workload: str, seed: int, seconds: float) -> Tuple[List[stream.Stream], List[Iterator[stream.Request]]]:
    """Per-connection streams, pre-generated so the loop spends no time on it."""
    _args, block, prologue, rate = WORKLOADS[workload]
    gens = [stream.Stream(seed, c, block, prologue) for c in range(CONNECTIONS)]
    iters: List[Iterator[stream.Request]] = []
    for gen in gens:
        it = iter(gen)
        ahead = list(itertools.islice(it, len(prologue) + int(rate * seconds)))
        iters.append(itertools.chain(ahead, it))
    return gens, iters


class Checker:
    """Checks every answer against an in-process reference solve."""

    def __init__(self) -> None:
        from repro.mapping.hierarchical import solve_mapping
        from repro.mapping.quality import mapping_cost
        from repro.service.worker import topology_from_spec

        self._solve = solve_mapping
        self._cost = mapping_cost
        self._topologies = {}
        for n in layers.SIZES:
            t = stream.topology(n)
            topo = topology_from_spec((t["cores_per_l2"], t["l2_per_chip"], t["chips"]))
            self._topologies[n] = (topo, topo.distance_matrix())
        self._refs: Dict[Tuple[int, int], float] = {}
        self._first: Dict[Tuple[int, int], bytes] = {}

    def reference(self, conn: int, gen: stream.Stream, base: int) -> float:
        """Cost of an in-process ``solve_mapping`` of a fresh matrix."""
        key = (conn, base)
        if key not in self._refs:
            m = gen.bases[base]
            topo, distance = self._topologies[m.shape[0]]
            self._refs[key] = self._cost(m, self._solve(m, topo).assignment, distance)
        return self._refs[key]

    def ok(self, conn: int, gen: stream.Stream, rec: Record) -> bool:
        req = rec.req
        if rec.status != 200 or rec.cache != req.kind:
            return False
        first = self._first.setdefault((conn, req.body_id), rec.body)
        if req.kind == "body":
            return rec.body == first
        try:
            mapping = json.loads(rec.body)["mapping"]
        except (ValueError, KeyError, TypeError):
            return False
        n = req.n
        # The topology has exactly n cores: a valid answer is a permutation.
        if not isinstance(mapping, list) or sorted(mapping) != list(range(n)):
            return False
        # Pull the answer back to the base matrix's thread order: thread i
        # of the request is thread perm[i] of the base.
        pulled = list(mapping)
        if req.perm is not None:
            for i, p in enumerate(req.perm):
                pulled[int(p)] = mapping[i]
        cost = self._cost(gen.bases[req.base], pulled, self._topologies[n][1])
        ref = self.reference(conn, gen, req.base)
        return abs(cost - ref) <= 1e-9 * max(1.0, abs(ref))


def _check(records: List[Record], gens: List[stream.Stream]) -> int:
    """Failed checks over ``records``, taken in the order they were sent."""
    checker = Checker()
    return sum(1 for rec in sorted(records, key=lambda r: r.t0)
               if not checker.ok(rec.conn, gens[rec.conn], rec))


def _session(workload: str, seed: int, seconds: float, env: Dict[str, str],
             launcher: bool, boots: int) -> Dict[str, Any]:
    """Boot ``boots`` times (the last one serves), run the loop, check."""
    args = WORKLOADS[workload][0]
    gens, iters = _streams(workload, seed, seconds)
    boot_times = []
    for attempt in range(boots):
        server = Server(args, env, launcher)
        boot_times.append(server.boot_s)
        if attempt < boots - 1:
            server.stop()
    try:
        prologue = len(WORKLOADS[workload][2])
        warm, timed, elapsed = asyncio.run(
            _drive(server, iters, [prologue] * CONNECTIONS, seconds))
        metrics_text = server.get("/metrics")[1].decode("utf-8")
        rss = tree_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    failed = _check(warm + timed, gens)
    return {
        "boot_times": boot_times, "warm": warm, "timed": timed, "elapsed": elapsed,
        "metrics_text": metrics_text, "rss": rss, "failed": failed,
    }


def _latencies(records: List[Record], kind: Optional[str] = None) -> List[float]:
    return [r.ms for r in records if kind is None or r.req.kind == kind]


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    env = dict(os.environ)
    slow = env.get("PERFBENCH_SLOW", "")
    if not trace:
        s = _session(workload, seed, seconds, env, launcher=bool(slow), boots=SETUPS)
        timed = s["timed"]
        lat = _latencies(timed)
        report = [
            f"map_rps: {len(timed) / s['elapsed']:.1f} (closed loop, {CONNECTIONS} "
            f"keep-alive connections, {len(timed)} requests in {s['elapsed']:.2f} s)",
            describe("map latency", lat, "ms"),
            describe("hit latency (X-Repro-Cache: body)", _latencies(timed, "body"), "ms"),
            describe("relabelled latency (X-Repro-Cache: solve)", _latencies(timed, "solve"), "ms"),
            describe("miss latency (X-Repro-Cache: miss)", _latencies(timed, "miss"), "ms"),
            "boot times: " + ", ".join(f"{b:.3f} s" for b in s["boot_times"]),
        ]
        metrics = {
            "p50_ms": statistics.median(_latencies(timed, "body")),
            "miss_p50_ms": statistics.median(_latencies(timed, "miss")),
            "ops_per_s": len(timed) / s["elapsed"],
            "peak_rss_mb": s["rss"],
            "setup_s": statistics.median(s["boot_times"]),
        }
        attempted = len(s["warm"]) + len(timed)
        return {"attempted": attempted, "failed": s["failed"], "metrics": metrics,
                "report": report}

    # Traced run: an untraced session gives the independent end-to-end
    # latency, then a session whose server processes start through the
    # launcher (same process tree, wrappers installed) gives the layers.
    plain = _session(workload, seed, seconds / 2, env, launcher=bool(slow), boots=1)
    top = os.path.join(os.getcwd(), ".perfbench")
    out_dir = os.path.join(top, f"spans-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    traced_env = dict(env, PERFBENCH_SPANS=out_dir)
    traced = _session(workload, seed, seconds / 2, traced_env, launcher=True, boots=1)
    try:
        by_pid = spans.load(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.isdir(top) and not os.listdir(top):
            os.rmdir(top)
    metrics = service_layers(workload, plain, traced, by_pid)
    report = [
        describe("map latency untraced", _latencies(plain["timed"]), "ms"),
        describe("map latency traced", _latencies(traced["timed"]), "ms"),
        f"span files: {len(by_pid)} processes",
    ]
    attempted = sum(len(x["warm"]) + len(x["timed"]) for x in (plain, traced))
    return {"attempted": attempted, "failed": plain["failed"] + traced["failed"],
            "metrics": metrics, "report": report}


def service_layers(workload: str, plain: Dict[str, Any], traced: Dict[str, Any],
                   by_pid: Dict[int, List[spans.Span]]) -> Dict[str, float]:
    """Per-layer metrics per /map request from the traced session's spans."""
    timed = traced["timed"]
    lo, hi = min(r.t0 for r in timed), max(r.t1 for r in timed)
    rows = []
    for pid_spans in by_pid.values():
        window = [s for s in pid_spans if lo <= s[3] <= hi]
        rows += spans.self_times(window)
    t = layers.Totals(rows)
    ops = len(timed)
    ratio = layers.ratio
    m = layers.blank()
    m["mapping.solves"] = t.calls["mapping.solve"] / ops
    for n in layers.SIZES:
        m[f"mapping.us_per_solve.n{n}"] = t.mean_us("mapping.solve", attr=n)
        m[f"service.canonical_us.n{n}"] = ratio(
            (t.dur_by[("service.canonical_form", n)] + t.dur_by[("service.canonical_key", n)]) / 1e3,
            t.calls_by[("service.canonical_form", n)])
    handled = t.calls["service.handle_map"]
    m["service.body_hit_rate"] = ratio(t.calls_by[("service.handle_map", "body")], handled)
    solve_hits = t.calls_by[("service.handle_map", "solve")]
    m["service.solve_hit_rate"] = ratio(
        solve_hits, solve_hits + t.calls_by[("service.handle_map", "miss")])
    for kind in ("body", "solve", "miss"):
        m[f"service.handle_us.{kind}"] = t.mean_us("service.handle_map", attr=kind)
    m["service.batcher_wait_ms"] = t.mean_us("service.submit") / 1e3
    text = traced["metrics_text"]
    m["service.batch_items"] = ratio(_counter(text, "repro_service_solves_total"),
                                     _counter(text, "repro_service_batches_total"))
    m["service.render_us"] = ratio(
        (t.dur["service.render.quality"] + t.dur["service.render.unpermute"]) / 1e3,
        t.calls["service.render.quality"])
    outer = "cluster.handle_map" if workload == "route-warm" else "service.handle_map"
    client_us = statistics.mean(_latencies(timed)) * 1e3
    outer_us = t.mean_us(outer)
    m["service.http_us"] = client_us - outer_us
    if workload == "route-warm":
        m["cluster.route_us"] = t.mean_us("cluster.handle_map", self_time=True)
        m["cluster.canonical_us"] = ratio(
            (t.dur["cluster.canonical_form"] + t.dur["cluster.canonical_key"]) / 1e3,
            t.calls["cluster.canonical_form"])
        m["cluster.ring_us"] = t.mean_us("cluster.ring")
        m["cluster.forward_us"] = t.mean_us("cluster.request", attr="/map")
        m["cluster.replicate_us"] = t.mean_us("cluster.request", attr="/cache/push")
        m["cluster.route_cache_hit_rate"] = 1.0 - ratio(
            t.calls["cluster.canonical_form"], t.calls["cluster.handle_map"])
    plain_us = statistics.mean(_latencies(plain["timed"])) * 1e3
    m["unattributed_share"] = 1.0 - outer_us / plain_us
    m["trace_overhead_pct"] = (client_us / plain_us - 1.0) * 100.0
    # Op-count cross-check: per-class handler cost times the class counts
    # the untraced session's responses report, plus the HTTP layer,
    # predicts the untraced mean latency.
    plain_timed = plain["timed"]
    predicted = m["service.http_us"]
    for kind in ("body", "solve", "miss"):
        share = sum(1 for r in plain_timed if r.cache == kind) / len(plain_timed)
        predicted += share * t.mean_us(outer, attr=kind)
    m["xcheck_error_pct"] = (predicted / plain_us - 1.0) * 100.0
    return m
