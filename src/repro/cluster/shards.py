"""Shard lifecycle: spawn, watch, kill, and restart mapping-service shards.

Two interchangeable supervisors behind one small async surface
(:class:`ShardSupervisor`):

* :class:`SubprocessShardSupervisor` — production shape: each shard is a
  real ``python -m repro serve`` child on an ephemeral port (the same
  boot contract ``make serve-smoke`` exercises: the child announces
  ``listening on http://host:port`` on stdout).  All process management
  is synchronous and runs on the event loop's default *thread* pool via
  ``run_in_executor(None, ...)`` so the router's loop never blocks on a
  ``Popen``/``wait`` (RPL006) and nothing is shipped to a process pool
  (RPL104).
* :class:`InProcessShards` — test shape: each shard is a
  (:class:`~repro.service.app.MappingService`,
  :class:`~repro.service.http.MappingServer`) pair on the current loop
  with ``workers=0``, so cluster tests run without subprocess or
  process-pool overhead.  ``kill`` drains the victim's listener —
  subsequent connects are refused, exactly what a dead shard looks like
  to the router — and ``restart`` builds a *fresh* service with empty
  caches, which is what makes replication replay observable.

Shard ids are ``shard-0 .. shard-N-1`` and stable across restarts: a
replacement process keeps its dead predecessor's id (and ring position),
it just answers on a new port.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.app import MappingService, ServiceConfig
from repro.service.http import MappingServer

#: The serve boot announcement (same regex the serve smoke pins).
_LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")

#: Startup lines scanned before giving up on the announcement (a fault
#: plan banner may precede it).
_MAX_BOOT_LINES = 20

Endpoint = Tuple[str, int]


class ShardBootError(RuntimeError):
    """A shard process failed to come up and announce its port."""


class ShardSupervisor:
    """The lifecycle surface the router drives (see module docstring)."""

    async def start_all(self) -> Dict[str, Endpoint]:
        """Boot every shard; returns ``{shard_id: (host, port)}``."""
        raise NotImplementedError

    async def kill(self, shard_id: str) -> None:
        """Terminate ``shard_id`` abruptly (chaos / fault injection)."""
        raise NotImplementedError

    async def restart(self, shard_id: str) -> Endpoint:
        """Replace ``shard_id`` with a fresh, empty-cached process."""
        raise NotImplementedError

    async def stop_all(self) -> None:
        """Graceful full-cluster shutdown."""
        raise NotImplementedError


class SubprocessShardSupervisor(ShardSupervisor):
    """N ``repro serve`` child processes on ephemeral ports."""

    def __init__(
        self,
        shards: int,
        host: str = "127.0.0.1",
        workers_per_shard: int = 1,
        cache_entries: int = 4096,
        cache_ttl: float = 300.0,
        boot_timeout: float = 30.0,
        python: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        trace_sample_every: int = 1,
        trace_step_clock: bool = False,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._clock = clock
        self.host = host
        self.workers_per_shard = workers_per_shard
        self.cache_entries = cache_entries
        self.cache_ttl = cache_ttl
        self.boot_timeout = boot_timeout
        #: Tracing knobs forwarded onto each shard's ``repro serve``
        #: command line so the whole cluster shares one trace posture.
        self.trace_sample_every = trace_sample_every
        self.trace_step_clock = trace_step_clock
        self.python = python or sys.executable
        self.shard_ids: Tuple[str, ...] = tuple(
            f"shard-{i}" for i in range(shards)
        )
        self._procs: Dict[str, subprocess.Popen] = {}
        self._endpoints: Dict[str, Endpoint] = {}
        #: Per booting child: the clock reading its banner is due by.
        self._boot_deadlines: Dict[str, float] = {}

    # -- blocking internals (always called off-loop) -----------------------------

    def _command(self) -> List[str]:
        command = [
            self.python, "-m", "repro", "serve",
            "--host", self.host,
            "--port", "0",
            "--workers", str(self.workers_per_shard),
            "--cache-entries", str(self.cache_entries),
            "--cache-ttl", str(self.cache_ttl),
            "--trace-sample-every", str(self.trace_sample_every),
        ]
        if self.trace_step_clock:
            command.append("--trace-step-clock")
        return command

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def _popen(self, shard_id: str) -> subprocess.Popen:
        """Start ``shard_id``'s child; its banner is read separately."""
        proc = subprocess.Popen(
            self._command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=self._env(),
            text=True,
        )
        self._procs[shard_id] = proc
        self._boot_deadlines[shard_id] = self._clock() + self.boot_timeout
        return proc

    def _await_banner(self, shard_id: str, proc: subprocess.Popen) -> Endpoint:
        """Read ``proc``'s boot announcement; kill it if none comes.

        The wait ends ``boot_timeout`` seconds after the child's spawn,
        so children booting side by side share one budget: a watchdog
        kills a child still silent then, its stdout reaches EOF, and the
        boot fails like any other.
        """
        assert proc.stdout is not None
        remaining = self._boot_deadlines.pop(shard_id) - self._clock()
        watchdog = threading.Timer(max(0.0, remaining), proc.kill)
        watchdog.daemon = True
        watchdog.start()
        banner: List[str] = []
        try:
            for _ in range(_MAX_BOOT_LINES):
                line = proc.stdout.readline()
                if not line:
                    break
                banner.append(line)
                match = _LISTEN_RE.search(line)
                if match:
                    endpoint = (match.group(1), int(match.group(2)))
                    self._endpoints[shard_id] = endpoint
                    return endpoint
        finally:
            watchdog.cancel()
        self._kill_sync(shard_id)
        raise ShardBootError(
            f"{shard_id} did not announce a port (boot timeout "
            f"{self.boot_timeout:g} s); output was:\n{''.join(banner)}"
        )

    def _start_all_sync(self) -> Dict[str, Endpoint]:
        # Spawn every child before reading any banner, so the shards
        # import and bind concurrently and start-up does not grow with N.
        try:
            booting = [
                (shard_id, self._popen(shard_id))
                for shard_id in self.shard_ids
                if shard_id not in self._procs
            ]
            for shard_id, proc in booting:
                self._await_banner(shard_id, proc)
        except BaseException:
            # A failed boot takes every spawned sibling down with it.
            self._stop_all_sync()
            raise
        return dict(self._endpoints)

    def _kill_sync(self, shard_id: str) -> None:
        proc = self._procs.pop(shard_id, None)
        self._endpoints.pop(shard_id, None)
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        _close_stdout(proc)

    def _restart_sync(self, shard_id: str) -> Endpoint:
        self._kill_sync(shard_id)
        return self._await_banner(shard_id, self._popen(shard_id))

    def _stop_all_sync(self, timeout: float = 30.0) -> None:
        procs = dict(self._procs)
        self._procs.clear()
        self._endpoints.clear()
        for proc in procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = self._clock() + timeout
        for shard_id, proc in procs.items():
            remaining = max(0.1, deadline - self._clock())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
            _close_stdout(proc)

    # -- async surface -----------------------------------------------------------

    async def start_all(self) -> Dict[str, Endpoint]:
        """Boot every shard off-loop; returns the endpoint map."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._start_all_sync)

    async def kill(self, shard_id: str) -> None:
        """SIGKILL one shard (no drain — this is the chaos path)."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._kill_sync, shard_id)

    async def restart(self, shard_id: str) -> Endpoint:
        """Kill any leftover process and boot a fresh one under the id."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._restart_sync, shard_id)

    async def stop_all(self) -> None:
        """SIGTERM every shard and wait for clean drains."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._stop_all_sync)


def _close_stdout(proc: subprocess.Popen) -> None:
    """Close an exited child's stdout pipe (never a live child's: it
    would get EPIPE on its next write)."""
    if proc.stdout is not None:
        proc.stdout.close()


class InProcessShards(ShardSupervisor):
    """N in-loop service/server pairs — the unit-test cluster."""

    def __init__(
        self,
        shards: int,
        config_factory: Optional[Callable[[], ServiceConfig]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shard_ids: Tuple[str, ...] = tuple(
            f"shard-{i}" for i in range(shards)
        )
        self._config_factory = config_factory or (
            lambda: ServiceConfig(port=0, workers=0, trace_ring=0)
        )
        self._clock = clock
        self.services: Dict[str, MappingService] = {}
        self._servers: Dict[str, MappingServer] = {}
        self._endpoints: Dict[str, Endpoint] = {}

    async def _boot(self, shard_id: str) -> Endpoint:
        service = MappingService(self._config_factory(), clock=self._clock)
        server = MappingServer(service)
        host, port = await server.start()
        self.services[shard_id] = service
        self._servers[shard_id] = server
        self._endpoints[shard_id] = (host, port)
        return (host, port)

    async def start_all(self) -> Dict[str, Endpoint]:
        """Boot every shard on the current loop."""
        for shard_id in self.shard_ids:
            if shard_id not in self._servers:
                await self._boot(shard_id)
        return dict(self._endpoints)

    async def kill(self, shard_id: str) -> None:
        """Tear the shard down; later connects to its port are refused."""
        server = self._servers.pop(shard_id, None)
        self.services.pop(shard_id, None)
        self._endpoints.pop(shard_id, None)
        if server is not None:
            await server.shutdown()

    async def restart(self, shard_id: str) -> Endpoint:
        """Replace the shard with a fresh, empty-cached service."""
        await self.kill(shard_id)
        return await self._boot(shard_id)

    async def stop_all(self) -> None:
        """Shut every shard down cleanly."""
        for shard_id in list(self._servers):
            await self.kill(shard_id)
