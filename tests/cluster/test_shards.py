"""Subprocess shard supervisor: concurrent boot and boot-failure cleanup."""

import asyncio
import sys

import pytest

from repro.cluster.shards import ShardBootError, SubprocessShardSupervisor

#: A stand-in shard: announces a port, then idles until terminated.
ANNOUNCE = (
    "print('listening on http://127.0.0.1:1', flush=True)\n"
    "import time\n"
    "time.sleep(60)\n"
)
#: A shard that dies during boot without announcing a port.
DIE = "import sys\nprint('boot failed', flush=True)\nsys.exit(3)\n"
#: A shard that stalls before its banner: prints nothing, never exits.
STALL = "import time\ntime.sleep(3600)\n"


class ScriptedShards(SubprocessShardSupervisor):
    """One scripted child per shard id; records spawns and banner reads."""

    def __init__(self, scripts, **kwargs):
        super().__init__(shards=len(scripts), **kwargs)
        self.scripts = dict(zip(self.shard_ids, scripts))
        self.events = []
        self.spawned = []
        self._booting = ""

    def _command(self):
        return [sys.executable, "-c", self.scripts[self._booting]]

    def _popen(self, shard_id):
        self._booting = shard_id
        proc = super()._popen(shard_id)
        self.events.append(("spawn", shard_id))
        self.spawned.append(proc)
        return proc

    def _await_banner(self, shard_id, proc):
        self.events.append(("banner", shard_id))
        return super()._await_banner(shard_id, proc)


def test_every_child_spawns_before_any_banner_is_read():
    shards = ScriptedShards([ANNOUNCE, ANNOUNCE])

    async def scenario():
        try:
            return await shards.start_all()
        finally:
            await shards.stop_all()

    endpoints = asyncio.run(scenario())
    assert endpoints == {"shard-0": ("127.0.0.1", 1), "shard-1": ("127.0.0.1", 1)}
    assert shards.events == [
        ("spawn", "shard-0"), ("spawn", "shard-1"),
        ("banner", "shard-0"), ("banner", "shard-1"),
    ]
    assert all(proc.poll() is not None for proc in shards.spawned)
    assert all(proc.stdout.closed for proc in shards.spawned)


def test_a_failed_boot_leaves_no_child_running():
    shards = ScriptedShards([DIE, ANNOUNCE])

    with pytest.raises(ShardBootError, match="shard-0 did not announce"):
        asyncio.run(shards.start_all())
    assert len(shards.spawned) == 2  # the sibling was already booting
    assert all(proc.poll() is not None for proc in shards.spawned)
    assert all(proc.stdout.closed for proc in shards.spawned)


def test_a_stalled_boot_times_out_and_leaves_no_child_running():
    shards = ScriptedShards([ANNOUNCE, STALL], boot_timeout=0.5)

    async def scenario():
        try:
            await asyncio.wait_for(shards.start_all(), 10)
        finally:
            # Without a bounded banner wait the boot thread would block
            # the loop's executor shutdown forever; free it either way.
            for proc in shards.spawned:
                if proc.poll() is None:
                    proc.kill()

    with pytest.raises(ShardBootError, match="shard-1 did not announce"):
        asyncio.run(scenario())
    assert len(shards.spawned) == 2
    assert all(proc.poll() is not None for proc in shards.spawned)
    assert all(proc.stdout.closed for proc in shards.spawned)
