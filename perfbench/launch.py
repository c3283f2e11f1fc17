"""Start a ``repro`` server process with the benchmark's wrappers installed.

    PERFBENCH_SPANS=DIR python3 perfbench/launch.py serve --port 0

Takes the same arguments as ``python -m repro``.  With ``PERFBENCH_SPANS``
set, the service and cluster layers are wrapped and every process of the
tree writes its spans to ``DIR`` when it exits: this one after its drain,
forked solver-pool workers when the pool shuts down, and shard servers,
which ``repro route`` starts through this launcher too.  With
``PERFBENCH_SLOW`` set, the named calls get a fixed delay (see
``spans.apply_slowdowns``).  Either way the process tree has the same
shape as under ``python -m repro``.
"""

from __future__ import annotations

import multiprocessing.util
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402


def _after_fork(out_dir: str) -> None:
    """In a forked pool worker: start empty, write spans at worker exit."""
    spans.RECORDER.reset_after_fork()
    multiprocessing.util.Finalize(None, spans.dump, args=(out_dir,), exitpriority=10)


def _launch_shards_here() -> None:
    """Make ``repro route`` start its shard servers through this launcher."""
    from repro.cluster.shards import SubprocessShardSupervisor

    original = SubprocessShardSupervisor._command

    def command(self: SubprocessShardSupervisor) -> list:
        argv = original(self)
        if argv[1:3] != ["-m", "repro"]:
            raise RuntimeError(f"unexpected shard command {argv!r}")
        return [argv[0], os.path.abspath(__file__)] + argv[3:]

    SubprocessShardSupervisor._command = command  # type: ignore[method-assign]


def main() -> int:
    from repro import cli

    out_dir = os.environ.get("PERFBENCH_SPANS")
    spans.apply_slowdowns(os.environ.get("PERFBENCH_SLOW", ""))
    _launch_shards_here()
    if out_dir:
        spans.install_service_wrappers()
        spans.install_cluster_wrappers()
        multiprocessing.util.register_after_fork(
            spans.RECORDER, lambda _rec: _after_fork(out_dir))
    try:
        return cli.main(sys.argv[1:])
    finally:
        if out_dir:
            spans.dump(out_dir)


if __name__ == "__main__":
    sys.exit(main())
