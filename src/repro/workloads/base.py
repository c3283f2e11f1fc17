"""Trace representation: per-thread access streams grouped into phases.

A workload is a sequence of :class:`Phase` objects.  Within a phase all
threads run concurrently (the simulator interleaves their streams in
quanta); phases are separated by barriers.  Keeping the phase structure
explicit is what lets the hardware-managed mechanism's *temporal sampling
bias* (Section VI-A of the paper: HM seeing only whichever pair happened
to be exchanging when the scan fired) emerge from the model instead of
being painted on.

Streams are plain numpy arrays (int64 addresses + bool write flags); trace
generation is fully vectorized per the HPC guide — Python only ever loops
over phases and threads, never over individual accesses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.util.rng import RngLike, SeedSequenceFactory


@dataclass
class AccessStream:
    """One thread's accesses within one phase.

    Attributes:
        addrs: virtual byte addresses, shape (n,), int64.
        writes: write flags, shape (n,), bool.
    """

    addrs: np.ndarray
    writes: np.ndarray

    def __post_init__(self) -> None:
        self.addrs = np.ascontiguousarray(self.addrs, dtype=np.int64)
        self.writes = np.ascontiguousarray(self.writes, dtype=bool)
        if self.addrs.shape != self.writes.shape or self.addrs.ndim != 1:
            raise ValueError(
                f"addrs {self.addrs.shape} and writes {self.writes.shape} "
                "must be equal-length 1-D arrays"
            )

    def __len__(self) -> int:
        return int(self.addrs.shape[0])

    @classmethod
    def empty(cls) -> "AccessStream":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))

    @classmethod
    def reads(cls, addrs: np.ndarray) -> "AccessStream":
        """All-read stream over ``addrs``."""
        a = np.asarray(addrs, dtype=np.int64)
        return cls(a, np.zeros(len(a), dtype=bool))

    @classmethod
    def writes_only(cls, addrs: np.ndarray) -> "AccessStream":
        """All-write stream over ``addrs``."""
        a = np.asarray(addrs, dtype=np.int64)
        return cls(a, np.ones(len(a), dtype=bool))

    @classmethod
    def mixed(
        cls, addrs: np.ndarray, write_fraction: float, rng: np.random.Generator
    ) -> "AccessStream":
        """Stream over ``addrs`` with a random ``write_fraction`` of stores."""
        a = np.asarray(addrs, dtype=np.int64)
        w = rng.random(len(a)) < write_fraction
        return cls(a, w)

    def pages(self, page_size: int = 4096) -> np.ndarray:
        """Distinct virtual page numbers touched (sorted)."""
        shift = int(page_size).bit_length() - 1
        return np.unique(self.addrs >> shift)


def concat_streams(streams: Sequence[AccessStream]) -> AccessStream:
    """Concatenate streams in order (one thread's sub-steps within a phase)."""
    streams = [s for s in streams if len(s)]
    if not streams:
        return AccessStream.empty()
    return AccessStream(
        np.concatenate([s.addrs for s in streams]),
        np.concatenate([s.writes for s in streams]),
    )


def interleave_streams(
    streams: Sequence[AccessStream], block: int, rng: np.random.Generator | None = None
) -> AccessStream:
    """Interleave several streams block-by-block into one stream.

    Used by kernels whose threads alternate between sub-activities (e.g.
    compute on private data interspersed with halo reads) so the TLB sees a
    realistic mixture rather than long single-region runs.
    """
    streams = [s for s in streams if len(s)]
    if not streams:
        return AccessStream.empty()
    if len(streams) == 1:
        return streams[0]
    chunks_a: List[np.ndarray] = []
    chunks_w: List[np.ndarray] = []
    cursors = [0] * len(streams)
    order = list(range(len(streams)))
    remaining = sum(len(s) for s in streams)
    while remaining > 0:
        if rng is not None:
            rng.shuffle(order)
        for i in order:
            s = streams[i]
            c = cursors[i]
            if c >= len(s):
                continue
            end = min(c + block, len(s))
            chunks_a.append(s.addrs[c:end])
            chunks_w.append(s.writes[c:end])
            remaining -= end - c
            cursors[i] = end
    return AccessStream(np.concatenate(chunks_a), np.concatenate(chunks_w))


@dataclass
class Phase:
    """One barrier-delimited parallel region: one stream per thread."""

    name: str
    streams: List[AccessStream]

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError("a phase needs at least one thread stream")

    @property
    def num_threads(self) -> int:
        return len(self.streams)

    @property
    def total_accesses(self) -> int:
        return sum(len(s) for s in self.streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Phase({self.name!r}, threads={self.num_threads}, "
            f"accesses={self.total_accesses})"
        )


class Workload(abc.ABC):
    """A parallel application, as seen through its memory accesses.

    Subclasses implement :meth:`generate_phases`; the public entry point
    :meth:`phases` wires in deterministic per-workload seeding.

    Attributes:
        name: short identifier ("bt", "cg", ... or a synthetic label).
        num_threads: number of application threads.
        pattern_class: documented communication structure, one of
            {"domain", "domain+distant", "homogeneous", "none", "irregular",
            "pipeline", "master-worker"} — used by tests to assert that the
            detected matrices have the right shape.
    """

    name: str = "workload"
    pattern_class: str = "irregular"

    def __init__(self, num_threads: int = 8, seed: RngLike = None):
        if num_threads < 2:
            raise ValueError("workloads need at least 2 threads")
        self.num_threads = num_threads
        self.seeds = SeedSequenceFactory(seed)

    @abc.abstractmethod
    def generate_phases(self) -> Iterator[Phase]:
        """Yield the phases of one full execution."""

    def phases(self) -> Iterator[Phase]:
        """Iterate phases, validating thread counts."""
        for phase in self.generate_phases():
            if phase.num_threads != self.num_threads:
                raise ValueError(
                    f"{self.name}: phase {phase.name!r} has "
                    f"{phase.num_threads} streams, expected {self.num_threads}"
                )
            yield phase

    def materialize(self) -> List[Phase]:
        """All phases as a list (small workloads / tests)."""
        return list(self.phases())

    def total_accesses(self) -> int:
        """Total access count over the whole execution."""
        return sum(p.total_accesses for p in self.phases())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, threads={self.num_threads})"
