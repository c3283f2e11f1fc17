"""Declarative experiment specs (ROADMAP item 5).

A spec is a small frozen dataclass — kernels x topologies x mechanisms x
seeds x config overrides — that round-trips through TOML and is executed
by one generalized runner.  Every paper artifact the benches render
(Figures 4-9, Tables I-V, the reproduction report and the parameter
ablations) comes from a spec under :data:`SPEC_DIR`.  The runner fans
independent *cells* (one benchmark protocol run or one ablation sweep
point) out over a work-stealing process pool and memoizes every cell
through :mod:`repro.experiments.cache` config-hash keys, so any two specs
that agree on a cell's configuration share one simulation, cluster-wide.

Four pipelines cover the bench corpus:

``protocol``
    The paper's full Section-V protocol per (kernel, seed, topology)
    cell: detection (SM + HM + oracle), hierarchical mapping, and the
    OS/SM/HM performance ensembles.  Cells delegate to
    :class:`~repro.experiments.runner.ExperimentRunner`, inheriting its
    on-disk memoization and fault sites.
``ablation``
    One knob swept over ``spec.sweep`` values; each sweep point is an
    independently memoized cell (``variant`` picks the routine and its
    table from :data:`ABLATION_AXES`).
``engine``
    The scalar-vs-batched engine parity + speedup smoke.  Counter rows
    are deterministic and asserted bit-identical; wall timings are
    returned in the results but never cached or rendered.
``static``
    Render-only reports (Table I/II) with no simulation cells.

Reports are declared by name in the spec.  Their rendered bytes at CI
scale are pinned by ``tests/experiments/data/spec_golden.json``, which
was written by the hand-rolled bench scripts the specs replaced.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tomllib
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.cache import ResultCache, config_key
from repro.experiments.config import PAPER_BENCHMARKS, ExperimentConfig
from repro.experiments.runner import BenchmarkResult, ExperimentRunner, _run_benchmark_task
from repro.machine.topology import Topology, harpertown, nehalem
from repro.obs.context import TRACE_ENV_VAR, clear_context, install_context
from repro.obs.metrics import global_registry
from repro.obs.trace import get_tracer
from repro.util.validation import ValidationError

#: Bump when spec semantics change incompatibly (axes meaning, report
#: contracts).  Written into dumped TOML as ``schema``.
SPEC_SCHEMA = 1

#: The spec corpus: ``repro run-spec NAME`` and the benches resolve a
#: bare spec name to ``SPEC_DIR / f"{NAME}.toml"``.
SPEC_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "specs"


def _multi_level_2x4x2(cache_scale: float = 1.0) -> Topology:
    """16 cores: pairs on an L2, four L2s per chip, two chips."""
    return dataclasses.replace(harpertown(cache_scale), l2_per_chip=4)


#: Topology axis registry: name -> factory(cache_scale) -> Topology.
TOPOLOGIES: Dict[str, Callable[..., Topology]] = {
    "harpertown": harpertown,
    "nehalem": nehalem,
    "multi_level_2x4x2": _multi_level_2x4x2,
}

#: Execution pipelines a spec may select.
PIPELINES = ("protocol", "ablation", "engine", "static")


@dataclass(frozen=True)
class AblationAxis:
    """One ablation variant: what it sweeps and how its table reads.

    The runner is ``repro.experiments.ablations.<variant>_sweep``, called
    with ``{sweep: (point,)}`` plus ``scale``, ``seed`` and ``topology``.
    """

    #: The spec's ``[sweep]`` key, e.g. ``thresholds``.
    sweep: str
    #: Record fields that hold a sweep point; a point has one number per
    #: key (``tlb_geometry`` points are ``[entries, ways]`` pairs).
    keys: Tuple[str, ...]
    header: Tuple[str, ...]
    row: Callable[[Mapping[str, float]], List[object]]


#: Ablation variants by name.  Each routine is a pure function of its
#: arguments, which is what makes per-point memoization sound.
ABLATION_AXES: Dict[str, AblationAxis] = {
    "sm_sampling": AblationAxis(
        "thresholds", ("threshold",),
        ("n (sample 1/n misses)", "accuracy (Pearson)", "overhead", "searches"),
        lambda r: [int(r["threshold"]), f"{r['accuracy']:.3f}",
                   f"{100 * r['overhead']:.3f}%", int(r["searches"])]),
    "hm_period": AblationAxis(
        "periods", ("period",),
        ("period (cycles)", "scans", "accuracy (Pearson)", "overhead"),
        lambda r: [int(r["period"]), int(r["scans"]), f"{r['accuracy']:.3f}",
                   f"{100 * r['overhead']:.3f}%"]),
    "tlb_geometry": AblationAxis(
        "geometries", ("entries", "ways"),
        ("entries", "ways", "accuracy", "miss rate", "matches"),
        lambda r: [int(r["entries"]), int(r["ways"]), f"{r['accuracy']:.3f}",
                   f"{100 * r['tlb_miss_rate']:.3f}%", int(r["matches"])]),
    "page_size": AblationAxis(
        "page_sizes", ("page_size",),
        ("page size", "TLB miss rate", "SM matches", "SM accuracy", "HM accuracy"),
        lambda r: [f"{int(r['page_size']) // 1024} KiB",
                   f"{100 * r['miss_rate']:.3f}%", int(r["sm_matches"]),
                   f"{r['sm_accuracy']:.2f}", f"{r['hm_accuracy']:.2f}"]),
    "l2_tlb": AblationAxis(
        "l2_entries", ("l2_entries",),
        ("L2-TLB entries", "page walks", "SM searches", "SM accuracy"),
        lambda r: ["none" if r["l2_entries"] == 0 else str(int(r["l2_entries"])),
                   int(r["walks"]), int(r["searches"]), f"{r['accuracy']:.2f}"]),
}

#: Detection mechanisms the paper compares.
MECHANISMS = ("SM", "HM")

#: Counters that must match bit-for-bit between engines (the acceptance
#: gate for the fast path; shared with ``benchmarks/bench_engine_speedup``).
ENGINE_COMPARED_FIELDS = (
    "execution_cycles",
    "core_cycles",
    "accesses",
    "invalidations",
    "snoop_transactions",
    "l2_misses",
    "memory_fetches",
    "l1_sibling_invalidations",
    "tlb_accesses",
    "tlb_misses",
    "inter_chip_transactions",
    "intra_chip_transactions",
)

#: ExperimentConfig fields a spec's ``overrides`` (or runtime params) may
#: set, each with the type its value must have (a float knob also takes
#: an integer).  ``benchmarks`` and ``seed`` are spec axes
#: (``kernels``/``seeds``), not overridable knobs.
_CONFIG_FIELDS: Dict[str, type] = {
    name: float if hint is float else int
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
    if name not in ("benchmarks", "seed")
}

#: Runtime-only parameters (never part of a spec file): pipeline extras.
_EXTRA_PARAMS = ("speedup_floor", "engine_repeats")


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _is_number(value: Any) -> bool:
    """A TOML integer or finite float (bool is an int subclass: excluded)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _is_point(point: Any, arity: int) -> bool:
    """A sweep point: ``arity`` non-negative numbers (a bare one if 1)."""
    values = (point,) if arity == 1 else point
    return (isinstance(values, tuple) and len(values) == arity
            and all(_is_number(v) and v >= 0 for v in values))


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: axes, overrides, and report names.

    Frozen and order-insensitively comparable; ``loads_spec(dumps_spec(s))
    == s`` is a tested identity.  Validation happens at construction, so
    a spec object in hand is always well-formed: every field has its
    type, and :meth:`config` succeeds.
    """

    name: str
    pipeline: str = "protocol"
    #: Ablation routine (``ABLATION_AXES`` key); empty for other pipelines.
    variant: str = ""
    kernels: Tuple[str, ...] = ()
    topologies: Tuple[str, ...] = ("harpertown",)
    mechanisms: Tuple[str, ...] = MECHANISMS
    seeds: Tuple[int, ...] = (2012,)
    #: Sweep axis -> points (ablation pipeline only), e.g.
    #: ``{"thresholds": (1, 4, 16)}``.
    sweep: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    #: ExperimentConfig field overrides baked into the spec's identity.
    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Report names from :data:`REPORTS` rendered after the cells finish.
    reports: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        for f in ("kernels", "topologies", "mechanisms", "seeds", "reports"):
            value = getattr(self, f)
            _check(isinstance(value, (list, tuple)),
                   f"{f} must be a list, got {value!r}")
            coerce(self, f, tuple(value))
        for f in ("sweep", "overrides"):
            value = getattr(self, f)
            _check(isinstance(value, Mapping), f"{f} must be a table, got {value!r}")
        for axis, points in self.sweep.items():
            _check(isinstance(points, (list, tuple)),
                   f"sweep axis {axis!r} must be a list, got {points!r}")
        coerce(self, "sweep", {
            str(axis): tuple(tuple(p) if isinstance(p, list) else p for p in points)
            for axis, points in self.sweep.items()
        })
        coerce(self, "overrides", dict(self.overrides))
        self._validate()

    def _validate(self) -> None:
        _check(isinstance(self.name, str) and bool(self.name)
               and not set(self.name) - _NAME_ALPHABET,
               f"spec name {self.name!r} must be non-empty [a-z0-9_-]")
        _check(self.pipeline in PIPELINES,
               f"unknown pipeline {self.pipeline!r} (expected one of {PIPELINES})")
        for k in self.kernels:
            _check(k in PAPER_BENCHMARKS, f"unknown kernel {k!r}")
        _check(len(set(self.kernels)) == len(self.kernels), "duplicate kernels")
        _check(bool(self.topologies), "spec needs at least one topology")
        for t in self.topologies:
            _check(isinstance(t, str) and t in TOPOLOGIES,
                   f"unknown topology {t!r} (expected one of {sorted(TOPOLOGIES)})")
        for m in self.mechanisms:
            _check(m in MECHANISMS, f"unknown mechanism {m!r}")
        _check(bool(self.seeds), "spec needs at least one seed")
        for s in self.seeds:
            _check(isinstance(s, int) and not isinstance(s, bool) and s >= 0,
                   f"seed {s!r} must be an integer >= 0")
        if self.pipeline == "ablation":
            _check(isinstance(self.variant, str) and self.variant in ABLATION_AXES,
                   f"unknown ablation variant {self.variant!r} "
                   f"(expected one of {sorted(ABLATION_AXES)})")
            axis = ABLATION_AXES[self.variant]
            _check(set(self.sweep) == {axis.sweep},
                   f"ablation {self.variant!r} sweeps exactly one axis "
                   f"{axis.sweep!r}, got {sorted(self.sweep)}")
            points = self.sweep[axis.sweep]
            _check(bool(points), f"sweep axis {axis.sweep!r} is empty")
            for p in points:
                _check(_is_point(p, len(axis.keys)),
                       f"sweep axis {axis.sweep!r} point {p!r} must be "
                       f"{len(axis.keys)} non-negative number(s)")
        else:
            _check(self.variant == "",
                   f"variant is only valid for the ablation pipeline, got {self.variant!r}")
            _check(not self.sweep, "sweep is only valid for the ablation pipeline")
        if self.pipeline in ("protocol", "ablation", "engine"):
            _check(bool(self.kernels), f"{self.pipeline} spec needs at least one kernel")
        for r in self.reports:
            _check(isinstance(r, str) and r in REPORTS,
                   f"unknown report {r!r} (expected one of {sorted(REPORTS)})")
        self.config()

    # -- derived --------------------------------------------------------------

    def config(
        self,
        seed: Optional[int] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> ExperimentConfig:
        """The ExperimentConfig for one seed, params layered over overrides.

        Raises :class:`ValidationError` when an override or param has the
        wrong type or is out of the config's range.
        """
        merged: Dict[str, Any] = dict(self.overrides)
        for k, v in dict(params or {}).items():
            if k in _CONFIG_FIELDS:
                merged[k] = v
        validate_overrides(merged)
        try:
            return ExperimentConfig(
                benchmarks=self.kernels or PAPER_BENCHMARKS,
                seed=self.seeds[0] if seed is None else seed,
                **merged,
            )
        except ValueError as exc:
            raise ValidationError(f"spec {self.name!r}: {exc}") from exc


_NAME_ALPHABET = set("abcdefghijklmnopqrstuvwxyz0123456789_-")


def validate_overrides(overrides: Mapping[str, Any]) -> None:
    """Reject override keys that are not ExperimentConfig knobs, and
    values that do not have the knob's type."""
    unknown = sorted(set(overrides) - set(_CONFIG_FIELDS))
    _check(not unknown,
           f"unknown override key(s) {unknown} (valid: {sorted(_CONFIG_FIELDS)})")
    for key, value in overrides.items():
        if _CONFIG_FIELDS[key] is float:
            _check(_is_number(value), f"override {key} = {value!r} must be a number")
        else:
            _check(isinstance(value, int) and not isinstance(value, bool),
                   f"override {key} = {value!r} must be an integer")


# -- TOML round-trip ---------------------------------------------------------

def spec_from_dict(data: Mapping[str, Any]) -> ExperimentSpec:
    """Build a validated spec from a parsed TOML table."""
    _check(isinstance(data, dict), "spec document must be a TOML table")
    payload = dict(data)
    schema = payload.pop("schema", SPEC_SCHEMA)
    _check(schema == SPEC_SCHEMA,
           f"spec schema {schema!r} not supported (this build reads {SPEC_SCHEMA})")
    known = {f.name for f in dataclasses.fields(ExperimentSpec)}
    unknown = sorted(set(payload) - known)
    _check(not unknown, f"unknown spec key(s) {unknown} (valid: {sorted(known)})")
    try:
        return ExperimentSpec(**payload)
    except TypeError as exc:  # e.g. name missing entirely
        raise ValidationError(str(exc)) from exc


def loads_spec(text: str) -> ExperimentSpec:
    """Parse a spec from TOML text."""
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ValidationError(f"spec is not valid TOML: {exc}") from exc
    return spec_from_dict(data)


def load_spec(path: "str | Path") -> ExperimentSpec:
    """Load a spec from a ``.toml`` file."""
    return loads_spec(Path(path).read_text())


def _toml_value(value: Any) -> str:
    """Render one TOML value.

    JSON string escaping is valid TOML basic-string escaping (``\\"``,
    ``\\\\``, ``\\n``, ``\\uXXXX`` are shared), so strings go through
    ``json.dumps``; bool must be checked before int (bool is an int
    subclass and would otherwise print 1/0, which TOML reads back as
    integers, breaking the round-trip identity).
    """
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        return repr(value)  # repr always keeps '.' or an exponent
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise ValidationError(f"cannot render {type(value).__name__} value {value!r} as TOML")


def dumps_spec(spec: ExperimentSpec) -> str:
    """Serialize a spec to TOML such that ``loads_spec`` restores it exactly."""
    lines = [f"schema = {SPEC_SCHEMA}"]
    for f in dataclasses.fields(ExperimentSpec):
        value = getattr(spec, f.name)
        if isinstance(value, dict):
            continue  # tables are rendered after all scalar keys
        lines.append(f"{f.name} = {_toml_value(value)}")
    for f in ("sweep", "overrides"):
        table: Mapping[str, Any] = getattr(spec, f)
        if table:
            lines.append("")
            lines.append(f"[{f}]")
            for k in sorted(table):
                lines.append(f"{k} = {_toml_value(table[k])}")
    return "\n".join(lines) + "\n"


def dump_spec(spec: ExperimentSpec, path: "str | Path") -> None:
    """Write a spec to a ``.toml`` file."""
    Path(path).write_text(dumps_spec(spec))


# -- execution ---------------------------------------------------------------

@dataclass
class SpecRun:
    """Everything produced by one :func:`run_spec` invocation."""

    spec: ExperimentSpec
    #: Primary-grid config (first seed) after runtime params were applied.
    config: ExperimentConfig
    #: Protocol: {kernel: BenchmarkResult} for the primary (topology, seed).
    #: Ablation: sweep records in sweep order.  Engine: stats dict.
    results: Any
    #: Full grid for multi-seed/topology specs:
    #: {(topology, seed): {kernel: BenchmarkResult}} (protocol only).
    grid: Dict[Tuple[str, int], Dict[str, BenchmarkResult]]
    #: Deterministic one-line-per-cell summary (stable across runs).
    rows: List[str]
    #: Rendered artifacts: {file name: text}.
    artifacts: Dict[str, str]
    cache_hits: int = 0
    cache_misses: int = 0
    pool_rebuilds: int = 0


def run_spec(
    spec: ExperimentSpec,
    params: Optional[Mapping[str, Any]] = None,
    workers: int = 1,
    cache_dir: "str | None" = None,
    cache_bytes: Optional[int] = None,
    out_dir: "str | Path | None" = None,
) -> SpecRun:
    """Execute a spec: fan cells out, memoize, render reports.

    ``params`` layers runtime knobs (typically scale/ensemble sizes from
    the bench environment) over ``spec.overrides``; keys must be
    ExperimentConfig fields or one of the pipeline extras
    (``speedup_floor``, ``engine_repeats``).
    """
    params = dict(params or {})
    unknown = sorted(set(params) - set(_CONFIG_FIELDS) - set(_EXTRA_PARAMS))
    _check(not unknown, f"unknown runtime param(s) {unknown}")
    for k in _EXTRA_PARAMS:
        _check(_is_number(params.get(k, 0)), f"param {k} = {params.get(k)!r} must be a number")
    cache = ResultCache(cache_dir, max_bytes=cache_bytes) if cache_dir else None
    run = _PIPELINE_RUNNERS[spec.pipeline](spec, params, workers, cache)
    for name in spec.reports:
        run.artifacts.update(REPORTS[name](run))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in run.artifacts.items():
            (out / name).write_text(text + "\n")
    return run


def steal_cells(
    tasks: Mapping[Any, Tuple[Any, ...]],
    workers: int,
    on_rebuild: Callable[[BaseException], None],
) -> Dict[Any, Any]:
    """Run ``{cell: task-args}`` over a work-stealing process pool.

    Submit-per-cell gives natural work stealing: idle workers pull the
    next pending cell the moment they finish one, so a straggler kernel
    never serializes the grid.  A BrokenProcessPool poisons every future
    in the pool, so the unfinished cells are requeued once on a fresh
    pool (cells are pure functions of their arguments, so the rerun is
    byte-identical) after ``on_rebuild`` is handed the error; a second
    pool death is fatal.  A traced caller's trace id reaches the workers
    through the environment (as ``REPRO_FAULT_PLAN`` does), linking
    their spans to the caller's trace.
    """
    out: Dict[Any, Any] = {}
    if workers <= 1 or len(tasks) <= 1:
        for cell, args in tasks.items():
            out[cell] = _spec_cell_task(*args)
        return out
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    tracer = get_tracer()
    ctx_installed = tracer.enabled and not os.environ.get(TRACE_ENV_VAR)
    if ctx_installed:
        install_context(tracer.child_context())
    pending = list(tasks)
    retried = False
    try:
        while pending:
            failed: List[Any] = []
            broken: Optional[BaseException] = None
            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                futures = {cell: pool.submit(_spec_cell_task, *tasks[cell])
                           for cell in pending}
                for cell in pending:
                    try:
                        out[cell] = futures[cell].result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        failed.append(cell)
            if not failed:
                break
            assert broken is not None
            if retried:
                raise broken
            retried = True
            global_registry().counter("runner_pool_rebuilds_total").inc()
            on_rebuild(broken)
            pending = failed
    finally:
        if ctx_installed:
            clear_context()
    return out


def _spec_cell_task(kind: str, *args: Any) -> Any:
    """Process-pool entry point for one spec cell (module-level to pickle)."""
    if kind == "benchmark":
        return _run_benchmark_task(*args)
    if kind == "ablation":
        return _ablation_cell(*args)
    raise ValueError(f"unknown cell kind {kind!r}")


def _ablation_cell(
    variant: str,
    kernel: str,
    scale: float,
    seed: int,
    topology: Topology,
    point: float,
    cache_dir: "str | None",
) -> Dict[str, float]:
    """One memoized ablation sweep point.

    Sweep routines build fresh workloads per point from a seed derived
    only from (seed, kernel), so a single-point call returns exactly the
    record a full sweep would have produced at that point.
    """
    from repro.experiments import ablations

    key = None
    cache = ResultCache(cache_dir) if cache_dir else None
    if cache is not None:
        key = _ablation_key(variant, kernel, scale, seed, topology, point)
        hit = cache.get(key)
        if isinstance(hit, dict):
            return hit
    sweep = getattr(ablations, f"{variant}_sweep")
    axis = ABLATION_AXES[variant].sweep
    kwargs = {axis: (point,), "scale": scale, "seed": seed, "topology": topology}
    record = sweep(kernel, **kwargs)[0]
    if cache is not None:
        cache.put(key, record)
    return record


def _ablation_key(
    variant: str,
    kernel: str,
    scale: float,
    seed: int,
    topology: Topology,
    point: float,
) -> str:
    return config_key("spec-ablation", variant, kernel, float(scale),
                      int(seed), topology, point)


def _run_protocol(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    workers: int,
    cache: Optional[ResultCache],
) -> SpecRun:
    cache_dir = str(cache.root) if cache is not None else None
    reg = global_registry()
    grid: Dict[Tuple[str, int], Dict[str, BenchmarkResult]] = {}
    hits = misses = 0
    tasks: Dict[Tuple[str, int, str], Tuple[Any, ...]] = {}
    for topo_name in spec.topologies:
        for seed in spec.seeds:
            config = spec.config(seed, params)
            topology = TOPOLOGIES[topo_name](cache_scale=config.cache_scale)
            runner = ExperimentRunner(config, topology, cache_dir=cache_dir)
            grid[(topo_name, seed)] = {}
            for kernel in spec.kernels:
                if cache is not None:
                    warm = cache.get(runner.benchmark_key(kernel))
                    if isinstance(warm, BenchmarkResult):
                        # Counted as ExperimentRunner.run_benchmark counts
                        # a result it serves from the cache.
                        reg.counter("runner_benchmarks_total").inc()
                        reg.counter("runner_cache_hits_total").inc()
                        grid[(topo_name, seed)][kernel] = warm
                        hits += 1
                        continue
                misses += 1
                tasks[(topo_name, seed, kernel)] = (
                    "benchmark", config, topology, kernel, cache_dir)
    broken: List[BaseException] = []
    fresh = steal_cells(tasks, workers, on_rebuild=broken.append)
    for (topo_name, seed, kernel), result in fresh.items():
        grid[(topo_name, seed)][kernel] = result
    primary_key = (spec.topologies[0], spec.seeds[0])
    results = {k: grid[primary_key][k] for k in spec.kernels}
    rows = []
    for (topo_name, seed), cells in grid.items():
        for kernel in spec.kernels:
            r = cells[kernel]
            rows.append(
                f"{topo_name}:{seed}:{kernel} "
                f"SM/OS={r.normalized_mean('SM', 'execution_seconds'):.6f} "
                f"HM/OS={r.normalized_mean('HM', 'execution_seconds'):.6f}"
            )
    return SpecRun(spec=spec, config=spec.config(params=params), results=results,
                   grid=grid, rows=rows, artifacts={}, cache_hits=hits,
                   cache_misses=misses, pool_rebuilds=len(broken))


def _run_ablation(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    workers: int,
    cache: Optional[ResultCache],
) -> SpecRun:
    cache_dir = str(cache.root) if cache is not None else None
    config = spec.config(params=params)
    axis = ABLATION_AXES[spec.variant]
    points = spec.sweep[axis.sweep]
    kernel = spec.kernels[0]
    seed = spec.seeds[0]
    topology = TOPOLOGIES[spec.topologies[0]](cache_scale=config.cache_scale)
    hits = misses = 0
    tasks: Dict[float, Tuple[Any, ...]] = {}
    records: Dict[float, Dict[str, float]] = {}
    for point in points:
        if cache is not None:
            warm = cache.get(
                _ablation_key(spec.variant, kernel, config.scale, seed, topology, point)
            )
            if isinstance(warm, dict):
                records[point] = warm
                hits += 1
                continue
        misses += 1
        tasks[point] = ("ablation", spec.variant, kernel, config.scale,
                        seed, topology, point, cache_dir)
    broken: List[BaseException] = []
    records.update(steal_cells(tasks, workers, on_rebuild=broken.append))
    ordered = [records[p] for p in points]
    rows = [
        " ".join([kernel] + [f"{k}={rec[k]:g}" for k in axis.keys]
                 + [f"{k}={v:.6f}" for k, v in sorted(rec.items())
                    if k not in axis.keys])
        for rec in ordered
    ]
    return SpecRun(spec=spec, config=config, results=ordered, grid={},
                   rows=rows, artifacts={}, cache_hits=hits,
                   cache_misses=misses, pool_rebuilds=len(broken))


def _run_engine(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    workers: int,
    cache: Optional[ResultCache],
) -> SpecRun:
    """Scalar-vs-batched parity + speedup smoke (never cached: it times).

    Counter bit-identity is the correctness gate; the speedup floor is a
    perf gate that only arms when ``params['speedup_floor'] > 0``.
    """
    import time

    from repro.machine.simulator import SimConfig, Simulator
    from repro.machine.system import System
    from repro.workloads.npb import make_npb_workload

    config = spec.config(params=params)
    kernel = spec.kernels[0]
    repeats = int(params.get("engine_repeats", 2))
    topology = TOPOLOGIES[spec.topologies[0]](cache_scale=config.cache_scale)

    def timed(engine: str):
        wl = make_npb_workload(kernel, num_threads=config.num_threads,
                               scale=config.scale, seed=config.seed)
        wl.phases()  # materialize the trace outside the timed region
        best = float("inf")
        result = None
        for _ in range(repeats):
            sim = Simulator(System(topology), SimConfig(engine=engine))
            t0 = time.perf_counter()
            result = sim.run(wl)
            best = min(best, time.perf_counter() - t0)
        return best, result

    t_scalar, r_scalar = timed("scalar")
    t_batched, r_batched = timed("batched")
    a = dataclasses.asdict(r_scalar)
    b = dataclasses.asdict(r_batched)
    for f in ENGINE_COMPARED_FIELDS:
        if a[f] != b[f]:
            raise AssertionError(
                f"engine divergence in {f}: scalar={a[f]!r} batched={b[f]!r}")
    speedup = t_scalar / t_batched if t_batched else float("inf")
    floor = float(params.get("speedup_floor", 0.0))
    if floor > 0 and speedup < floor:
        raise AssertionError(
            f"batched engine only {speedup:.2f}x faster than scalar "
            f"(floor {floor}x) — fast path regressed")
    stats = {
        "kernel": kernel,
        "scale": config.scale,
        "accesses": a["accesses"],
        "scalar_seconds": t_scalar,
        "batched_seconds": t_batched,
        "speedup": speedup,
    }
    rows = [f"{kernel} {f}={a[f]}" for f in ENGINE_COMPARED_FIELDS]
    return SpecRun(spec=spec, config=config, results=stats, grid={},
                   rows=rows, artifacts={}, cache_misses=1)


def _run_static(
    spec: ExperimentSpec,
    params: Mapping[str, Any],
    workers: int,
    cache: Optional[ResultCache],
) -> SpecRun:
    config = spec.config(params=params)
    return SpecRun(spec=spec, config=config, results={}, grid={},
                   rows=[], artifacts={})


_PIPELINE_RUNNERS: Dict[str, Callable[..., SpecRun]] = {
    "protocol": _run_protocol,
    "ablation": _run_ablation,
    "engine": _run_engine,
    "static": _run_static,
}


# -- reports -----------------------------------------------------------------
#
# Each report maps a finished SpecRun to {artifact filename: text}.  The
# file names are the tracked ``benchmarks/out/`` artifacts.


def _pattern_report(number: int, stem: str) -> Callable[[SpecRun], Dict[str, str]]:
    """Figures 4/5: one heatmap (text + SVG) per kernel, for the spec's
    first mechanism."""
    def render(run: SpecRun) -> Dict[str, str]:
        from repro.experiments.figures import communication_heatmaps, heatmap_svgs

        mechanism = (run.spec.mechanisms or MECHANISMS)[0]
        maps = communication_heatmaps(run.results, mechanism)
        out = {f"fig{number}_{stem}.txt": "\n\n".join(maps[n] for n in sorted(maps))}
        for name, svg in heatmap_svgs(run.results, mechanism).items():
            out[f"fig{number}_{name}.svg"] = svg
        return out
    return render


def _figure_report(number: int, stem: str) -> Callable[[SpecRun], Dict[str, str]]:
    def render(run: SpecRun) -> Dict[str, str]:
        from repro.experiments.figures import figure_svg, render_figure

        return {f"fig{number}_{stem}.txt": render_figure(run.results, number),
                f"fig{number}_{stem}.svg": figure_svg(run.results, number)}
    return render


def _report_table1(run: SpecRun) -> Dict[str, str]:
    from repro.experiments.tables import table1

    return {"table1_mechanisms.txt": table1()}


def _report_table2(run: SpecRun) -> Dict[str, str]:
    from repro.experiments.tables import table2

    topology = TOPOLOGIES[run.spec.topologies[0]](cache_scale=run.config.cache_scale)
    return {"table2_configuration.txt": table2(topology)}


def _table_report(number: int, stem: str) -> Callable[[SpecRun], Dict[str, str]]:
    def render(run: SpecRun) -> Dict[str, str]:
        from repro.experiments import tables

        return {f"table{number}_{stem}.txt":
                getattr(tables, f"table{number}")(run.results)}
    return render


def _report_reproduction(run: SpecRun) -> Dict[str, str]:
    from repro.experiments.report import generate_report

    return {"reproduction_report.md": generate_report(run.results)}


def _report_ablation(run: SpecRun) -> Dict[str, str]:
    from repro.util.render import format_table

    axis = ABLATION_AXES[run.spec.variant]
    text = format_table([axis.row(r) for r in run.results], header=axis.header)
    return {f"ablation_{run.spec.variant}.txt": text}


def _report_16core(run: SpecRun) -> Dict[str, str]:
    from repro.util.render import format_table

    rows = [
        [name.upper()] + [f"{r.normalized_mean('SM', metric):.3f}" for metric in
                          ("execution_seconds", "invalidations", "snoop_transactions")]
        for name, r in run.results.items()
    ]
    text = format_table(rows, header=["bench (16 threads)", "time vs OS",
                                      "inval vs OS", "snoops vs OS"])
    return {"ext_16core_suite.txt": text}


def _report_noise_variance(run: SpecRun) -> Dict[str, str]:
    from repro.util.render import format_table
    from repro.util.stats import summarize

    rows = []
    for name, r in run.results.items():
        row = [name.upper()]
        for policy in ("OS", "SM", "HM"):
            cv = summarize(r.runs[policy].metric("execution_cycles")).relative_std
            row.append(f"{100 * cv:.2f}%")
        rows.append(row)
    text = format_table(rows, header=["bench", "OS std", "SM std", "HM std"])
    return {"ext_noise_variance.txt": text}


def _report_engine_speedup(run: SpecRun) -> Dict[str, str]:
    # Only what a re-run reproduces; the timings stay in run.results.
    head = [f"{k}: {run.results[k]}" for k in ("kernel", "scale", "accesses")]
    return {"engine_speedup.txt": "\n".join(head + list(run.rows))}


REPORTS: Dict[str, Callable[[SpecRun], Dict[str, str]]] = {
    "fig4": _pattern_report(4, "sm_patterns"),
    "fig5": _pattern_report(5, "hm_patterns"),
    "fig6": _figure_report(6, "exec_time"),
    "fig7": _figure_report(7, "invalidations"),
    "fig8": _figure_report(8, "snoops"),
    "fig9": _figure_report(9, "l2_misses"),
    "table1": _report_table1,
    "table2": _report_table2,
    "table3": _table_report(3, "sm_overhead"),
    "table4": _table_report(4, "absolute"),
    "table5": _table_report(5, "stddev"),
    "report": _report_reproduction,
    "ablation": _report_ablation,
    "16core": _report_16core,
    "noise_variance": _report_noise_variance,
    "engine_speedup": _report_engine_speedup,
}
