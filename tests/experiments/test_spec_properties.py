"""Property tests: spec TOML round-trip and synthesizer seed stability.

Two families of guarantees the platform leans on:

* ``loads_spec(dumps_spec(s)) == s`` for *every* well-formed spec — the
  on-disk TOML is a faithful, stable encoding, so a spec file's identity
  (and therefore its cache keys) survives rewrite cycles; unknown keys
  anywhere, and wrongly typed or out-of-range values, raise a typed
  :class:`ValidationError` at load instead of being silently dropped,
  coerced, or failing at run time.
* The scenario synthesizer is a pure function of ``(seed, index)`` —
  the same draw yields byte-identical scenarios across processes and
  machines, which is what makes metamorphic failures reproducible.
"""

from __future__ import annotations

import dataclasses
import tomllib

import pytest
from hypothesis import given, strategies as st

from repro.experiments.ablations import ABLATION_AXES
from repro.experiments.config import PAPER_BENCHMARKS
from repro.experiments.specs import (
    MECHANISMS,
    PIPELINES,
    SPEC_SCHEMA,
    TOPOLOGIES,
    ExperimentSpec,
    dumps_spec,
    loads_spec,
    spec_from_dict,
)
from repro.experiments.synth import ScenarioSynthesizer, SynthBounds, scenario_bytes
from repro.util.validation import ValidationError

_SPEC_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)}

names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-",
                min_size=1, max_size=24)
kernel_lists = st.lists(st.sampled_from(sorted(PAPER_BENCHMARKS)),
                        min_size=1, max_size=4, unique=True).map(tuple)
safe_floats = st.floats(min_value=0.01, max_value=100.0,
                        allow_nan=False, allow_infinity=False)

override_values = {
    "num_threads": st.integers(1, 64),
    "scale": safe_floats,
    "os_runs": st.integers(1, 8),
    "mapped_runs": st.integers(1, 8),
    "sm_sample_threshold": st.integers(1, 512),
    "hm_period_cycles": st.integers(1_000, 1_000_000),
    "cache_scale": safe_floats,
    "detection_windows": st.integers(1, 16),
    "noise_rate": st.floats(min_value=0.0, max_value=0.5,
                            allow_nan=False, allow_infinity=False),
}
overrides_st = st.fixed_dictionaries(
    {}, optional={k: v for k, v in override_values.items()})

powers_of_two = st.integers(0, 20).map(lambda k: 2 ** k)
#: Points each ablation variant accepts: integers, powers of two for TLB
#: and page geometry, ``[entries, ways]`` with ways <= entries, and L2-TLB
#: entries of 0 (none) or at least its 4 ways.
sweep_points = {
    "thresholds": st.integers(1, 512),
    "periods": st.integers(1, 10_000_000),
    "geometries": st.tuples(powers_of_two, powers_of_two).map(
        lambda p: (max(p), min(p))),
    "page_sizes": powers_of_two,
    "l2_entries": st.just(0) | powers_of_two.filter(lambda n: n >= 4),
}


@st.composite
def specs(draw) -> ExperimentSpec:
    pipeline = draw(st.sampled_from(PIPELINES))
    kw = {
        "name": draw(names),
        "pipeline": pipeline,
        "topologies": tuple(draw(st.lists(
            st.sampled_from(sorted(TOPOLOGIES)), min_size=1, unique=True))),
        "mechanisms": tuple(draw(st.lists(
            st.sampled_from(MECHANISMS), min_size=1, unique=True))),
        "seeds": tuple(draw(st.lists(
            st.integers(0, 2**31 - 1), min_size=1, max_size=4))),
        "overrides": draw(overrides_st),
    }
    if pipeline in ("protocol", "ablation", "engine"):
        kw["kernels"] = draw(kernel_lists)
    if pipeline == "ablation":
        variant = draw(st.sampled_from(sorted(ABLATION_AXES)))
        axis = ABLATION_AXES[variant]
        kw["variant"] = variant
        kw["sweep"] = {axis.sweep: tuple(draw(st.lists(
            sweep_points[axis.sweep], min_size=1, max_size=5)))}
    return ExperimentSpec(**kw)


#: Any TOML value, of any type a field may not expect.
toml_values = st.recursive(
    st.integers(-2**63, 2**63 - 1) | st.floats() | st.booleans()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestRoundTrip:
    @given(spec=specs())
    def test_loads_dumps_identity(self, spec):
        assert loads_spec(dumps_spec(spec)) == spec

    @given(spec=specs())
    def test_dumps_is_stable(self, spec):
        text = dumps_spec(spec)
        assert dumps_spec(loads_spec(text)) == text

    @given(spec=specs())
    def test_dump_carries_schema(self, spec):
        assert f"schema = {SPEC_SCHEMA}" in dumps_spec(spec).splitlines()[0]


class TestUnknownKeys:
    @given(spec=specs(), key=names)
    def test_unknown_top_level_key_raises(self, spec, key):
        if key in _SPEC_FIELDS or key == "schema":
            return
        lines = dumps_spec(spec).splitlines()
        # Top-level keys must precede any [table]; slot in after schema.
        lines.insert(1, f"{key} = 1")
        with pytest.raises(ValidationError, match="unknown spec key"):
            loads_spec("\n".join(lines))

    @given(key=names)
    def test_unknown_override_key_raises(self, key):
        if key in override_values:
            return
        with pytest.raises(ValidationError, match="unknown override"):
            ExperimentSpec(name="x", kernels=("sp",), overrides={key: 1})

    def test_unsupported_schema_raises(self):
        with pytest.raises(ValidationError, match="schema"):
            spec_from_dict({"schema": SPEC_SCHEMA + 1, "name": "x",
                            "kernels": ["sp"]})

    def test_error_names_the_valid_keys(self):
        with pytest.raises(ValidationError, match="valid:"):
            spec_from_dict({"name": "x", "kernels": ["sp"], "bogus": 1})


class TestFailsClosed:
    @pytest.mark.parametrize("text", [
        'name = "x"\nkernels = ["sp"]\nseeds = ["a"]',
        'name = "x"\nkernels = ["sp"]\nseeds = [1.5]',
        'name = "x"\nkernels = ["sp"]\n[overrides]\nscale = "big"',
        'name = "x"\nkernels = ["sp"]\n[overrides]\nscale = -1.0',
        'name = "x"\npipeline = "ablation"\nvariant = "sm_sampling"\n'
        'kernels = ["sp"]\n[sweep]\nthresholds = "abc"',
    ], ids=["seed-string", "seed-float", "override-string",
            "override-negative", "sweep-string"])
    def test_malformed_value_is_rejected_at_load(self, text):
        with pytest.raises(ValidationError):
            loads_spec(text)

    @given(spec=specs(), data=st.data())
    def test_wrong_values_load_or_raise_validation_error(self, spec, data):
        table = tomllib.loads(dumps_spec(spec))
        field = data.draw(st.sampled_from(sorted(_SPEC_FIELDS)))
        value = data.draw(toml_values)
        if field in ("overrides", "sweep") and data.draw(st.booleans()):
            keys = (override_values if field == "overrides"
                    else [a.sweep for a in ABLATION_AXES.values()])
            table.setdefault(field, {})[data.draw(st.sampled_from(sorted(keys)))] = value
        else:
            table[field] = value
        try:
            loaded = spec_from_dict(table)
        except ValidationError:
            return
        loaded.config()


class TestSynthesizerSeedStability:
    @given(seed=st.integers(0, 2**31 - 1), index=st.integers(0, 1000))
    def test_same_seed_same_bytes(self, seed, index):
        a = ScenarioSynthesizer(seed).scenario(index)
        b = ScenarioSynthesizer(seed).scenario(index)
        assert scenario_bytes(a) == scenario_bytes(b)

    @given(seed=st.integers(0, 2**31 - 1), index=st.integers(0, 1000))
    def test_bounds_respected(self, seed, index):
        bounds = SynthBounds()
        sc = ScenarioSynthesizer(seed, bounds).scenario(index)
        assert sc.family in bounds.families
        assert sc.num_threads in bounds.threads
        assert bounds.scale_min <= sc.scale <= bounds.scale_max
        assert sc.l2_kib in bounds.l2_kib
        assert 1 <= sc.sm_sample_threshold <= bounds.sm_threshold_max
        assert bounds.hm_period_min <= sc.hm_period_cycles <= bounds.hm_period_max
        assert 0.0 <= sc.noise_rate <= bounds.noise_rate_max
        assert sc.cores_per_l2 * sc.l2_per_chip * sc.chips == sc.num_threads

    @given(seed=st.integers(0, 2**31 - 1))
    def test_indices_draw_independently(self, seed):
        # scenario(i) must not depend on which indices were drawn before
        # it — that is what lets shards partition the index space.
        syn = ScenarioSynthesizer(seed)
        eager = [scenario_bytes(syn.scenario(i)) for i in range(4)]
        assert scenario_bytes(ScenarioSynthesizer(seed).scenario(3)) == eager[3]

    def test_different_seeds_differ(self):
        a = ScenarioSynthesizer(1).scenario(0)
        b = ScenarioSynthesizer(2).scenario(0)
        assert scenario_bytes(a) != scenario_bytes(b)
