"""JSON round-trip equality for every persisted dataclass, and the compiled
serde path checked against the reflective walker it replaced."""

import collections.abc
import dataclasses
import enum
import io
import json
import typing
from typing import Any, Dict, Optional, Tuple, Union

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.lint.schema import _load_roots
from repro.energy.mcpat import EnergyBreakdown
from repro.energy.model import EnergyReport
from repro.memory.cache import CacheConfig
from repro.memory.dram import DRAMConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.serde import canonical_json, from_jsonable, to_jsonable
from repro.simulation.engine import ResultCache, SweepSpec
from repro.simulation.experiment import BenchmarkResult, ComparisonResult, run_comparison
from repro.simulation.simulator import SimulationRequest, SimulationResult, run_simulation
from repro.uarch.config import CoreConfig
from repro.uarch.stats import CoreStats, EventCounts, ResourceSnapshot, RunaheadInterval
from repro.workloads.spec_surrogates import build_surrogate


@pytest.fixture(scope="module")
def pre_result() -> SimulationResult:
    trace = build_surrogate("milc", num_uops=1_000)
    return run_simulation(trace, SimulationRequest(variant="pre"))


@pytest.fixture(scope="module")
def comparison() -> ComparisonResult:
    traces = [build_surrogate(name, num_uops=800) for name in ("milc", "mcf")]
    return run_comparison(traces, variants=("ooo", "runahead", "pre"))


def roundtrip(obj):
    """to_dict -> JSON text -> from_dict, mirroring the on-disk cache path."""
    data = json.loads(json.dumps(obj.to_dict()))
    return type(obj).from_dict(data)


class TestConfigRoundTrips:
    def test_core_config(self):
        config = CoreConfig(rob_size=256, frequency_ghz=3.2)
        assert roundtrip(config) == config

    def test_core_config_json_string(self):
        config = CoreConfig()
        assert CoreConfig.from_json(config.to_json()) == config

    def test_cache_config(self):
        config = CacheConfig("L1D", 32 * 1024, 8, latency=4)
        assert roundtrip(config) == config

    def test_dram_config(self):
        config = DRAMConfig(num_banks=16)
        assert roundtrip(config) == config

    def test_hierarchy_config(self):
        config = HierarchyConfig(mshr_entries=16, prefetcher="stride")
        restored = roundtrip(config)
        assert restored == config
        assert isinstance(restored.l1d, CacheConfig)
        assert isinstance(restored.dram, DRAMConfig)


class TestStatsRoundTrips:
    def test_event_counts(self):
        events = EventCounts(fetched_uops=10, emq_writes=3)
        assert roundtrip(events) == events

    def test_core_stats_from_real_run(self, pre_result):
        stats = pre_result.stats
        restored = roundtrip(stats)
        assert restored == stats
        assert isinstance(restored.events, EventCounts)
        assert all(isinstance(i, RunaheadInterval) for i in restored.intervals)
        assert all(isinstance(s, ResourceSnapshot) for s in restored.stall_snapshots)
        assert restored.ipc == stats.ipc

    def test_energy_report_from_real_run(self, pre_result):
        report = pre_result.energy
        restored = roundtrip(report)
        assert restored == report
        assert isinstance(restored.breakdown, EnergyBreakdown)
        assert restored.total_nj == report.total_nj


class TestResultRoundTrips:
    def test_simulation_result(self, pre_result):
        restored = roundtrip(pre_result)
        assert restored == pre_result
        assert restored.label == "PRE"
        assert restored.ipc == pre_result.ipc
        assert restored.total_energy_nj == pre_result.total_energy_nj

    def test_benchmark_result(self, comparison):
        bench = comparison.benchmarks[0]
        restored = roundtrip(bench)
        assert restored == bench
        assert restored.normalized_performance("pre") == bench.normalized_performance("pre")

    def test_comparison_result(self, comparison):
        restored = roundtrip(comparison)
        assert restored == comparison
        assert restored.performance_table() == comparison.performance_table()
        assert restored.energy_table() == comparison.energy_table()
        assert restored.benchmark("milc").benchmark == "milc"

    def test_comparison_private_index_not_serialized(self, comparison):
        comparison.benchmark("milc")  # force the index to exist
        assert "_name_index" not in comparison.to_dict()

    def test_comparison_lookup_sees_in_place_replacement(self, comparison):
        original = comparison.benchmark("milc")
        position = comparison.benchmark_names().index("milc")
        replacement = BenchmarkResult(benchmark="milc", results=dict(original.results))
        comparison.benchmarks[position] = replacement
        try:
            assert comparison.benchmark("milc") is replacement
        finally:
            comparison.benchmarks[position] = original


class TestComparisonLookup:
    def test_benchmark_lookup_unknown_name(self, comparison):
        with pytest.raises(KeyError, match="no benchmark named 'nonesuch'"):
            comparison.benchmark("nonesuch")

    def test_benchmark_lookup_sees_appended_rows(self, comparison):
        extra = BenchmarkResult(
            benchmark="extra", results=dict(comparison.benchmarks[0].results)
        )
        comparison.benchmarks.append(extra)
        try:
            assert comparison.benchmark("extra") is extra
        finally:
            comparison.benchmarks.pop()

    def test_mean_invocation_ratio_all_degenerate(self, comparison):
        # Comparing the baseline (0 invocations) against itself filters out
        # every per-benchmark ratio.
        with pytest.raises(ValueError, match="no usable invocation ratios"):
            comparison.mean_invocation_ratio("ooo", reference="ooo")


# ------------------------------------------------- compiled serde vs reference
#
# ``repro.serde`` compiles one plan per dataclass and one decoder per type
# hint.  The functions below are the reflective walker it replaced, kept
# verbatim as the reference: for every cache-key-visible class
# (``SCHEMA_ROOTS``, loaded by ``_load_roots``) and for real results, every
# output of the compiled path must equal theirs, exceptions included.


def _ref_to_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _ref_to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {_ref_encode_key(key): _ref_to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ref_to_jsonable(item) for item in value]
    return value


def _ref_from_jsonable(hint, data, strict=False):
    if hint is Any or hint is None:
        return data
    origin = typing.get_origin(hint)
    if origin is Union:
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if data is None:
            return None
        if len(args) == 1:
            return _ref_from_jsonable(args[0], data, strict)
        return data
    sequence_origins = (
        list,
        tuple,
        collections.abc.Sequence,
        collections.abc.MutableSequence,
    )
    if origin in sequence_origins or (origin is None and hint in (list, tuple)):
        args = typing.get_args(hint)
        if (origin is tuple or hint is tuple) and args and args[-1] is not Ellipsis:
            return tuple(
                _ref_from_jsonable(arg, item, strict) for arg, item in zip(args, data)
            )
        item_hint = args[0] if args else Any
        items = [_ref_from_jsonable(item_hint, item, strict) for item in data]
        return tuple(items) if origin is tuple or hint is tuple else items
    mapping_origins = (dict, collections.abc.Mapping, collections.abc.MutableMapping)
    if origin in mapping_origins or (origin is None and hint is dict):
        args = typing.get_args(hint)
        key_hint = args[0] if len(args) == 2 else Any
        value_hint = args[1] if len(args) == 2 else Any
        return {
            _ref_decode_key(key_hint, key): _ref_from_jsonable(value_hint, item, strict)
            for key, item in data.items()
        }
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(data)
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        return _ref_dataclass_from_jsonable(hint, data, strict)
    return data


def _ref_encode_key(key):
    if isinstance(key, enum.Enum):
        return str(key.value)
    return str(key)


def _ref_decode_key(hint, key):
    if hint is int:
        return int(key)
    if hint is float:
        return float(key)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        try:
            return hint(key)
        except ValueError:
            return hint(int(key))
    return key


def _ref_dataclass_from_jsonable(cls, data, strict=False):
    if not isinstance(data, dict):
        raise TypeError(
            f"cannot rebuild {cls.__name__} from {type(data).__name__}; expected a dict"
        )
    if strict:
        known = {field.name for field in dataclasses.fields(cls) if field.init}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown field(s) {', '.join(map(repr, unknown))} for "
                f"{cls.__name__}; valid fields: {', '.join(sorted(known))}"
            )
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        if not field.init or field.name not in data:
            continue
        kwargs[field.name] = _ref_from_jsonable(
            hints.get(field.name, Any), data[field.name], strict
        )
    return cls(**kwargs)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
)


def _json_shaped(hint, depth=0):
    """A strategy for JSON-shaped data that a field typed ``hint`` accepts."""
    if hint is Any:
        return st.recursive(
            _JSON_SCALARS,
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        )
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:
        members = [arg for arg in args if arg is not type(None)]
        return st.none() | st.one_of([_json_shaped(arg, depth) for arg in members])
    if origin in (list, tuple, collections.abc.Sequence):
        if origin is tuple and args and args[-1] is not Ellipsis:
            # A surplus item checks that decoding truncates to the arity.
            return st.tuples(
                *[_json_shaped(arg, depth) for arg in args],
                st.lists(_JSON_SCALARS, max_size=1),
            ).map(lambda items: list(items[:-1]) + items[-1])
        return st.lists(_json_shaped(args[0] if args else Any, depth), max_size=3)
    if origin is dict:
        return st.dictionaries(st.text(max_size=6), _json_shaped(args[1], depth), max_size=3)
    if hint is bool:
        return st.booleans()
    if hint is int:
        # Powers of two often pass the configs' geometry checks.
        powers = st.sampled_from([1, 2, 8, 64, 4096, 65536])
        return st.one_of(powers, powers, powers, st.integers(-(2**40), 2**40))
    if hint is float:
        return st.floats(allow_nan=False) | st.integers(-1000, 1000)
    if hint is str:
        return st.text(max_size=8)
    if dataclasses.is_dataclass(hint):
        if depth > 3:
            return st.just({})
        hints = typing.get_type_hints(hint)
        fields = [field for field in dataclasses.fields(hint) if field.init]
        required = {
            field.name
            for field in fields
            if field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        }
        values = {field.name: _json_shaped(hints[field.name], depth + 1) for field in fields}
        # A few optional fields at a time, so validating constructors
        # (cache geometry, positive sizes) accept a fair share of documents.
        # An undeclared key, now and then, exercises strict rejection at depth.
        values["zz_undeclared"] = _JSON_SCALARS
        optional = sorted(set(values) - required)
        return st.lists(st.sampled_from(optional), max_size=3, unique=True).flatmap(
            lambda chosen: st.fixed_dictionaries(
                {name: values[name] for name in sorted(required) + chosen}
            )
        )
    raise AssertionError(f"no strategy for {hint!r}")


def _outcome(func):
    """``("ok", value)`` or ``("raised", type, message)`` of ``func()``."""
    try:
        return ("ok", func())
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("cls", _load_roots(), ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_compiled_serde_matches_reflective_reference(cls, data):
    document = data.draw(_json_shaped(cls))
    for strict in (False, True):
        compiled = _outcome(lambda: cls.from_dict(document, strict=strict))
        reference = _outcome(lambda: _ref_dataclass_from_jsonable(cls, document, strict))
        assert compiled == reference
    if compiled[0] != "ok":
        return
    obj = compiled[1]
    lowered = obj.to_dict()
    assert lowered == _ref_to_jsonable(obj)
    assert json.dumps(lowered) == json.dumps(_ref_to_jsonable(obj))
    assert canonical_json(obj) == json.dumps(
        _ref_to_jsonable(obj), sort_keys=True, separators=(",", ":")
    )
    text = json.loads(json.dumps(lowered))
    assert cls.from_dict(text) == _ref_dataclass_from_jsonable(cls, text)


@pytest.mark.parametrize("cls", _load_roots(), ids=lambda cls: cls.__name__)
def test_strict_rejection_message_is_unchanged(cls):
    document = {"zz_unknown": 1, "aa_unknown": 2}
    with pytest.raises(ValueError) as compiled:
        cls.from_dict(document, strict=True)
    with pytest.raises(ValueError) as reference:
        _ref_dataclass_from_jsonable(cls, document, strict=True)
    assert str(compiled.value) == str(reference.value)
    assert str(compiled.value).startswith(
        f"unknown field(s) 'aa_unknown', 'zz_unknown' for {cls.__name__}; valid fields: "
    )


def test_strict_rejection_nested_in_a_document():
    document = {"workloads": ["mcf"], "multicore": {"cores": [{"workload": "milc", "typo": 1}]}}
    with pytest.raises(ValueError) as compiled:
        SweepSpec.from_dict(document, strict=True)
    assert str(compiled.value) == (
        "unknown field(s) 'typo' for CoreAssignment; valid fields: num_uops, variant, workload"
    )


def test_compiled_serde_matches_reference_on_results(pre_result, comparison):
    for obj in (pre_result, comparison):
        lowered = obj.to_dict()
        assert json.dumps(lowered) == json.dumps(_ref_to_jsonable(obj))
        text = json.loads(json.dumps(lowered))
        assert type(obj).from_dict(text) == _ref_dataclass_from_jsonable(type(obj), text)


def test_to_jsonable_lowers_enums_keys_and_containers():
    class Colour(enum.Enum):
        RED = 1

    value = {Colour.RED: (Colour.RED, [1.5, None]), 3: {"x": True}}
    assert to_jsonable(value) == _ref_to_jsonable(value) == {"1": [1, [1.5, None]], "3": {"x": True}}
    assert from_jsonable(Dict[int, Tuple[int, ...]], {"4": [1, 2]}) == {4: (1, 2)}
    assert from_jsonable(Optional[Tuple[int, int]], [1, 2, 3]) == (1, 2)


def test_cache_put_writes_the_bytes_of_json_dump(tmp_path, pre_result):
    cache = ResultCache(tmp_path)
    for key, payload in (
        ("result", pre_result.to_dict()),
        ("awkward", {"é": [1e300, -0.0, 2**70, None, True, "☃\n\"q\""]}),
    ):
        cache.put(key, payload)
        expected = io.StringIO()
        json.dump(payload, expected)
        assert cache.path_for(key).read_bytes() == expected.getvalue().encode("utf-8")
        assert cache.get(key) == payload
