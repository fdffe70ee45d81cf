"""JSON serialisation for the repro dataclasses.

Every result and configuration object the experiment engine persists —
:class:`~repro.uarch.config.CoreConfig`,
:class:`~repro.memory.hierarchy.HierarchyConfig`,
:class:`~repro.uarch.stats.CoreStats`,
:class:`~repro.energy.model.EnergyReport`,
:class:`~repro.simulation.simulator.SimulationResult` and
:class:`~repro.simulation.experiment.ComparisonResult` — is a (possibly
nested) dataclass.  Rather than hand-writing one encoder/decoder pair per
class, this module derives them from the dataclass fields and their type
hints:

* :func:`to_jsonable` lowers a dataclass tree to plain dicts, lists, strings
  and numbers (enums become their ``value``), i.e. something ``json.dumps``
  accepts directly;
* :func:`from_jsonable` rebuilds the typed object tree from that
  representation, dispatching on the declared field types (``Optional``,
  ``List``/``Sequence``, ``Tuple``, ``Dict``, enums and nested dataclasses).

Both directions are *compiled*: the first use of a dataclass builds one
:class:`_Plan` holding its field names, and each type hint is turned once
into a decoder function cached by ``(hint, strict)``.  Later calls run
those closures instead of re-inspecting ``dataclasses.fields`` and
``typing.get_origin`` on every value, which is what a cache-hit service job
spends most of its host time on.

Classes opt in by inheriting :class:`JSONSerializable`, which adds the
``to_dict``/``from_dict``/``to_json``/``from_json`` quartet.  Round-tripping
is exact: ints stay ints and floats survive ``repr`` round-trips, so a result
loaded from the on-disk cache compares equal to the freshly simulated one.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import json
import os
import tempfile
import typing
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Type, TypeVar, Union

T = TypeVar("T")

#: A compiled decoder: JSON-shaped data in, typed value out.  ``None`` stands
#: for "return the data unchanged" so callers can skip the call.
Decoder = Optional[Callable[[Any], Any]]

#: Values ``to_jsonable`` returns as they are (exact types: enum and
#: container subclasses of these still take the general path).
_PRIMITIVES = frozenset({str, int, float, bool, type(None)})

_SEQUENCE_ORIGINS = (
    list,
    tuple,
    collections.abc.Sequence,
    collections.abc.MutableSequence,
)
_MAPPING_ORIGINS = (dict, collections.abc.Mapping, collections.abc.MutableMapping)


class _Plan:
    """What serde needs to know about one dataclass, computed once.

    ``names`` lists every field (the ``to_jsonable`` order); the decoders
    cover ``init`` fields only and are compiled on first use per
    ``strict`` flag, so mutually recursive dataclasses compile lazily.
    """

    __slots__ = ("cls", "names", "init_names", "known_text", "_decoders")

    def __init__(self, cls: type) -> None:
        fields = dataclasses.fields(cls)
        self.cls = cls
        self.names = tuple(field.name for field in fields)
        self.init_names = frozenset(field.name for field in fields if field.init)
        self.known_text = ", ".join(sorted(self.init_names))
        self._decoders: Dict[bool, Tuple[Tuple[str, Decoder], ...]] = {}

    def decoders(self, strict: bool) -> Tuple[Tuple[str, Decoder], ...]:
        compiled = self._decoders.get(strict)
        if compiled is None:
            hints = typing.get_type_hints(self.cls)
            compiled = tuple(
                (field.name, _decoder(hints.get(field.name, Any), strict))
                for field in dataclasses.fields(self.cls)
                if field.init
            )
            self._decoders[strict] = compiled
        return compiled

    def encode(self, value: Any) -> Dict[str, Any]:
        out = {}
        for name in self.names:
            item = getattr(value, name)
            out[name] = item if type(item) in _PRIMITIVES else to_jsonable(item)
        return out

    def decode(self, data: Any, strict: bool) -> Any:
        cls = self.cls
        if not isinstance(data, dict):
            raise TypeError(
                f"cannot rebuild {cls.__name__} from {type(data).__name__}; expected a dict"
            )
        if strict:
            unknown = sorted(set(data) - self.init_names)
            if unknown:
                raise ValueError(
                    f"unknown field(s) {', '.join(map(repr, unknown))} for "
                    f"{cls.__name__}; valid fields: {self.known_text}"
                )
        kwargs = {}
        for name, decode in self.decoders(strict):
            if name in data:
                item = data[name]
                kwargs[name] = item if decode is None else decode(item)
        return cls(**kwargs)


_PLANS: Dict[type, _Plan] = {}
_ENCODERS: Dict[type, Callable[[Any], Any]] = {}
_DECODERS: Dict[Tuple[Any, bool], Decoder] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _Plan(cls)
    return plan


# ------------------------------------------------------------------ encoding


def to_jsonable(value: Any) -> Any:
    """Lower ``value`` (dataclasses, enums, containers) to JSON-compatible types."""
    cls = type(value)
    if cls in _PRIMITIVES:
        return value
    encode = _ENCODERS.get(cls)
    if encode is None:
        encode = _ENCODERS[cls] = _encoder_for(cls)
    return encode(value)


def _encoder_for(cls: type) -> Callable[[Any], Any]:
    """The lowering rule for every value of type ``cls``."""
    if dataclasses.is_dataclass(cls):
        return _plan(cls).encode
    if issubclass(cls, enum.Enum):
        return _enum_value
    if issubclass(cls, dict):
        return _encode_dict
    if issubclass(cls, (list, tuple)):
        return _encode_sequence
    return _identity


def _identity(value: Any) -> Any:
    return value


def _enum_value(value: enum.Enum) -> Any:
    return value.value


def _encode_dict(value: Dict[Any, Any]) -> Dict[str, Any]:
    return {
        key if type(key) is str else _encode_key(key): (
            item if type(item) in _PRIMITIVES else to_jsonable(item)
        )
        for key, item in value.items()
    }


def _encode_sequence(value: Any) -> list:
    return [item if type(item) in _PRIMITIVES else to_jsonable(item) for item in value]


def _encode_key(key: Any) -> str:
    """Stringify a dict key the way :func:`_key_decoder` can undo."""
    if isinstance(key, enum.Enum):
        return str(key.value)
    return str(key)


# ------------------------------------------------------------------ decoding


def from_jsonable(hint: Any, data: Any, strict: bool = False) -> Any:
    """Rebuild a typed value from :func:`to_jsonable` output, guided by ``hint``.

    With ``strict=True``, dictionaries feeding dataclasses may not carry keys
    the dataclass does not declare — unknown keys raise :class:`ValueError`
    instead of being silently dropped.  The experiment service uses this to
    turn a typo'd field in a submitted document into a clean 400 rather than
    accepting (and mis-running) a spec the author never wrote.
    """
    decode = _decoder(hint, strict)
    return data if decode is None else decode(data)


def _decoder(hint: Any, strict: bool) -> Decoder:
    """The compiled decoder for ``hint``, cached by ``(hint, strict)``."""
    key = (hint, strict)
    try:
        return _DECODERS[key]
    except KeyError:
        decode = _DECODERS[key] = _compile(hint, strict)
        return decode


def _compile(hint: Any, strict: bool) -> Decoder:
    if hint is Any or hint is None:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:  # Optional[X] and general unions
        members = [arg for arg in args if arg is not type(None)]
        if len(members) != 1:
            return None  # a multi-member union decodes nothing
        inner = _decoder(members[0], strict)
        if inner is None:
            return None
        return lambda data: None if data is None else inner(data)
    if origin in _SEQUENCE_ORIGINS or (origin is None and hint in (list, tuple)):
        as_tuple = origin is tuple or hint is tuple
        if as_tuple and args and args[-1] is not Ellipsis:
            fixed = tuple(_decoder(arg, strict) or _identity for arg in args)
            return lambda data: tuple(
                decode(item) for decode, item in zip(fixed, data)
            )
        item_decoder = _decoder(args[0], strict) if args else None
        if item_decoder is None:
            return tuple if as_tuple else list
        if as_tuple:
            return lambda data: tuple([item_decoder(item) for item in data])
        return lambda data: [item_decoder(item) for item in data]
    if origin in _MAPPING_ORIGINS or (origin is None and hint is dict):
        key_decoder = _key_decoder(args[0]) if len(args) == 2 else None
        value_decoder = _decoder(args[1], strict) if len(args) == 2 else None
        if key_decoder is None and value_decoder is None:
            return _copy_dict
        key_decoder = key_decoder or _identity
        value_decoder = value_decoder or _identity
        return lambda data: {
            key_decoder(key): value_decoder(item) for key, item in data.items()
        }
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        plan = _plan(hint)
        return lambda data: plan.decode(data, strict)
    return None


def _copy_dict(data: Any) -> dict:
    return {key: item for key, item in data.items()}


def _key_decoder(hint: Any) -> Decoder:
    """Undo the key stringification JSON forces on non-string dict keys."""
    if hint is int:
        return int
    if hint is float:
        return float
    if isinstance(hint, type) and issubclass(hint, enum.Enum):

        def decode_enum_key(key: str) -> Any:
            try:
                return hint(key)
            except ValueError:
                return hint(int(key))  # int-valued enums stringify as digits

        return decode_enum_key
    return None


# ------------------------------------------------------------------ public API


class JSONSerializable:
    """Mixin adding a JSON round-trip to a dataclass.

    ``from_dict`` accepts the output of ``to_dict`` (or any dict with the
    same shape, e.g. parsed from a cache file) and rebuilds a fully typed
    instance, recursing into nested dataclasses, lists and mappings.
    """

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-compatible dict representation of this object."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls: Type[T], data: Dict[str, Any], strict: bool = False) -> T:
        """Rebuild an instance from :meth:`to_dict` output.

        ``strict=True`` rejects unknown keys anywhere in the tree (see
        :func:`from_jsonable`) — the contract for externally submitted
        documents, where a silently dropped typo means running the wrong
        experiment.
        """
        return _plan(cls).decode(data, strict)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls: Type[T], text: str) -> T:
        """Rebuild an instance from a JSON string."""
        return cls.from_dict(json.loads(text))


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding used for content-hash cache keys."""
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def write_json(path: Union[str, Path], value: Any, atomic: bool = False) -> None:
    """Write ``value`` to ``path`` as compact JSON, encoded once in memory.

    The bytes equal ``json.dump(value, handle)``; ``json.dumps`` takes the C
    encoder's one-shot path, which the streaming ``json.dump`` does not.
    With ``atomic=True`` the text goes to a temp file in the same directory
    that is then renamed over ``path``, so a reader (another process sharing
    a cache directory) never observes a half-written document.
    """
    text = json.dumps(value)
    if not atomic:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
