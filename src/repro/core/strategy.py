"""The pluggable whitespace-strategy API.

The paper's area-management tool applies "one of the two strategies" to a
placed netlist (Figure 2); the tool itself is strategy-agnostic.  This
module makes that boundary a first-class plugin API:

* :class:`WhitespaceStrategy` — the ABC every technique implements: a
  ``name``, a ``default_hotspot_threshold`` and an
  ``apply(ctx) -> StrategyResult`` method.
* :class:`StrategyContext` / :class:`StrategyResult` — the fixed contract
  between :func:`~repro.core.area_manager.manage_area` and a strategy:
  the baseline placement, power report, thermal map, pre-detected hotspots
  and requested overhead in; the transformed placement and its
  book-keeping out.
* a process-wide **registry** — :func:`register_strategy` (usable as a
  decorator), :func:`available_strategies`, :func:`strategy_class` and
  :func:`resolve_strategy`.  Importing :mod:`repro.core` registers the
  built-in strategies; third-party code registers its own without touching
  this package (see ``examples/custom_strategy.py``).
* a parameterized **spec grammar** — ``"hw"``,
  ``"hw:ring_um=8,max_source_units=3"`` or
  ``{"name": "hw", "ring_um": 8}`` — so sweep grids can vary strategy
  parameters without code changes.  The spec is the only parameter
  channel: a strategy reads its knobs from its own parameters and nowhere
  else, so the canonical spec names everything that shaped a transform.
"""

from __future__ import annotations

import abc
import difflib
import re
from dataclasses import dataclass
from typing import (
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

from ..placement import Placement
from ..power import PowerReport
from ..thermal import ThermalMap
from .hotspot import Hotspot, detect_hotspots


#: A strategy spec: a name, a parameterized ``"name:key=val,..."`` string, a
#: ``{"name": ..., **params}`` mapping, or an already-resolved instance.
StrategySpec = Union[str, Mapping[str, object], "WhitespaceStrategy"]

_NAME_RE = re.compile(r"^[a-z][a-z0-9_-]*$")


@dataclass
class StrategyContext:
    """Everything a strategy may read when transforming a placement.

    Attributes:
        placement: The baseline placed design (strategies must not mutate
            it; every built-in works on a cloned netlist).
        power: Cell-by-cell power report of the baseline.
        thermal_map: Thermal map of the baseline placement.
        hotspots: Hotspots pre-detected at the strategy's effective
            threshold, hottest first.
        area_overhead: The user-requested fractional area overhead.  Every
            other knob is a parameter of the strategy's own spec.
    """

    placement: Placement
    power: PowerReport
    thermal_map: ThermalMap
    hotspots: List[Hotspot]
    area_overhead: float

    def detect(self, threshold_fraction: float) -> List[Hotspot]:
        """Re-detect hotspots on the baseline map at another threshold.

        Used by strategies that need a second view of the thermal field —
        e.g. ``hybrid`` detects the broad warm region at its own threshold
        and the tight concentrated peaks at the wrapper's.
        """
        return detect_hotspots(
            self.thermal_map,
            self.placement,
            power=self.power,
            threshold_fraction=threshold_fraction,
        )


@dataclass
class StrategyResult:
    """What a strategy hands back to the area manager.

    Attributes:
        placement: The transformed placement (on a cloned netlist).
        actual_overhead: Core-area overhead actually introduced (0.0 for
            techniques that only redistribute existing whitespace).
        inserted_rows: Empty rows inserted, when the technique inserts rows.
        num_fillers: Filler cells inserted into created whitespace.
        details: Strategy-specific result object(s) for deeper inspection.
    """

    placement: Placement
    actual_overhead: float
    inserted_rows: int = 0
    num_fillers: int = 0
    details: object = None


class WhitespaceStrategy(abc.ABC):
    """Base class of every whitespace-allocation technique.

    Subclasses set the class attributes and implement :meth:`apply`:

    * ``name`` — the registry key and spec name (lowercase, ``[a-z0-9_-]``).
    * ``default_hotspot_threshold`` — hotspot-detection threshold used when
      the spec does not override it.
    * ``param_defaults`` — the tunable parameters and their defaults; spec
      parameters are validated against this mapping and coerced to the
      default's type.  Every strategy additionally accepts a
      ``hotspot_threshold`` parameter.

    Instances are cheap, immutable value objects: construction validates
    the parameter overrides, ``apply`` does the work.
    """

    name: ClassVar[str]
    default_hotspot_threshold: ClassVar[float] = 0.5
    param_defaults: ClassVar[Mapping[str, object]] = {}

    def __init__(self, **params: object) -> None:
        self.overrides: Dict[str, object] = self._validate_params(params)

    # -- parameters ----------------------------------------------------------

    @classmethod
    def _validate_params(cls, params: Mapping[str, object]) -> Dict[str, object]:
        """Check parameter names against :attr:`param_defaults` and coerce types."""
        allowed = dict(cls.param_defaults)
        validated: Dict[str, object] = {}
        for key, value in params.items():
            if key == "hotspot_threshold":
                value = float(value)  # type: ignore[arg-type]
                if not 0.0 < value <= 1.0:
                    raise ValueError(
                        f"strategy {cls.name!r}: hotspot_threshold must be in (0, 1], "
                        f"got {value}"
                    )
                validated[key] = value
                continue
            if key not in allowed:
                known = ", ".join(sorted(allowed) + ["hotspot_threshold"]) or "none"
                raise ValueError(
                    f"strategy {cls.name!r} has no parameter {key!r} "
                    f"(accepted: {known})"
                )
            default = allowed[key]
            try:
                if isinstance(default, bool):
                    value = _as_bool(value)
                elif isinstance(default, int):
                    value = _as_int(value)
                elif isinstance(default, float):
                    value = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise ValueError(
                    f"strategy {cls.name!r}: parameter {key!r} expects "
                    f"{type(default).__name__}, got {value!r}"
                ) from None
            validated[key] = value
        return validated

    @property
    def params(self) -> Dict[str, object]:
        """The effective parameters: defaults merged with the overrides."""
        merged: Dict[str, object] = dict(self.param_defaults)
        merged.update(self.overrides)
        return merged

    def param(self, key: str, fallback: object = None) -> object:
        """One effective parameter: override, else default, else ``fallback``."""
        if key in self.overrides:
            return self.overrides[key]
        return self.param_defaults.get(key, fallback)

    # -- identity ------------------------------------------------------------

    @property
    def spec(self) -> str:
        """The canonical spec string (round-trips through the grammar)."""
        return format_strategy_spec(self.name, self.overrides)

    def effective_hotspot_threshold(self) -> float:
        """Detection threshold: the ``hotspot_threshold`` param or the class default."""
        override = self.overrides.get("hotspot_threshold")
        return float(override) if override is not None else self.default_hotspot_threshold

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.spec!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WhitespaceStrategy) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    # -- the actual work -----------------------------------------------------

    @abc.abstractmethod
    def apply(self, ctx: StrategyContext) -> StrategyResult:
        """Transform the baseline placement; must not mutate the context."""


# -- registry ----------------------------------------------------------------

_REGISTRY: Dict[str, Type[WhitespaceStrategy]] = {}


def register_strategy(
    cls: Optional[Type[WhitespaceStrategy]] = None, *, replace: bool = False
) -> Union[Type[WhitespaceStrategy], Callable[[Type[WhitespaceStrategy]], Type[WhitespaceStrategy]]]:
    """Register a :class:`WhitespaceStrategy` subclass under its ``name``.

    Usable bare (``@register_strategy``) or with options
    (``@register_strategy(replace=True)``).  Registration is process-wide;
    duplicate names are rejected unless ``replace=True``.

    Returns:
        The class unchanged, so it stacks as a decorator.

    Raises:
        TypeError: If ``cls`` is not a concrete ``WhitespaceStrategy``.
        ValueError: If the name is malformed or already registered.
    """

    def _register(cls: Type[WhitespaceStrategy]) -> Type[WhitespaceStrategy]:
        if not (isinstance(cls, type) and issubclass(cls, WhitespaceStrategy)):
            raise TypeError(
                f"register_strategy expects a WhitespaceStrategy subclass, got {cls!r}"
            )
        name = getattr(cls, "name", None)
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(
                f"strategy class {cls.__name__} needs a lowercase 'name' matching "
                f"{_NAME_RE.pattern!r}, got {name!r}"
            )
        if getattr(cls.apply, "__isabstractmethod__", False):
            raise TypeError(f"strategy {name!r} does not implement apply()")
        if name in _REGISTRY and not replace:
            raise ValueError(
                f"strategy name {name!r} is already registered "
                f"(by {_REGISTRY[name].__name__}); pass replace=True to override"
            )
        _REGISTRY[name] = cls
        return cls

    return _register(cls) if cls is not None else _register


def unregister_strategy(name: str) -> None:
    """Remove a registered strategy (primarily for tests)."""
    _REGISTRY.pop(name, None)


def available_strategies() -> Tuple[str, ...]:
    """Registered strategy names, in registration order."""
    return tuple(_REGISTRY)


def strategy_class(name: str) -> Type[WhitespaceStrategy]:
    """The registered class for ``name``.

    Raises:
        ValueError: If no strategy of that name is registered; the message
            lists the registry and suggests close matches.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(_unknown_strategy_message(name)) from None


def _unknown_strategy_message(name: str) -> str:
    known = available_strategies()
    message = f"unknown strategy {name!r}"
    close = difflib.get_close_matches(name, known, n=1, cutoff=0.6)
    if close:
        message += f"; did you mean {close[0]!r}?"
    message += f" (registered: {', '.join(known) or 'none'})"
    return message


# -- spec grammar ------------------------------------------------------------


def _as_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    # _parse_scalar turns the spec strings "1"/"0" into ints before a bool
    # parameter sees them, so 0/1 must round-trip here too.
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
    raise ValueError(f"not a boolean: {value!r}")


def _as_int(value: object) -> int:
    """Exact int coercion: rejects fractional floats instead of truncating."""
    if isinstance(value, float) and value != int(value):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)  # type: ignore[arg-type]


def _parse_scalar(text: str) -> object:
    """Best-effort scalar parsing for spec parameter values."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def parse_strategy_spec(spec: StrategySpec) -> Tuple[str, Dict[str, object]]:
    """Split a spec into ``(name, params)`` without touching the registry.

    Accepted forms::

        "hw"                                  # bare name
        "hw:ring_um=8,max_source_units=3"     # parameterized string
        {"name": "hw", "ring_um": 8}          # flat mapping
        {"name": "hw", "params": {...}}       # nested mapping
        resolved_instance                     # passed through

    Raises:
        TypeError: If ``spec`` is neither str, mapping nor strategy.
        ValueError: If the string or mapping is malformed.
    """
    if isinstance(spec, WhitespaceStrategy):
        return spec.name, dict(spec.overrides)
    if isinstance(spec, Mapping):
        payload = dict(spec)
        name = payload.pop("name", None)
        if not isinstance(name, str):
            raise ValueError(f"strategy spec mapping needs a 'name' key: {spec!r}")
        nested = payload.pop("params", None)
        if nested is not None:
            if not isinstance(nested, Mapping):
                raise ValueError(f"'params' of spec {name!r} must be a mapping")
            payload.update(nested)
        return name.strip().lower(), payload
    if not isinstance(spec, str):
        raise TypeError(
            f"strategy spec must be a str, mapping or WhitespaceStrategy, "
            f"got {type(spec).__name__}"
        )
    name, _, param_text = spec.partition(":")
    name = name.strip().lower()
    if not name:
        raise ValueError(f"empty strategy name in spec {spec!r}")
    params: Dict[str, object] = {}
    if param_text.strip():
        for item in param_text.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(
                    f"malformed parameter {item!r} in spec {spec!r}; "
                    f"expected 'key=value'"
                )
            params[key] = _parse_scalar(value.strip())
    return name, params


def format_strategy_spec(name: str, params: Mapping[str, object]) -> str:
    """The canonical string form of ``(name, params)``.

    Parameters are sorted by key, so equal specs format identically and
    :func:`parse_strategy_spec` round-trips the result.
    """
    if not params:
        return name
    rendered = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{name}:{rendered}"


def split_spec_list(text: str) -> List[str]:
    """Split a comma-separated list of specs, keeping parameter commas.

    ``"default,hw:ring_um=8,max_source_units=3,eri"`` splits into
    ``["default", "hw:ring_um=8,max_source_units=3", "eri"]``: a segment
    containing ``=`` (and no ``:`` before it) continues the previous spec's
    parameter list rather than starting a new spec.
    """
    specs: List[str] = []
    for segment in text.split(","):
        segment = segment.strip()
        if not segment:
            continue
        eq = segment.find("=")
        colon = segment.find(":")
        continues = eq != -1 and (colon == -1 or eq < colon)
        if continues and specs:
            specs[-1] += f",{segment}"
        else:
            specs.append(segment)
    return specs


def resolve_strategy(spec: StrategySpec) -> WhitespaceStrategy:
    """Resolve any accepted spec form into a strategy instance.

    Args:
        spec: A name, parameterized string, mapping, or instance (returned
            as-is).

    Returns:
        A validated, parameter-bound :class:`WhitespaceStrategy`.

    Raises:
        TypeError: On spec objects of the wrong type.
        ValueError: On unknown names (with a "did you mean" hint) or bad
            parameters.
    """
    if isinstance(spec, WhitespaceStrategy):
        return spec
    name, params = parse_strategy_spec(spec)
    return strategy_class(name)(**params)


def describe_strategies() -> List[Dict[str, object]]:
    """One summary row per registered strategy (what ``repro strategies`` prints)."""
    rows: List[Dict[str, object]] = []
    for name in available_strategies():
        cls = _REGISTRY[name]
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append(
            {
                "name": name,
                "class": f"{cls.__module__}.{cls.__name__}",
                "default_hotspot_threshold": cls.default_hotspot_threshold,
                "params": dict(cls.param_defaults),
                "summary": doc[0] if doc else "",
            }
        )
    return rows
