"""Run configuration: schema-checked JSON in, resolved schedule objects out.

The schema ships as package data (data/config.schema.json) and rejects unknown
keys, so a typo'd field fails loudly instead of silently using a default.
attnlab checks it itself, implementing only the keywords that schema uses and
reporting the error, worded as jsonschema 4.26 words it, that jsonschema's
``best_match`` would pick. Serialization materializes every field; parse ->
serialize -> parse is the identity on the resulting object.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, field, replace
from importlib import resources

from .attention import ModulationConfig, resolve_targets
from .calibration import load_block_fixture
from .scheduling import BlockGateTable, ScheduleConfig, StepWindow, window_preset


class ConfigError(ValueError):
    """Invalid run configuration (schema violation or inconsistent values)."""


# The config keys holding a dict that a config file's dict is laid over.
_NESTED = ("window", "block_gates", "dims")

# The verification suites, in the order ``verify all`` runs them. They are named
# here, so that the CLI's parser names them without loading the suites.
SUITE_NAMES = ("scale-equivalence", "entropy-slope", "curvature", "lipschitz", "deviation")


_SCHEMA = json.loads(resources.files("attnlab").joinpath("data/config.schema.json").read_text())
_TYPES = {"number": numbers.Number, "string": str, "array": list, "object": dict, "null": type(None)}

# keyword -> (the comparison that fails, the words between value and bound)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _is_type(value, name: str) -> bool:
    """JSON Schema's types: a bool is no number, an integer-valued float is an integer."""
    if isinstance(value, bool):
        return False
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    return isinstance(value, _TYPES[name])


def _errors(schema: dict, value, path: tuple):
    """(path, message) for each way ``value`` breaks ``schema``, in keyword order."""
    for keyword, arg in schema.items():
        if keyword == "type":
            types = arg if isinstance(arg, list) else [arg]
            if not any(_is_type(value, t) for t in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword in _BOUNDS:
            fails, words = _BOUNDS[keyword]
            if _is_type(value, "number") and fails(value, arg):
                yield path, f"{value!r} is {words} of {arg!r}"
        elif keyword == "enum":
            # True == 1 in Python, but not in JSON.
            if not any(e == value and isinstance(e, bool) == isinstance(value, bool) for e in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword in ("minLength", "minItems"):
            if isinstance(value, str if keyword == "minLength" else list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _errors(arg, item, path + (i,))
        elif keyword == "properties" and isinstance(value, dict):
            for name, sub in arg.items():
                if name in value:
                    yield from _errors(sub, value[name], path + (name,))
        elif keyword == "additionalProperties" and isinstance(value, dict):
            extras = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
            if extras:
                listed = ", ".join(map(repr, extras))
                were = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({listed} {were} unexpected)"
        elif keyword == "required" and isinstance(value, dict):
            for name in arg:
                if name not in value:
                    yield path, f"{name!r} is a required property"


def check_config(data) -> None:
    """Raise ``ConfigError`` if ``data`` breaks the shipped schema.

    Of several errors, the one reported is the one jsonschema's ``best_match``
    picks: the shallowest path, then the largest of sibling paths, then the
    first in keyword order.
    """
    error = max(_errors(_SCHEMA, data, ()), key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        raise _invalid(*error)


def _invalid(path: tuple, message: str) -> ConfigError:
    return ConfigError(f"config invalid at {'/'.join(map(str, path)) or '<root>'}: {message}")


def _non_finite(value, path: tuple):
    """(path, value) for each NaN or infinite float in ``value``, depth first.

    Every JSON Schema bound is false on NaN, and one bound cannot reject the
    infinity on its other side, so ``check_config`` (like jsonschema) admits them.
    """
    if isinstance(value, float) and not math.isfinite(value):
        yield path, value
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(item, path + (key,))


def read_config_file(path) -> dict:
    """The JSON object a config file holds, not yet validated."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    draws: int = 200
    samples: int = 50
    probes: int = 120
    gamma: float = 1.35
    gamma_max: float = 1.5
    kappa: float = 1.0
    mode: str = "scalar"
    arch: str = "joint"
    position: str = "Key-image and Key-text"
    tau: float = 0.5
    high_quantile: float = 0.2
    total_steps: int = 25
    num_blocks: int = 8
    boost: float = 2.0
    window: dict = field(default_factory=lambda: {"preset": "early"})
    block_gates: dict = field(default_factory=lambda: {"source": "first_half"})
    dims: dict = field(
        default_factory=lambda: {
            "n_text": 4,
            "n_image": 6,
            "n_video": 8,
            "d_k": 8,
            "d_v": 6,
        }
    )
    alpha_grid: tuple | None = None
    out_dir: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.alpha_grid is not None:
            object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        for key in _NESTED:
            object.__setattr__(self, key, dict(getattr(self, key)))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        check_config(data)
        for path, value in _non_finite(data, ()):
            raise _invalid(path, f"{value!r} is not a finite number")
        defaults = cls()
        nested = {key: {**getattr(defaults, key), **data[key]} for key in _NESTED if key in data}
        cfg = replace(defaults, **{**data, **nested})
        n_gates = cfg.schedule().num_blocks
        if "num_blocks" in data and n_gates != cfg.num_blocks:
            raise ConfigError(
                f"num_blocks is {cfg.num_blocks}, but the block gates cover {n_gates} blocks"
            )
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["alpha_grid"] is not None:
            d["alpha_grid"] = list(d["alpha_grid"])
        return d

    def schedule(self) -> ScheduleConfig:
        """The run's step window x block gates x modulation, checked in that order.

        Each rule's ``ValueError`` is reported as a ``ConfigError``.
        """
        w, g = self.window, self.block_gates
        source = g.get("source", "first_half")
        try:
            if "low" in w or "high" in w:
                if not ("low" in w and "high" in w):
                    raise ValueError("explicit window needs both 'low' and 'high'")
                window = StepWindow(float(w["low"]), float(w["high"]))
            else:
                window = window_preset(w.get("preset", "early"))
            if source == "first_half":
                gates = BlockGateTable.first_half(self.num_blocks)
            elif source in ("all", "none"):
                gates = BlockGateTable.uniform(self.num_blocks, on=source == "all")
            elif source == "fixture":
                if "name" not in g:
                    raise ValueError("block_gates source 'fixture' needs 'name'")
                fx = load_block_fixture(g["name"])
                gates = BlockGateTable.from_selected(fx.blocks, fx.num_blocks)
            elif source == "explicit":
                if "gates" not in g:
                    raise ValueError("block_gates source 'explicit' needs 'gates'")
                gates = BlockGateTable(tuple(g["gates"]))
            else:
                raise ValueError(f"unknown block_gates source {source!r}")
            modulation = ModulationConfig(
                mode=self.mode,
                gamma=self.gamma,
                gamma_max=self.gamma_max,
                kappa=self.kappa,
                targets=resolve_targets(self.position),
            )
            return ScheduleConfig(
                gates=gates, total_steps=self.total_steps, window=window, modulation=modulation
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None
