"""Run configuration: schema-validated JSON in, resolved schedule objects out.

The schema ships as package data (data/config.schema.json) and rejects unknown
keys, so a typo'd field fails loudly instead of silently using a default.
Serialization materializes every field; parse -> serialize -> parse is the
identity on the resulting object.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field
from importlib import resources

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .attention import ModulationConfig, resolve_targets
from .calibration import load_block_fixture
from .scheduling import BlockGateTable, ScheduleConfig, StepWindow, window_preset


class ConfigError(ValueError):
    """Invalid run configuration (schema violation or inconsistent values)."""


def _schema() -> dict:
    text = resources.files("attnlab").joinpath("data/config.schema.json").read_text()
    return json.loads(text)


_SCHEMA = _schema()


@functools.cache
def _validator():
    """The schema's validator; the schema itself is checked once per process."""
    cls = validator_for(_SCHEMA)
    cls.check_schema(_SCHEMA)
    return cls(_SCHEMA)


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
        object.__setattr__(self, "window", dict(self.window))
        object.__setattr__(self, "block_gates", dict(self.block_gates))
        object.__setattr__(self, "dims", dict(self.dims))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        # What jsonschema.validate does, without re-checking the schema per call.
        error = best_match(_validator().iter_errors(data))
        if error is not None:
            path = "/".join(str(p) for p in error.absolute_path) or "<root>"
            raise ConfigError(f"config invalid at {path}: {error.message}")
        merged = {f: getattr(cls(), f) for f in cls.__dataclass_fields__}
        for key in ("window", "block_gates", "dims"):
            if key in data:
                base = dict(merged[key])
                base.update(data[key])
                merged[key] = base
        for key, value in data.items():
            if key not in ("window", "block_gates", "dims"):
                merged[key] = value
        cfg = cls(**merged)
        cfg.resolved_window()
        cfg.resolved_gates()
        cfg.modulation()
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["alpha_grid"] is not None:
            d["alpha_grid"] = list(d["alpha_grid"])
        return d

    # -- resolution to domain objects ------------------------------------

    def resolved_window(self) -> StepWindow:
        w = self.window
        has_explicit = "low" in w or "high" in w
        if has_explicit:
            if not ("low" in w and "high" in w):
                raise ConfigError("explicit window needs both 'low' and 'high'")
            try:
                return StepWindow(float(w["low"]), float(w["high"]))
            except ValueError as e:
                raise ConfigError(str(e)) from None
        preset = w.get("preset", "early")
        try:
            return window_preset(preset)
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def resolved_gates(self) -> BlockGateTable:
        g = self.block_gates
        source = g.get("source", "first_half")
        try:
            if source == "first_half":
                return BlockGateTable.first_half(self.num_blocks)
            if source == "all":
                return BlockGateTable.uniform(self.num_blocks, on=True)
            if source == "none":
                return BlockGateTable.uniform(self.num_blocks, on=False)
            if source == "fixture":
                if "name" not in g:
                    raise ConfigError("block_gates source 'fixture' needs 'name'")
                fx = load_block_fixture(g["name"])
                return BlockGateTable.from_selected(fx.blocks, fx.num_blocks)
            if source == "explicit":
                if "gates" not in g:
                    raise ConfigError("block_gates source 'explicit' needs 'gates'")
                return BlockGateTable(tuple(g["gates"]))
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(str(e)) from None
        raise ConfigError(f"unknown block_gates source {source!r}")

    def modulation(self) -> ModulationConfig:
        try:
            return ModulationConfig(
                mode=self.mode,
                gamma=self.gamma,
                gamma_max=self.gamma_max,
                kappa=self.kappa,
                targets=resolve_targets(self.position),
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None

    def schedule(self) -> ScheduleConfig:
        gates = self.resolved_gates()
        try:
            return ScheduleConfig(
                gates=gates,
                total_steps=self.total_steps,
                window=self.resolved_window(),
                modulation=self.modulation(),
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None
