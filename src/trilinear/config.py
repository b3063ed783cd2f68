"""Run configuration: one JSON document configuring the whole pipeline.

Validation reports the full field path of the first offending entry, e.g.
"mux.n_ac_inputs: expected a positive integer".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .protocol import PhaseConfig, ReadoutFixture
from .router import Durations
from .scheduler import MuxConfig
from .topology import GridSpec, TrilinearLayout

def _expect_mapping(doc, path: str, *known: str) -> dict:
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
    return doc


def _get_int(doc: dict, key: str, default: int, path: str, minimum: int = 1) -> int:
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
    if val < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val


def _get_float(doc: dict, key: str, default: float, path: str,
               minimum: Optional[float] = None) -> float:
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
    val = float(val)
    if not math.isfinite(val):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {val}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val


def _get_bool(doc: dict, key: str, default: bool, path: str) -> bool:
    val = doc.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {val!r}")
    return val


# A layout is frozen, so equal ones share their memos; `typed`: `map` writes 100 and 100.0 apart.
_layout = lru_cache(maxsize=8, typed=True)(TrilinearLayout)


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec = field(default_factory=lambda: GridSpec(8, 8))
    pitch_nm: float = 100.0
    loop: bool = False
    m_rows: int = 1
    mux: MuxConfig = field(default_factory=MuxConfig)
    durations: Durations = field(default_factory=Durations)
    phases: PhaseConfig = field(default_factory=PhaseConfig)
    set_spacing: Optional[int] = None
    seed: int = 0

    def layout(self) -> TrilinearLayout:
        return _layout(self.grid, self.pitch_nm, self.loop, self.m_rows)

    def fixture(self, layout: TrilinearLayout) -> ReadoutFixture:
        return ReadoutFixture.from_spacing(layout, self.set_spacing)


def config_from_json(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: expected an object")
    doc = _expect_mapping(doc, "config", "grid", "pitch_nm", "loop", "m_rows", "mux",
                          "durations", "protocol", "seed")
    grid_doc = _expect_mapping(doc.get("grid"), "grid", "rows", "cols")
    grid = GridSpec(
        rows=_get_int(grid_doc, "rows", 8, "grid"),
        cols=_get_int(grid_doc, "cols", 8, "grid", minimum=2),
    )

    mux_doc = _expect_mapping(doc.get("mux"), "mux", "n_ac_inputs",
                              "readout_coexists_with_shuttle")
    mux = MuxConfig(
        n_ac_inputs=_get_int(mux_doc, "n_ac_inputs", 8, "mux"),
        readout_coexists_with_shuttle=_get_bool(
            mux_doc, "readout_coexists_with_shuttle", True, "mux"),
    )

    # Every Durations field is a config key with that default.
    dur_fields = fields(Durations)
    dur_doc = _expect_mapping(doc.get("durations"), "durations", *(f.name for f in dur_fields))
    durations = Durations(**{f.name: _get_int(dur_doc, f.name, f.default, "durations")
                             for f in dur_fields})

    proto_doc = _expect_mapping(doc.get("protocol"), "protocol",
                                "hop_phase_magnet", "hop_phase_bare", "set_spacing")
    set_spacing = proto_doc.get("set_spacing")
    if set_spacing is not None:
        set_spacing = _get_int(proto_doc, "set_spacing", 1, "protocol")

    m_rows = _get_int(doc, "m_rows", 1, "config")
    if m_rows > grid.cols:
        raise ConfigError(f"config.m_rows: must be <= grid.cols ({grid.cols}), got {m_rows}")
    return RunConfig(
        grid=grid,
        pitch_nm=_get_float(doc, "pitch_nm", 100.0, "config", minimum=1e-9),
        loop=_get_bool(doc, "loop", False, "config"),
        m_rows=m_rows,
        mux=mux,
        durations=durations,
        phases=PhaseConfig(
            hop_phase_magnet=_get_float(proto_doc, "hop_phase_magnet", 0.0, "protocol"),
            hop_phase_bare=_get_float(proto_doc, "hop_phase_bare", 0.0, "protocol")),
        set_spacing=set_spacing,
        seed=_get_int(doc, "seed", 0, "config", minimum=0),
    )


def _load_json_file(path: str | Path, what: str, finite: bool = True):
    """The JSON document in a file, or ConfigError naming `what` and the file:
    unreadable, not UTF-8, not JSON, too deep, a 5000-digit int, or (with
    `finite`) NaN, Infinity or 1e400, which a config leaves to its field checks."""
    def reject(name: str):
        raise ConfigError(f"{what} {path}: {name} is not a JSON number")

    def finite_float(text: str) -> float:
        if math.isinf(value := float(text)):  # 1e400; json.dumps would write Infinity
            raise ConfigError(f"{what} {path}: {text} is not a finite number")
        return value

    hooks = {"parse_constant": reject, "parse_float": finite_float} if finite else {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, **hooks)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # too deep, a 5000-digit int, not UTF-8
        raise ConfigError(f"{what} {path}: {exc}") from exc


def load_config(path: str | Path, seed: Optional[int] = None) -> RunConfig:
    """Read a config file; a given `seed` overrides the file's, checked alike."""
    doc = _load_json_file(path, "config", finite=False)
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed}
    return config_from_json(doc)
