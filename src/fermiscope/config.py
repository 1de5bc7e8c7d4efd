"""Run configuration: one frozen dataclass mirrored by a JSON file.

Every stochastic choice in a run flows from ``master_seed``; there is no
wall-clock seeding anywhere, so (config, code) determines every output
byte.  The JSON form mirrors the field names exactly, with the model
nested under "model".
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import asdict, dataclass, fields, replace

from . import serialize
from .fock import DomainError
from .model import HubbardParams, is_finite_real


class ConfigWarning(UserWarning):
    """The configuration is valid but outside the recommended envelope."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, with desk-scale defaults."""

    model: HubbardParams
    master_seed: int
    subsystem_sites: int = 2
    target_particles: int | None = None
    times: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    u_values: tuple[float, ...] = (
        1e-3, 1.93e-3, 3.73e-3, 7.2e-3, 1.39e-2, 2.68e-2, 5.18e-2, 1e-1,
    )
    ensemble_size: int = 10
    shots_per_basis: int = 4000
    workers: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        # JSON may give a float or a boolean where an integer belongs
        ints = ["master_seed", "subsystem_sites", "ensemble_size",
                "shots_per_basis", "workers"]
        if self.target_particles is not None:
            ints.append("target_particles")
        for name in ints:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("times", "u_values"):
            grid = getattr(self, name)
            if not (isinstance(grid, (list, tuple)) and grid
                    and all(is_finite_real(x) for x in grid)):
                raise DomainError(f"{name} must be a nonempty list of finite "
                                  f"numbers, not {grid!r}")
            grid = tuple(float(x) for x in grid)
            object.__setattr__(self, name, grid)
            # incremental evolution in the drivers assumes ordered grids
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise DomainError(f"{name} must be strictly increasing")
        if self.master_seed < 0:
            raise DomainError(f"master_seed must be >= 0, not {self.master_seed}")
        if self.ensemble_size < 1:
            raise DomainError("ensemble size must be positive")
        if not 1 <= self.subsystem_sites < self.model.sites:
            raise DomainError("subsystem must be a proper nonempty part")
        if self.subsystem_sites > self.model.sites // 2:
            warnings.warn(
                f"subsystem of {self.subsystem_sites} sites exceeds half of "
                f"{self.model.sites}; spectra will be rank-limited by the "
                "smaller environment",
                ConfigWarning,
                stacklevel=2,
            )
        if self.workers < 0:
            raise DomainError("workers must be >= 0")
        if self.shots_per_basis < 1:
            raise DomainError("shots_per_basis must be >= 1")

    @property
    def particles(self) -> int:
        # default filling one below half, where half filling is excluded
        if self.target_particles is not None:
            return self.target_particles
        return self.model.sites - 1

    @property
    def subsystem_modes(self) -> int:
        return 2 * self.subsystem_sites

    def override(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def summary(self) -> dict:
        doc = asdict(self)
        doc["times"] = list(doc["times"])
        doc["u_values"] = list(doc["u_values"])
        return doc


def default_config(master_seed: int = 20240817) -> RunConfig:
    return RunConfig(model=HubbardParams(sites=5), master_seed=master_seed)


def save_config(path: str, config: RunConfig):
    serialize.dump_json(path, config.summary())


def _fields_of(doc, cls, what: str, required: tuple[str, ...]) -> dict:
    """``doc`` as keyword arguments of ``cls``, or a DomainError naming why not."""
    if not isinstance(doc, dict):
        raise DomainError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    missing = [name for name in required if name not in doc]
    if unknown or missing:
        raise DomainError(f"unknown {what} keys: {unknown}, missing: {missing}")
    return doc


def load_config(path: str) -> RunConfig:
    kwargs = _fields_of(serialize.load_json(path), RunConfig, "config",
                        ("model", "master_seed"))
    kwargs["model"] = HubbardParams(**_fields_of(kwargs["model"], HubbardParams,
                                                 "model", ("sites",)))
    return RunConfig(**kwargs)
