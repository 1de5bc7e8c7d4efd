"""Run configuration: one frozen dataclass mirrored by a JSON file.

Every stochastic choice in a run flows from ``master_seed``; there is no
wall-clock seeding anywhere, so (config, code) determines every output
byte.  The JSON form mirrors the field names exactly, with the model
nested under "model".
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, fields, replace

from . import serialize
from .fock import DomainError
from .model import HubbardParams


class ConfigWarning(UserWarning):
    """The configuration is valid but outside the recommended envelope."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, with desk-scale defaults."""

    model: HubbardParams
    master_seed: int
    subsystem_sites: int = 2
    target_particles: int | None = None
    initial_kind: str = "momentum"
    t_free: float | None = None
    times: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    u_values: tuple[float, ...] = (
        1e-3, 1.93e-3, 3.73e-3, 7.2e-3, 1.39e-2, 2.68e-2, 5.18e-2, 1e-1,
    )
    ensemble_size: int = 10
    evolve_tol: float = 1e-10
    evolve_method: str = "auto"
    clamp: float = 1e-10
    warn_threshold: float = 0.1
    rank_cutoff: float = 1e-12
    degeneracy_tol: float = 1e-10
    histogram_bins: int = 24
    bootstrap_resamples: int = 1000
    shots_per_basis: int = 4000
    measure_order: int = 2
    workers: int = 0
    out_dir: str = "runs"

    def __post_init__(self):
        if not isinstance(self.master_seed, int):
            raise DomainError("master_seed must be an integer")
        if not self.times:
            raise DomainError("time grid is empty")
        if not self.u_values:
            raise DomainError("interaction grid is empty")
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
        if self.initial_kind not in ("momentum", "position"):
            raise DomainError(f"unknown initial state kind {self.initial_kind!r}")
        if self.initial_kind == "position" and self.t_free is None:
            raise DomainError("position initial states need t_free")
        if self.measure_order not in (1, 2):
            raise DomainError("measure_order must be 1 or 2")
        if self.workers < 0:
            raise DomainError("workers must be >= 0")
        for name in ("histogram_bins", "bootstrap_resamples",
                     "shots_per_basis"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "u_values",
                           tuple(float(u) for u in self.u_values))
        # incremental evolution in the drivers assumes ordered grids
        for name in ("times", "u_values"):
            grid = getattr(self, name)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise DomainError(f"{name} must be strictly increasing")

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


def load_config(path: str) -> RunConfig:
    doc = serialize.load_json(path)
    known = {f.name for f in fields(RunConfig)}
    unknown = set(doc) - known
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    if "model" not in doc or "master_seed" not in doc:
        raise DomainError("config needs at least 'model' and 'master_seed'")
    kwargs = dict(doc)
    kwargs["model"] = HubbardParams(**doc["model"])
    if "times" in kwargs:
        kwargs["times"] = tuple(kwargs["times"])
    if "u_values" in kwargs:
        kwargs["u_values"] = tuple(kwargs["u_values"])
    return RunConfig(**kwargs)
