"""Experiment configuration: schema validation, hashing, graph resolution."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import jsonschema

from .errors import ConfigError
from .graphs import DynamicGraphModel, graph_complete_edge_markovian, graph_er_iv, \
    graph_from_json, graph_small_world

TASKS = ("threshold", "simulate", "empirical", "oracle", "chung", "spectra",
         "figure3", "figure456")

PRESETS = {  # name: builder of the model from the preset's params and the config's seed
    "iv": lambda p, seed: graph_er_iv(
        n=int(p.get("n", 500)), er_prob=float(p.get("er_prob", 0.2)),
        seed=int(p.get("graph_seed", seed)), gauss_mode=p.get("gauss_mode", "variance")),
    "small_world": lambda p, seed: graph_small_world(
        n=int(p["n"]), r=float(p["r"]), rate_scale=float(p.get("rate_scale", 1.0))),
    "complete_edge_markovian": lambda p, seed: graph_complete_edge_markovian(
        n=int(p["n"]), q=float(p["q"]), r=float(p["r"]), time=p.get("time", "ct")),
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["task", "seed"],
    "properties": {
        "task": {"enum": list(TASKS)},
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1},
        "out": {"type": "string"},
        "graph": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": list(PRESETS)},
                "params": {"type": "object"},
                "spec": {"type": "object"},
                "file": {"type": "string"},
            },
        },
        "epidemic": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta": {"type": ["number", "array"]},
                "delta": {"type": ["number", "array"]},
            },
        },
        "params": {"type": "object"},
    },
}


@dataclass
class ExperimentConfig:
    """Validated experiment description; hashable for output provenance."""

    task: str
    seed: int
    threads: int | None = None
    out: str | None = None
    graph: dict = field(default_factory=dict)
    epidemic: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"invalid experiment config: {exc.message}") from exc
        threads = doc.get("threads")
        return cls(task=doc["task"], seed=int(doc["seed"]),
                   threads=None if threads is None else int(threads),
                   out=doc.get("out"),
                   graph=doc.get("graph", {}), epidemic=doc.get("epidemic", {}),
                   params=doc.get("params", {}))

    def to_dict(self) -> dict:
        doc = {"task": self.task, "seed": self.seed}
        if self.threads is not None:
            doc["threads"] = self.threads
        for key in ("out", "graph", "epidemic", "params"):
            if getattr(self, key):
                doc[key] = getattr(self, key)
        return doc

    def hash(self) -> str:
        return config_hash(self.to_dict())

    def resolve_threads(self) -> int:
        """Explicit config value wins; TEMPEST_THREADS is the fallback."""
        if self.threads is not None:
            return max(1, self.threads)
        env = os.environ.get("TEMPEST_THREADS") or "1"
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"TEMPEST_THREADS must be an integer, got {env!r}") from None


def load_json(path: str) -> dict:
    """Parse a user-named JSON object; a missing or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or text encoding
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_graph(cfg: ExperimentConfig) -> DynamicGraphModel:
    """Resolve the config's graph block to a model (preset, inline spec, or file);
    a missing or malformed value in the block is a ConfigError."""
    g = cfg.graph
    if not g:
        raise ConfigError("this task needs a 'graph' block")
    p, preset = dict(g.get("params", {})), g.get("preset")
    try:
        if preset in PRESETS:
            return PRESETS[preset](p, cfg.seed)
        if "spec" in g:
            return graph_from_json(g["spec"])
        if "file" in g:
            return graph_from_json(load_json(g["file"]))
    except KeyError as exc:
        raise ConfigError(f"graph block is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid graph block: {exc}") from exc
    raise ConfigError("graph block needs one of: preset, spec, file")
