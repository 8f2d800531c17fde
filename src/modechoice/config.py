"""Everything a config file sets: the travel modes, the survey's column map,
the prompt template, the backend, each baseline's train settings, and the
pipeline config that holds them, read from YAML. It needs no numpy and no
stage module, so a run whose report is stored reads its config without them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import yaml

from .artifacts import digest_of

_DISPLAY_NAMES = ("Train", "Car", "Swissmetro")  # by value; cheaper than the enum's name


class ModeLabel(IntEnum):
    """The three travel modes, with a fixed total order used for tie-breaking."""

    TRAIN = 0
    CAR = 1
    SWISSMETRO = 2

    @property
    def display(self) -> str:
        return _DISPLAY_NAMES[self]

    @classmethod
    def from_name(cls, text: str) -> "ModeLabel":
        key = text.strip().upper()
        try:
            return cls[key]
        except KeyError:
            raise ValueError(f"unknown mode name {text!r}") from None


MODE_ORDER: tuple[ModeLabel, ...] = tuple(ModeLabel)


def _default_choice_code_map() -> dict[int, ModeLabel]:
    # Public Swissmetro codebook: 1 = train, 2 = Swissmetro, 3 = car, 0 = unknown.
    return {1: ModeLabel.TRAIN, 2: ModeLabel.SWISSMETRO, 3: ModeLabel.CAR}


@dataclass(frozen=True)
class ColumnMap:
    """Binding of the eight features plus bookkeeping columns to raw column names.

    The regular-user and annual-pass defaults (SURVEY, GA) follow the public
    Swissmetro codebook but are a documented guess; override them if your file
    encodes those attributes differently.
    """

    # per-mode values are tuples in MODE_ORDER: (Train, Car, Swissmetro)
    time_columns: tuple[str, str, str] = ("TRAIN_TT", "CAR_TT", "SM_TT")
    cost_columns: tuple[str, str, str] = ("TRAIN_CO", "CAR_CO", "SM_CO")
    availability_columns: tuple[str, str, str] = ("TRAIN_AV", "CAR_AV", "SM_AV")
    regular_user_column: str = "SURVEY"
    annual_pass_column: str = "GA"
    choice_column: str = "CHOICE"
    choice_code_map: dict[int, ModeLabel] = field(default_factory=_default_choice_code_map)

    def __post_init__(self):
        for columns in (self.time_columns, self.cost_columns, self.availability_columns):
            if len(columns) != len(MODE_ORDER):
                raise ValueError("per-mode columns need one name per mode")
        names = self.mapped_columns()
        if not all(isinstance(name, str) for name in names):
            raise TypeError(f"column names must be strings, got {names}")
        if len(names) != len(set(names)):
            raise ValueError("mapped column names must be distinct")
        if not all(type(code) is int for code in self.choice_code_map):
            raise TypeError(f"choice_code_map keys must be integers, got {[*self.choice_code_map]}")
        if set(self.choice_code_map.values()) != set(MODE_ORDER):
            raise ValueError("choice_code_map must cover exactly the three modes")

    def mapped_columns(self) -> list[str]:
        pairs = zip(self.time_columns, self.cost_columns)
        return [name for pair in pairs for name in pair] + [
            *self.availability_columns,
            self.regular_user_column,
            self.annual_pass_column,
            self.choice_column,
        ]

    def to_json_dict(self) -> dict:
        """The config form: per-mode columns keyed by mode name."""
        return {
            "time_columns": {m.display: self.time_columns[m] for m in MODE_ORDER},
            "cost_columns": {m.display: self.cost_columns[m] for m in MODE_ORDER},
            "availability_columns": {
                m.display: self.availability_columns[m] for m in MODE_ORDER
            },
            "regular_user_column": self.regular_user_column,
            "annual_pass_column": self.annual_pass_column,
            "choice_column": self.choice_column,
            "choice_code_map": {
                str(code): mode.display for code, mode in sorted(self.choice_code_map.items())
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ColumnMap":
        """Read the config form; an omitted key keeps its default, and a code may be text."""
        kwargs = dict(doc)
        for key in ("time_columns", "cost_columns", "availability_columns"):
            if key in kwargs:
                by_mode = {ModeLabel.from_name(k): v for k, v in kwargs[key].items()}
                if len(by_mode) != len(MODE_ORDER):
                    raise ValueError(f"{key} must cover exactly the three modes")
                kwargs[key] = tuple(by_mode[m] for m in MODE_ORDER)
        if "choice_code_map" in kwargs:
            kwargs["choice_code_map"] = {
                int(c) if isinstance(c, str) and c.isdecimal() else c: ModeLabel.from_name(n)
                for c, n in kwargs["choice_code_map"].items()
            }
        return cls(**kwargs)


COMPONENT_NAMES = ("task", "characteristics", "attributes", "guide", "output_format")

DEFAULT_TASK_TEXT = (
    "Your task is to predict which travel mode a person will choose for an "
    "intercity trip. The three available modes are Train, Car, and Swissmetro "
    "(a new high-speed rail service). You will be given the travel time in "
    "minutes and the travel cost in Swiss francs for each mode, together with "
    "some attributes of the person."
)

DEFAULT_DOMAIN_TEXTS = (
    "When choosing a travel mode, people usually trade off travel time against travel cost.",
    "A person who is a regular Train user is more likely to choose Train.",
    "A person who owns the Train annual pass is more likely to choose Train.",
)

DEFAULT_OUTPUT_FORMAT_TEXT = (
    "Answer in exactly the following format and nothing else:\n"
    "Prediction: <Train, Car, or Swissmetro>\n"
    "Reason: <a brief explanation of the prediction>"
)


@dataclass(frozen=True)
class PromptTemplateConfig:
    task_description_text: str = DEFAULT_TASK_TEXT
    domain_knowledge_texts: tuple[str, ...] = DEFAULT_DOMAIN_TEXTS
    output_format_text: str = DEFAULT_OUTPUT_FORMAT_TEXT
    component_order: tuple[str, ...] = COMPONENT_NAMES

    def __post_init__(self):
        if not self.task_description_text or not self.output_format_text:
            raise ValueError("template texts must be non-empty")
        if not self.domain_knowledge_texts or any(not t for t in self.domain_knowledge_texts):
            raise ValueError("domain knowledge texts must be non-empty")
        if sorted(self.component_order) != sorted(COMPONENT_NAMES):
            raise ValueError(
                f"component_order must contain each of {COMPONENT_NAMES} exactly once"
            )


BACKEND_KINDS = ("http_chat", "mock")
MOCK_RULES = ("min_time", "min_cost", "generalized_cost", "fixed", "malformed")


@dataclass
class BackendConfig:
    backend_kind: str = "mock"  # "http_chat" | "mock"
    model_name: str = "gpt-3.5-turbo-1106"
    temperature: float = 0.0
    endpoint_url: str = "https://api.openai.com/v1/chat/completions"
    timeout_seconds: float = 60.0
    max_retries: int = 3
    retry_backoff_base_seconds: float = 1.0
    max_parallel_requests: int = 4
    mock_rule: str = "generalized_cost"
    system_message_text: str = ""  # sent as the system message when non-empty
    credential_env_var: str = "LLM_API_KEY"

    def __post_init__(self):
        if self.backend_kind not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend_kind {self.backend_kind!r}; expected one of {BACKEND_KINDS}"
            )
        parse_mock_rule(self.mock_rule)
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout_seconds <= 0 or self.retry_backoff_base_seconds < 0:
            raise ValueError("timeout_seconds must be > 0 and retry_backoff_base_seconds >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_parallel_requests < 1:
            raise ValueError("max_parallel_requests must be >= 1")


def chat_messages(cfg: BackendConfig, prompt_text: str) -> list[dict]:
    """The chat message list for one prompt: the system message, when its
    text is set, then the prompt as the user message."""
    system = cfg.system_message_text
    messages = [{"role": "system", "content": system}] if system else []
    return messages + [{"role": "user", "content": prompt_text}]


def request_digest(cfg: BackendConfig) -> str:
    """Digest of every setting that shapes a reply, short of the prompt text:
    the rule for the mock; endpoint, model, temperature and the message list
    around the prompt for the chat backend. Transport settings (timeouts,
    retries, parallelism, credential) do not shape a reply and stay out."""
    if cfg.backend_kind == "mock":
        return digest_of(cfg.backend_kind, cfg.mock_rule)
    return digest_of(
        cfg.backend_kind,
        cfg.endpoint_url,
        cfg.model_name,
        repr(float(cfg.temperature)),
        json.dumps(chat_messages(cfg, ""), sort_keys=True),
    )


def parse_mock_rule(rule: str) -> tuple[str, ModeLabel | None]:
    """A mock rule as its name and, for `fixed:<Mode>`, the mode it answers;
    an unknown rule or mode is a ValueError."""
    base, _, label = rule.partition(":")
    if base not in MOCK_RULES:
        raise ValueError(f"unknown mock rule {rule!r}; expected one of {MOCK_RULES}")
    return base, ModeLabel.from_name(label) if base == "fixed" else None


N_FEATURES = 8  # width of the encoding in benchmarks/features.py, which imports it from here


@dataclass
class TrainConfig:
    """Hyper-parameters for one benchmark kind; see default_train_config for
    the per-kind defaults (chosen to mimic common toolkit defaults)."""

    kind: str  # "mnl" | "rf" | "nn"
    seed: int = 0
    # gradient-trained models: mnl by gradient descent with step halving,
    # nn by mini-batch Adam
    learning_rate: float = 1e-3
    max_epochs: int = 200
    tolerance: float = 1e-4
    l2_strength: float = 1e-4
    hidden_units: int = 100
    batch_size: int = 200
    # random forest
    n_trees: int = 100
    max_features: str | int = "sqrt"
    bootstrap: bool = True
    max_depth: int | None = None

    def __post_init__(self):
        if self.kind not in FIELDS_READ:
            raise ValueError(f"unknown benchmark kind {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.learning_rate <= 0 or self.max_epochs <= 0 or self.tolerance <= 0:
            raise ValueError("learning_rate, max_epochs, and tolerance must be positive")
        if self.l2_strength < 0:
            raise ValueError("l2_strength must be non-negative")
        if self.hidden_units <= 0 or self.batch_size <= 0 or self.n_trees <= 0:
            raise ValueError("hidden_units, batch_size, and n_trees must be positive")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ValueError("max_depth must be positive when set")
        if self.max_features != "sqrt" and not (
            type(self.max_features) is int and 1 <= self.max_features <= N_FEATURES
        ):
            raise ValueError(f"max_features must be 'sqrt' or an int in [1, {N_FEATURES}]")


# the TrainConfig fields each kind reads; a config file may set no other
_DESCENT = ("seed", "learning_rate", "max_epochs", "tolerance", "l2_strength")
FIELDS_READ = {
    "mnl": _DESCENT,
    "rf": ("seed", "n_trees", "max_features", "bootstrap", "max_depth"),
    "nn": (*_DESCENT, "hidden_units", "batch_size"),
}
BENCHMARK_KINDS = tuple(FIELDS_READ)


def default_train_config(kind: str, seed: int = 0) -> TrainConfig:
    if kind == "mnl":
        # full-batch descent with step halving: monotone and insensitive to the
        # initial step, so a generous starting rate is fine
        return TrainConfig(
            kind="mnl",
            seed=seed,
            learning_rate=1.0,
            max_epochs=2000,
            tolerance=1e-9,
            l2_strength=1.0,
        )
    return TrainConfig(kind=kind, seed=seed)


FAILURE_MODES = ("exclude", "count_as_incorrect")
LIVE_MAX_SAMPLES_DEFAULT = 20


@dataclass
class PipelineConfig:
    dataset_path: Path
    output_dir: Path = Path("out")
    delimiter: str = "\t"
    column_map: ColumnMap = field(default_factory=ColumnMap)
    n_train: int = 1000
    n_test: int = 200
    seed: int = 42
    prompt: PromptTemplateConfig = field(default_factory=PromptTemplateConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    benchmark_kinds: tuple[str, ...] = BENCHMARK_KINDS
    train_configs: dict[str, TrainConfig] = field(default_factory=dict)
    cache_dir: Path | None = None  # defaults to output_dir / "cache"
    parse_failure_mode: str = "exclude"
    max_samples: int | None = None  # None: cap live runs at LIVE_MAX_SAMPLES_DEFAULT

    def __post_init__(self):
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("n_train and n_test must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.parse_failure_mode not in FAILURE_MODES:
            raise ValueError(f"parse_failure_mode must be one of {FAILURE_MODES}")
        unknown = set(self.benchmark_kinds) - set(BENCHMARK_KINDS)
        if unknown:
            raise ValueError(f"unknown benchmark kinds: {sorted(unknown)}")
        for kind in self.benchmark_kinds:
            if kind not in self.train_configs:
                self.train_configs[kind] = default_train_config(kind, seed=self.seed)

    def effective_max_samples(self) -> int | None:
        """Cap on evaluated test situations; live runs default to a small cap
        and an explicit non-positive value lifts it."""
        if self.max_samples is None:
            return LIVE_MAX_SAMPLES_DEFAULT if self.backend.backend_kind == "http_chat" else None
        return self.max_samples if self.max_samples > 0 else None

    @property
    def resolved_cache_dir(self) -> Path:
        return self.cache_dir if self.cache_dir is not None else self.output_dir / "cache"


_NAMES = {int: "an integer", str: "a string", Path: "a path", tuple[str, ...]: "a list of strings"}
_hints = functools.cache(typing.get_type_hints)  # a dataclass's field types, resolved once


def _fits(value, hint) -> bool:
    """Whether a value has the type `hint`: an int is a float, a bool only a bool."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, member) for member in hint.__args__)
    if hint == tuple[str, ...]:
        return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, {float: (int, float), Path: (str, Path)}.get(hint, hint))


def _checked(value, hint, label: str):
    """The value, a list as a tuple, if it fits `hint` (None: as is); else a TypeError."""
    if hint is None:
        return value
    if not _fits(value, hint):
        members = hint.__args__ if isinstance(hint, types.UnionType) else (hint,)
        expected = [_NAMES.get(m, f"a {m.__name__}") for m in members if m is not type(None)]
        raise TypeError(f"{label} must be {' or '.join(expected)}, got {type(value).__name__}")
    return tuple(value) if isinstance(value, list) else value


def _section(value, context: str, hints) -> dict:
    """One mapping of the config file: absent or null reads as empty. A value
    that is not a mapping, a key outside `hints`, or a value that does not fit
    its key's hint is an error; a key without one (None, or `hints` is a list
    of keys) holds a section or a value read elsewhere."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{context} must be a mapping, got {type(value).__name__}")
    hints = hints if isinstance(hints, dict) else dict.fromkeys(hints)
    unknown = set(value) - set(hints)
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown, key=str)}")
    prefix = "" if context == "top-level" else f"{context}."
    return {key: _checked(v, hints[key], prefix + key) for key, v in value.items()}


def load_pipeline_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from a YAML document plus CLI overrides.

    Paths in the document are read against its directory, the `out` override
    against the working directory. Each value must have the type its
    dataclass field declares, and is kept as written. A bad value, or a
    wrongly typed one, is one ValueError naming the file."""
    path = Path(path)
    base_dir = path.parent
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    text = path.read_text(encoding="utf-8")
    hint = _hints(PipelineConfig)
    try:
        doc = _section(
            yaml.safe_load(text),
            "top-level",
            {k: hint[k] for k in ("output_dir", "cache_dir", "parse_failure_mode", "max_samples")}
            | dict.fromkeys(("dataset", "sampling", "prompt", "backend", "benchmarks")),
        )
        fields = {"path": hint["dataset_path"], "delimiter": None, "column_map": None}
        dataset = _section(doc.get("dataset"), "dataset", fields)
        if "path" not in dataset:
            raise ValueError("config must set dataset.path")
        sampling = _section(
            doc.get("sampling"), "sampling", {k: hint[k] for k in ("n_train", "n_test", "seed")}
        )
        prompt = _section(doc.get("prompt"), "prompt", _hints(PromptTemplateConfig))
        backend = _section(doc.get("backend"), "backend", _hints(BackendConfig))
        if "backend" in overrides:
            backend["backend_kind"] = overrides["backend"]
        seed = overrides.get("seed", sampling.get("seed", 42))
        seed = _checked(seed, hint["seed"], "sampling.seed")  # an override is checked too

        all_kinds = BENCHMARK_KINDS
        bench = _section(doc.get("benchmarks"), "benchmarks", ("kinds", *all_kinds))
        kinds = _checked(bench.get("kinds", all_kinds), hint["benchmark_kinds"], "benchmarks.kinds")
        _section(bench, "benchmarks", ("kinds", *kinds))  # no section for a kind not run
        train_hint = _hints(TrainConfig)
        train = {kind: {k: train_hint[k] for k in read} for kind, read in FIELDS_READ.items()}
        train_configs = {
            kind: dataclasses.replace(
                default_train_config(kind, seed=seed),
                **_section(bench[kind], f"benchmarks.{kind}", train[kind]),
            )
            for kind in kinds
            if kind in bench
        }

        out = overrides.get("out")
        max_samples = overrides.get("max_samples", doc.get("max_samples"))
        max_samples = _checked(max_samples, hint["max_samples"], "max_samples")
        return PipelineConfig(
            dataset_path=base_dir / dataset["path"],
            output_dir=Path(out) if out is not None else base_dir / doc.get("output_dir", "out"),
            delimiter=dataset.get("delimiter", "\t"),
            column_map=ColumnMap.from_json_dict(
                _section(dataset.get("column_map"), "column_map", _hints(ColumnMap).keys())
            ),
            n_train=sampling.get("n_train", 1000),
            n_test=sampling.get("n_test", 200),
            seed=seed,
            prompt=PromptTemplateConfig(**prompt),
            backend=BackendConfig(**backend),
            benchmark_kinds=kinds,
            train_configs=train_configs,
            cache_dir=base_dir / doc["cache_dir"] if doc.get("cache_dir") is not None else None,
            parse_failure_mode=doc.get("parse_failure_mode", "exclude"),
            max_samples=max_samples,
        )
    except (ValueError, TypeError, AttributeError, yaml.YAMLError) as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "dataset_path": str(cfg.dataset_path),
        "delimiter": cfg.delimiter,
        "column_map": cfg.column_map.to_json_dict(),
        "n_train": cfg.n_train,
        "n_test": cfg.n_test,
        "seed": cfg.seed,
        "prompt": dataclasses.asdict(cfg.prompt),
        "backend": dataclasses.asdict(cfg.backend),
        "benchmark_kinds": list(cfg.benchmark_kinds),
        "train_configs": {k: dataclasses.asdict(v) for k, v in sorted(cfg.train_configs.items())},
        "parse_failure_mode": cfg.parse_failure_mode,
        "max_samples": cfg.effective_max_samples(),
    }


def config_digest(cfg: PipelineConfig) -> str:
    return digest_of(json.dumps(config_to_dict(cfg), sort_keys=True))
