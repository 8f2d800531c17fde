"""Zero-shot travel mode choice prediction harness.

Renders structured prompts from stated-preference survey records, queries a
(cached) chat-completion backend, parses mode predictions with reasons, and
benchmarks them against locally trained multinomial logit, random forest,
and neural network classifiers.
"""

from .dataset import (
    ChoiceSituation,
    ColumnMap,
    ModeLabel,
    SituationTable,
    balanced_split,
    load_raw,
    to_choice_situations,
)
from .evaluation import CaseRecord, EvaluationReport, LlmAnswer
from .gateway import BackendConfig, CompletionCache, ModelCompletion, batch_complete, complete
from .parsing import ParseFailure, Prediction, parse_response
from .pipeline import PipelineConfig, load_pipeline_config, run_pipeline
from .prompting import (
    ArithmeticHint,
    Prompt,
    PromptTemplateConfig,
    build_prompt,
    build_prompts,
    compute_hints,
    percent_saving,
    render_individual_attributes,
    render_travel_characteristics,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticHint",
    "BackendConfig",
    "CaseRecord",
    "ChoiceSituation",
    "ColumnMap",
    "CompletionCache",
    "EvaluationReport",
    "LlmAnswer",
    "ModeLabel",
    "ModelCompletion",
    "ParseFailure",
    "PipelineConfig",
    "Prediction",
    "Prompt",
    "PromptTemplateConfig",
    "SituationTable",
    "balanced_split",
    "batch_complete",
    "build_prompt",
    "build_prompts",
    "complete",
    "compute_hints",
    "load_pipeline_config",
    "load_raw",
    "parse_response",
    "percent_saving",
    "render_individual_attributes",
    "render_travel_characteristics",
    "run_pipeline",
    "to_choice_situations",
]
