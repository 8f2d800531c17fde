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
    balanced_split,
    load_raw,
    to_choice_situations,
)
from .evaluation import CaseRecord, EvaluationReport, accuracy, confusion_matrix, weighted_f1
from .gateway import BackendConfig, CompletionCache, ModelCompletion, batch_complete, complete
from .parsing import ParseFailure, Prediction, parse_response
from .pipeline import PipelineConfig, load_pipeline_config, run_pipeline
from .prompting import (
    ArithmeticHint,
    Prompt,
    PromptTemplateConfig,
    build_prompt,
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
    "ModeLabel",
    "ModelCompletion",
    "ParseFailure",
    "PipelineConfig",
    "Prediction",
    "Prompt",
    "PromptTemplateConfig",
    "accuracy",
    "balanced_split",
    "batch_complete",
    "build_prompt",
    "complete",
    "compute_hints",
    "confusion_matrix",
    "load_pipeline_config",
    "load_raw",
    "parse_response",
    "percent_saving",
    "render_individual_attributes",
    "render_travel_characteristics",
    "run_pipeline",
    "to_choice_situations",
    "weighted_f1",
]
