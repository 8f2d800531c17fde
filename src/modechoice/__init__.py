"""Zero-shot travel mode choice prediction harness.

Renders structured prompts from stated-preference survey records, queries a
(cached) chat-completion backend, parses mode predictions with reasons, and
benchmarks them against locally trained multinomial logit, random forest,
and neural network classifiers.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "BackendConfig": "config",
    "CaseRecord": "report",
    "ColumnMap": "config",
    "CompletionCache": "gateway",
    "EvaluationReport": "report",
    "LlmAnswer": "report",
    "ModeLabel": "config",
    "ModelCompletion": "gateway",
    "ParseFailure": "parsing",
    "PipelineConfig": "config",
    "Prediction": "parsing",
    "Prompt": "prompting",
    "PromptTemplateConfig": "config",
    "SituationTable": "dataset",
    "balanced_split": "dataset",
    "batch_complete": "gateway",
    "build_prompt": "prompting",
    "build_prompts": "prompting",
    "complete": "gateway",
    "load_pipeline_config": "config",
    "load_raw": "dataset",
    "parse_response": "parsing",
    "percent_saving": "prompting",
    "render_individual_attributes": "prompting",
    "render_travel_characteristics": "prompting",
    "run_pipeline": "keys",
    "to_choice_situations": "dataset",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
