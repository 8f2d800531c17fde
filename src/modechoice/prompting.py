"""Prompt rendering for zero-shot mode choice prediction.

A prompt has five components: a task description, the travel characteristics
in dictionary form, the traveler attributes in plain sentences, a guide that
combines domain statements with pre-computed arithmetic hints (which mode is
cheapest/fastest and by what percent), and an output-format instruction. All
template text is configurable; the defaults below are reconstructions.

`build_prompts` renders a whole SituationTable from its columns, both hints
computed in numpy, with no per-row situation or hint object; `build_prompt`
and `compute_hints` run one situation through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import MODE_ORDER, ChoiceSituation, ModeLabel, SituationTable

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


class PromptError(Exception):
    pass


class InvalidComparison(PromptError):
    pass


class TripAttribute(Enum):
    TRAVEL_TIME = "travel time"
    TRAVEL_COST = "travel cost"


@dataclass(frozen=True)
class ArithmeticHint:
    """Which modes minimize an attribute, and the percent saved versus the rest."""

    attribute: TripAttribute
    min_modes: tuple[ModeLabel, ...]
    savings: dict[ModeLabel, int]

    def __post_init__(self):
        if not self.min_modes:
            raise ValueError("min_modes must be non-empty")
        others = {m for m in MODE_ORDER if m not in self.min_modes}
        if set(self.savings) != others:
            raise ValueError("savings keys must be exactly the non-minimum modes")
        # 100 occurs when the minimum is exactly 0 (free mode vs. paid ones)
        if any(not 0 <= s <= 100 for s in self.savings.values()):
            raise ValueError("savings must lie in [0, 100]")


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


@dataclass(frozen=True)
class Prompt:
    """A rendered prompt plus its per-component breakdown."""

    full_text: str
    components: dict[str, str]
    situation_id: str


def percent_saving(x_other: float, x_min: float) -> int:
    """Percent saved by the minimum relative to another value, rounded half-up.

    percent = round_half_up(100 * (x_other - x_min) / x_other)
    """
    if x_other <= 0 or x_min > x_other:
        raise InvalidComparison(
            f"need 0 < x_other and x_min <= x_other, got x_other={x_other}, x_min={x_min}"
        )
    return math.floor(100 * (x_other - x_min) / x_other + 0.5)


def _hints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of an (n, 3) block of integral values in MODE_ORDER: which
    modes hold the row's minimum, and each mode's percent_saving against it
    (0 for a minimum mode)."""
    low = values.min(axis=1, keepdims=True)
    savings = np.zeros(values.shape, dtype=int)
    # float64 holds every integer below 2**53, so in those rows each step of
    # percent_saving is the same IEEE operation on the same operands
    exact = 100 * values.max(axis=1) < 2**53
    x, x_min = values[exact].astype(float), low[exact].astype(float)
    quotient = np.divide(100 * (x - x_min), x, out=np.zeros_like(x), where=x > 0)
    savings[exact] = np.floor(quotient + 0.5)
    for row in np.flatnonzero(~exact).tolist():
        ints = [int(v) for v in values[row].tolist()]
        savings[row] = [percent_saving(v, min(ints)) if v else 0 for v in ints]
    return values == low, savings


def compute_hints(situation: ChoiceSituation) -> list[ArithmeticHint]:
    """Arithmetic hints for travel time and travel cost, in that order."""
    hints = []
    for attribute, values in zip(TripAttribute, (situation.travel_time_min, situation.travel_cost)):
        [is_min], [savings] = _hints(np.array([values], dtype=object))
        min_modes = tuple(m for m in MODE_ORDER if is_min[m])
        others = {m: int(savings[m]) for m in MODE_ORDER if m not in min_modes}
        hints.append(ArithmeticHint(attribute=attribute, min_modes=min_modes, savings=others))
    return hints


def _hint_template(attr: str, mask: int) -> str:
    """The hint sentence when the modes in bit mask `mask` share the minimum,
    as a str.format template over a row's three savings in MODE_ORDER."""
    names = [m.display for m in MODE_ORDER if mask >> m & 1]
    if len(names) == len(MODE_ORDER):
        return f"{', '.join(names[:-1])} and {names[-1]} all have the same {attr}."
    verb = "has" if len(names) == 1 else "have"
    comparisons = ", ".join(
        f"saving {{{int(m)}}}% compared to {m.display}" for m in MODE_ORDER if not mask >> m & 1
    )
    return f"{' and '.join(names)} {verb} the lowest {attr}, {comparisons}."


def _hint_sentences(attribute: TripAttribute, values: np.ndarray) -> list[str]:
    templates = [_hint_template(attribute.value, mask) for mask in range(2 ** len(MODE_ORDER))]
    is_min, savings = _hints(values)
    masks = is_min @ (1 << np.arange(len(MODE_ORDER)))
    return [templates[mask].format(*row) for mask, row in zip(masks.tolist(), savings.tolist())]


# a str.format template over a row's three times, then its three costs
_CHARACTERISTICS = "{{Travel time: {{%s}}, Travel cost: {{%s}}}}" % tuple(
    ", ".join(f"{m.display}: {{{first + m}}}" for m in MODE_ORDER) for first in (0, 3)
)


def render_travel_characteristics(table: SituationTable) -> list[str]:
    """Each row's dictionary-form characteristics, with fixed key order and
    integer values."""
    rows = np.hstack([table.times, table.costs]).tolist()
    return [_CHARACTERISTICS.format(*map(int, row)) for row in rows]


def render_individual_attributes(table: SituationTable) -> list[str]:
    """Each row's two fixed-template sentences on the traveler's two flags."""
    regular = ("The person is not a regular Train user.", "The person is a regular Train user.")
    annual = ("He/She does not own the Train annual pass.", "He/She owns the Train annual pass.")
    flags = zip(table.regular.tolist(), table.annual_pass.tolist())
    return [f"{regular[r]} {annual[a]}" for r, a in flags]


def build_prompts(table: SituationTable, cfg: PromptTemplateConfig) -> list[Prompt]:
    """Render all five components of each row's prompt and join them in the
    configured order; one prompt per row, in row order.

    Deterministic: the same row and config always produce byte-identical
    text. No training examples are ever included (the prompt is zero-shot).
    """
    domain = " ".join(cfg.domain_knowledge_texts)
    columns = zip(
        table.ids,
        render_travel_characteristics(table),
        render_individual_attributes(table),
        _hint_sentences(TripAttribute.TRAVEL_TIME, table.times),
        _hint_sentences(TripAttribute.TRAVEL_COST, table.costs),
    )
    prompts = []
    for situation_id, characteristics, attributes, time_hint, cost_hint in columns:
        components = {
            "task": cfg.task_description_text,
            "characteristics": characteristics,
            "attributes": attributes,
            "guide": f"{domain} {time_hint} {cost_hint}",
            "output_format": cfg.output_format_text,
        }
        full_text = "\n\n".join([components[name] for name in cfg.component_order])
        prompts.append(Prompt(full_text, components, situation_id))
    return prompts


def build_prompt(situation: ChoiceSituation, cfg: PromptTemplateConfig) -> Prompt:
    """One situation's prompt, rendered as a one-row table. Its times and
    costs stay Python ints, so a value past float64's integers stays exact."""
    per_mode = (situation.travel_time_min, situation.travel_cost)
    flags = (situation.is_regular_train_user, situation.owns_annual_pass)
    columns = [np.array([v], dtype=object) for v in per_mode] + [np.array([f]) for f in flags]
    [prompt] = build_prompts(SituationTable(np.zeros(1, int), *columns, np.zeros(1, int)), cfg)
    return Prompt(prompt.full_text, prompt.components, situation.situation_id)
