"""Prompt rendering for zero-shot mode choice prediction.

A prompt has five components: a task description, the travel characteristics
in dictionary form, the traveler attributes in plain sentences, a guide that
combines domain statements with pre-computed arithmetic hints (which mode is
cheapest/fastest and by what percent), and an output-format instruction. All
template text is configurable (`config.PromptTemplateConfig`); its defaults
are reconstructions.

`build_prompts` renders a whole SituationTable from its columns, both hints
computed in numpy, with no per-row situation or hint object; `build_prompt`
renders a one-row table through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import COMPONENT_NAMES, MODE_ORDER, PromptTemplateConfig
from .dataset import SituationTable


class PromptError(Exception):
    pass


class InvalidComparison(PromptError):
    pass


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


def _hint_sentences(attr: str, values: np.ndarray) -> list[str]:
    """Each row's hint sentence on `attr` ("travel time" or "travel cost")."""
    templates = [_hint_template(attr, mask) for mask in range(2 ** len(MODE_ORDER))]
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
    values = np.hstack([table.times, table.costs])
    wide = np.any(np.abs(values) >= 2**63, axis=1)  # rows that int64 cannot hold
    rows = np.where(wide[:, None], 0, values).astype(np.int64).tolist()
    for i in np.flatnonzero(wide).tolist():
        rows[i] = [*map(int, values[i].tolist())]
    return [_CHARACTERISTICS.format(*row) for row in rows]


def render_individual_attributes(table: SituationTable) -> list[str]:
    """Each row's two fixed-template sentences on the traveler's two flags."""
    regular = ("The person is not a regular Train user.", "The person is a regular Train user.")
    annual = ("He/She does not own the Train annual pass.", "He/She owns the Train annual pass.")
    flags = zip(table.regular.tolist(), table.annual_pass.tolist())
    return [f"{regular[r]} {annual[a]}" for r, a in flags]


def render_rows(table: SituationTable) -> tuple[list[str], list[str]]:
    """Each row's characteristics and attributes, as the prompt and the case
    log show them."""
    return render_travel_characteristics(table), render_individual_attributes(table)


def build_prompts(table: SituationTable, cfg: PromptTemplateConfig, rendered=None) -> list[Prompt]:
    """Render all five components of each row's prompt and join them in the
    configured order; one prompt per row, in row order. `rendered` is
    render_rows(table), where the caller has it already.

    Deterministic: the same row and config always produce byte-identical
    text. No training examples are ever included (the prompt is zero-shot).
    """
    domain = " ".join(cfg.domain_knowledge_texts)
    columns = zip(
        table.ids,
        *(rendered or render_rows(table)),
        _hint_sentences("travel time", table.times),
        _hint_sentences("travel cost", table.costs),
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


def build_prompt(row: SituationTable, cfg: PromptTemplateConfig) -> Prompt:
    """The prompt of a one-row table."""
    [prompt] = build_prompts(row, cfg)
    return prompt
