"""Reference prompt renderer: the original one-situation-at-a-time renderer,
kept frozen as the oracle for the column renderer in `modechoice.prompting`.

Every prompt byte is part of a completion-cache key, so the column renderer
must reproduce these strings exactly; this file must not change when the
production renderer is optimised.
"""

import math

from modechoice.dataset import MODE_ORDER, ChoiceSituation
from modechoice.prompting import (
    ArithmeticHint,
    InvalidComparison,
    PromptTemplateConfig,
    TripAttribute,
)


def percent_saving(x_other: float, x_min: float) -> int:
    """Percent saved by the minimum relative to another value, rounded half-up.

    percent = round_half_up(100 * (x_other - x_min) / x_other)
    """
    if x_other <= 0 or x_min > x_other:
        raise InvalidComparison(
            f"need 0 < x_other and x_min <= x_other, got x_other={x_other}, x_min={x_min}"
        )
    return math.floor(100 * (x_other - x_min) / x_other + 0.5)


def compute_hints(situation: ChoiceSituation) -> list[ArithmeticHint]:
    """Arithmetic hints for travel time and travel cost, in that order."""
    hints = []
    for attribute, values in (
        (TripAttribute.TRAVEL_TIME, situation.travel_time_min),
        (TripAttribute.TRAVEL_COST, situation.travel_cost),
    ):
        minimum = min(values[m] for m in MODE_ORDER)
        min_modes = tuple(m for m in MODE_ORDER if values[m] == minimum)
        savings = {
            m: percent_saving(values[m], minimum) for m in MODE_ORDER if m not in min_modes
        }
        hints.append(ArithmeticHint(attribute=attribute, min_modes=min_modes, savings=savings))
    return hints


def render_travel_characteristics(situation: ChoiceSituation) -> str:
    """Dictionary-form characteristics string with fixed key order and integer values."""
    times = ", ".join(
        f"{m.display}: {situation.travel_time_min[m]}" for m in MODE_ORDER
    )
    costs = ", ".join(f"{m.display}: {situation.travel_cost[m]}" for m in MODE_ORDER)
    return f"{{Travel time: {{{times}}}, Travel cost: {{{costs}}}}}"


def render_individual_attributes(situation: ChoiceSituation) -> str:
    """Two fixed-template sentences covering the traveler's two boolean attributes."""
    regular = (
        "The person is a regular Train user."
        if situation.is_regular_train_user
        else "The person is not a regular Train user."
    )
    annual = (
        "He/She owns the Train annual pass."
        if situation.owns_annual_pass
        else "He/She does not own the Train annual pass."
    )
    return f"{regular} {annual}"


def render_hint_sentence(hint: ArithmeticHint) -> str:
    attr = hint.attribute.value
    names = [m.display for m in hint.min_modes]
    if len(hint.min_modes) == len(MODE_ORDER):
        return f"{', '.join(names[:-1])} and {names[-1]} all have the same {attr}."
    subject = " and ".join(names)
    verb = "has" if len(names) == 1 else "have"
    comparisons = ", ".join(
        f"saving {hint.savings[m]}% compared to {m.display}"
        for m in MODE_ORDER
        if m in hint.savings
    )
    return f"{subject} {verb} the lowest {attr}, {comparisons}."


def build_prompt(
    situation: ChoiceSituation, cfg: PromptTemplateConfig
) -> tuple[str, dict[str, str]]:
    """The prompt's full text and its components, keyed by component name."""
    hints = compute_hints(situation)
    guide_sentences = list(cfg.domain_knowledge_texts) + [render_hint_sentence(h) for h in hints]
    components = {
        "task": cfg.task_description_text,
        "characteristics": render_travel_characteristics(situation),
        "attributes": render_individual_attributes(situation),
        "guide": " ".join(guide_sentences),
        "output_format": cfg.output_format_text,
    }
    full_text = "\n\n".join(components[name] for name in cfg.component_order)
    return full_text, components
