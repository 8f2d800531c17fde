import random

import pytest

from modechoice.dataset import ModeLabel, balanced_split
from modechoice.prompting import (
    COMPONENT_NAMES,
    InvalidComparison,
    PromptTemplateConfig,
    TripAttribute,
    build_prompt,
    compute_hints,
    percent_saving,
    render_individual_attributes,
    render_travel_characteristics,
)

from conftest import make_situation, random_situation, table_of

CASE_FAST_SM = make_situation(
    sid="fast-sm", times=(106, 90, 34), costs=(72, 70, 78), chosen=ModeLabel.SWISSMETRO
)
CASE_CHEAP_TRAIN = make_situation(
    sid="cheap-train", times=(95, 130, 92), costs=(29, 44, 32), chosen=ModeLabel.TRAIN
)


@pytest.mark.parametrize(
    "other,minimum,expected",
    [(90, 34, 62), (106, 34, 68), (130, 92, 29), (95, 92, 3), (50, 50, 0)],
)
def test_percent_saving_values(other, minimum, expected):
    assert percent_saving(other, minimum) == expected


def test_percent_saving_rejects_invalid_input():
    with pytest.raises(InvalidComparison):
        percent_saving(10, 11)
    with pytest.raises(InvalidComparison):
        percent_saving(0, 0)
    with pytest.raises(InvalidComparison):
        percent_saving(-5, -10)


def test_percent_saving_monotone_in_minimum():
    rng = random.Random(7)
    for _ in range(500):
        other = rng.randint(1, 500)
        lo, hi = sorted((rng.randint(0, other), rng.randint(0, other)))
        assert percent_saving(other, hi) <= percent_saving(other, lo)
        assert percent_saving(other, other) == 0
        assert 0 <= percent_saving(other, lo) <= 100
        assert percent_saving(other, 0) == 100


def test_compute_hints_fast_swissmetro():
    time_hint, cost_hint = compute_hints(CASE_FAST_SM)
    assert time_hint.attribute is TripAttribute.TRAVEL_TIME
    assert time_hint.min_modes == (ModeLabel.SWISSMETRO,)
    assert time_hint.savings == {ModeLabel.CAR: 62, ModeLabel.TRAIN: 68}
    assert cost_hint.attribute is TripAttribute.TRAVEL_COST
    assert cost_hint.min_modes == (ModeLabel.CAR,)
    assert cost_hint.savings == {ModeLabel.TRAIN: 3, ModeLabel.SWISSMETRO: 10}


def test_compute_hints_full_tie():
    situation = make_situation(times=(60, 60, 60), costs=(30, 30, 30))
    time_hint, cost_hint = compute_hints(situation)
    for hint in (time_hint, cost_hint):
        assert hint.min_modes == tuple(ModeLabel)
        assert hint.savings == {}
    guide = build_prompt(situation, PromptTemplateConfig()).components["guide"]
    assert "Train, Car and Swissmetro all have the same travel time." in guide
    assert "Train, Car and Swissmetro all have the same travel cost." in guide


def test_compute_hints_partition_property():
    rng = random.Random(13)
    for i in range(300):
        situation = random_situation(rng, f"s{i}")
        for hint in compute_hints(situation):
            for mode in ModeLabel:
                assert (mode in hint.min_modes) != (mode in hint.savings)


def test_render_travel_characteristics_exact():
    assert render_travel_characteristics(CASE_FAST_SM) == (
        "{Travel time: {Train: 106, Car: 90, Swissmetro: 34}, "
        "Travel cost: {Train: 72, Car: 70, Swissmetro: 78}}"
    )
    assert render_travel_characteristics(CASE_CHEAP_TRAIN) == (
        "{Travel time: {Train: 95, Car: 130, Swissmetro: 92}, "
        "Travel cost: {Train: 29, Car: 44, Swissmetro: 32}}"
    )


def test_render_travel_characteristics_integer_formatting():
    rng = random.Random(3)
    for i in range(50):
        text = render_travel_characteristics(random_situation(rng, f"s{i}"))
        assert "." not in text and "," not in text.replace(", ", "")


@pytest.mark.parametrize(
    "regular,annual,expected",
    [
        (
            False,
            False,
            "The person is not a regular Train user. He/She does not own the Train annual pass.",
        ),
        (
            True,
            False,
            "The person is a regular Train user. He/She does not own the Train annual pass.",
        ),
        (True, True, "The person is a regular Train user. He/She owns the Train annual pass."),
        (
            False,
            True,
            "The person is not a regular Train user. He/She owns the Train annual pass.",
        ),
    ],
)
def test_render_individual_attributes(regular, annual, expected):
    situation = make_situation(regular=regular, annual=annual)
    assert render_individual_attributes(situation) == expected


def test_build_prompt_deterministic_and_complete():
    cfg = PromptTemplateConfig()
    first = build_prompt(CASE_FAST_SM, cfg)
    second = build_prompt(CASE_FAST_SM, cfg)
    assert first.full_text == second.full_text
    assert set(first.components) == set(COMPONENT_NAMES)
    assert render_travel_characteristics(CASE_FAST_SM) in first.full_text
    assert "saving 62% compared to Car" in first.full_text
    assert first.situation_id == "fast-sm"
    assert len(first.hints) == 2


def test_build_prompt_component_round_trip():
    cfg = PromptTemplateConfig()
    rng = random.Random(21)
    for i in range(100):
        prompt = build_prompt(random_situation(rng, f"s{i}"), cfg)
        rebuilt = "\n\n".join(prompt.components[name] for name in cfg.component_order)
        assert rebuilt == prompt.full_text


def test_build_prompt_respects_component_order():
    order = ("output_format", "guide", "attributes", "characteristics", "task")
    cfg = PromptTemplateConfig(component_order=order)
    prompt = build_prompt(CASE_FAST_SM, cfg)
    assert prompt.full_text.startswith(cfg.output_format_text)
    assert prompt.full_text.endswith(cfg.task_description_text)


def test_template_config_validation():
    with pytest.raises(ValueError):
        PromptTemplateConfig(task_description_text="")
    with pytest.raises(ValueError):
        PromptTemplateConfig(domain_knowledge_texts=())
    with pytest.raises(ValueError):
        PromptTemplateConfig(component_order=("task", "task", "guide", "attributes", "guide"))
    with pytest.raises(ValueError):
        PromptTemplateConfig(component_order=("task",))


def test_prompts_are_zero_shot():
    rng = random.Random(5)
    pool = table_of([random_situation(rng, f"s{i:04d}") for i in range(240)])
    train, test = balanced_split(pool, 60, 30, seed=9)
    cfg = PromptTemplateConfig()
    prompts = [build_prompt(s, cfg) for s in test]
    test_chars = {render_travel_characteristics(s) for s in test}
    for situation in train:
        characteristics = render_travel_characteristics(situation)
        if characteristics in test_chars:
            continue  # coincidental value collision with a test row
        for prompt in prompts:
            assert characteristics not in prompt.full_text
