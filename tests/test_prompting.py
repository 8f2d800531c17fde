import hashlib
import itertools
import json
import random

import pytest

import reference_prompt
from modechoice.dataset import ColumnMap, ModeLabel, balanced_split, load_raw, to_choice_situations
from modechoice.prompting import (
    COMPONENT_NAMES,
    InvalidComparison,
    PromptTemplateConfig,
    TripAttribute,
    build_prompt,
    build_prompts,
    compute_hints,
    percent_saving,
    render_individual_attributes,
    render_travel_characteristics,
)

from conftest import (
    make_situation, random_situation, synthetic_raw_rows, table_of, write_survey_file
)

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
    assert render_travel_characteristics(table_of([CASE_FAST_SM, CASE_CHEAP_TRAIN])) == [
        "{Travel time: {Train: 106, Car: 90, Swissmetro: 34}, "
        "Travel cost: {Train: 72, Car: 70, Swissmetro: 78}}",
        "{Travel time: {Train: 95, Car: 130, Swissmetro: 92}, "
        "Travel cost: {Train: 29, Car: 44, Swissmetro: 32}}",
    ]


def test_render_travel_characteristics_integer_formatting():
    rng = random.Random(3)
    table = table_of([random_situation(rng, f"s{i}") for i in range(50)])
    for text in render_travel_characteristics(table):
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
    assert render_individual_attributes(table_of([situation])) == [expected]


def test_build_prompt_deterministic_and_complete():
    cfg = PromptTemplateConfig()
    first = build_prompt(CASE_FAST_SM, cfg)
    second = build_prompt(CASE_FAST_SM, cfg)
    assert first.full_text == second.full_text
    assert set(first.components) == set(COMPONENT_NAMES)
    assert render_travel_characteristics(table_of([CASE_FAST_SM]))[0] in first.full_text
    assert "saving 62% compared to Car" in first.full_text
    assert first.situation_id == "fast-sm"
    assert len(compute_hints(CASE_FAST_SM)) == 2


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
    prompts = build_prompts(test, cfg)
    test_chars = set(render_travel_characteristics(test))
    for characteristics in render_travel_characteristics(train):
        if characteristics in test_chars:
            continue  # coincidental value collision with a test row
        for prompt in prompts:
            assert characteristics not in prompt.full_text


# times from an ingested row whose Car saving is 99% in exact arithmetic and
# 100% in float64, which rounds Train - Car
HUGE_TIMES = (15459593762783283200, 77297968813918672, 15459593762783283200)
BOUND = 2**53 // 100  # the largest value whose 100-fold float64 holds exactly
EDGE_VALUES = [  # (times, costs)
    ((50, 50, 80), (10, 20, 30)),  # two-way ties, each pair of modes
    ((80, 50, 50), (30, 30, 10)),
    ((50, 80, 50), (30, 10, 30)),
    ((60, 60, 60), (25, 25, 25)),  # three-way ties
    ((45, 90, 30), (0, 12, 40)),  # a zero cost saves 100%
    ((45, 90, 30), (0, 0, 40)),
    ((45, 90, 30), (0, 0, 0)),
    ((8, 1, 200), (8, 3, 40)),  # savings of exactly k + 0.5 round up
    (HUGE_TIMES, (3, 2, 1)),
    ((10**19, 7, 9), (10**19, 10**19, 0)),
    ((BOUND, BOUND + 1, 1), (BOUND + 1, BOUND, BOUND + 1)),  # either side of 2**53 / 100
    ((2**53, 2**53 - 1, 2**60), (2**63, 1, 2**64)),
    # float64 would give 21% for 22% below 2**53, and 37% for 36% below 2**63
    (
        (7655684891668628, 6009712639959873, 7655684891668628),
        (25456742613887252, 16165031559818406, 16165031559818406),
    ),
    ((2**53 + 1, 2**53 + 3, 2**60 + 1), (2**64 + 1, 2**64, 3)),  # past float64's integers
]
EDGE_SITUATIONS = [
    make_situation(f"edge{i:03d}", times, costs, regular, annual)
    for i, ((times, costs), (regular, annual)) in enumerate(
        itertools.product(EDGE_VALUES, itertools.product((False, True), repeat=2))
    )
]
CUSTOM_CFG = PromptTemplateConfig(
    task_description_text="Predict the mode.",
    domain_knowledge_texts=("Time matters.", "So does cost"),
    output_format_text="Prediction: <mode>\nReason: <why>",
    component_order=("guide", "attributes", "output_format", "characteristics", "task"),
)
ORACLE_CONFIGS = [PromptTemplateConfig(), CUSTOM_CFG]


def oracle_situations():
    rng = random.Random(2312)
    return [random_situation(rng, f"s{i:04d}") for i in range(2000)] + EDGE_SITUATIONS


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=["default", "custom"])
def test_build_prompt_matches_reference(cfg):
    for situation in oracle_situations():
        prompt = build_prompt(situation, cfg)
        assert (prompt.full_text, prompt.components) == reference_prompt.build_prompt(
            situation, cfg
        ), situation
        assert prompt.situation_id == situation.situation_id
        assert compute_hints(situation) == reference_prompt.compute_hints(situation)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=["default", "custom"])
def test_build_prompts_match_reference(cfg):
    # the table holds float64, so the reference renders the rows it holds
    table = table_of(oracle_situations())
    for situation, prompt in zip(table, build_prompts(table, cfg), strict=True):
        assert (prompt.full_text, prompt.components) == reference_prompt.build_prompt(
            situation, cfg
        ), situation
        assert prompt.situation_id == situation.situation_id


def test_prompt_bytes_are_pinned():
    rendered = [
        [prompt.full_text, prompt.components]
        for cfg in ORACLE_CONFIGS
        for prompt in (build_prompt(s, cfg) for s in EDGE_SITUATIONS)
    ]
    digest = hashlib.sha256(json.dumps(rendered, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == "4241be8f1acadbbb5ef578cbf3e76f8022d8cd8a90669f354e8c28144deb776a"


def test_savings_stay_exact_past_2_to_the_53(tmp_path):
    rows = synthetic_raw_rows(1, seed=6)
    rows[0].update(zip(("TRAIN_TT", "CAR_TT", "SM_TT"), map(str, HUGE_TIMES)))
    path = write_survey_file(tmp_path / "huge.dat", rows)
    table = to_choice_situations(load_raw(path, ColumnMap()), ColumnMap())
    [situation] = table
    assert situation.travel_time_min == HUGE_TIMES
    expected = (
        "Car has the lowest travel time, saving 99% compared to Train, "
        "saving 99% compared to Swissmetro."
    )
    assert expected in build_prompt(situation, PromptTemplateConfig()).components["guide"]
    [prompt] = build_prompts(table, PromptTemplateConfig())
    assert expected in prompt.components["guide"]
