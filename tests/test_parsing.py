import random

import pytest

from modechoice.dataset import ModeLabel
from modechoice.parsing import ParseFailure, parse_response


def test_strict_parse():
    prediction = parse_response("Prediction: Swissmetro\nReason: lowest travel time.")
    assert prediction.mode is ModeLabel.SWISSMETRO
    assert prediction.reason == "lowest travel time."
    assert prediction.parse_path == "strict"


def test_strict_parse_is_case_insensitive_and_tolerates_preamble():
    text = "Sure! Based on the data...\nPrediction: car\nReason: cheapest option"
    prediction = parse_response(text)
    assert prediction.mode is ModeLabel.CAR
    assert prediction.reason == "cheapest option"
    assert prediction.parse_path == "strict"


def test_no_label_raises():
    with pytest.raises(ParseFailure):
        parse_response("I cannot determine the mode.")
    with pytest.raises(ParseFailure):
        parse_response("   ")


def test_strict_accepts_sm_alias_and_trailing_punctuation():
    assert parse_response("Prediction: SM\nReason: fast").mode is ModeLabel.SWISSMETRO
    assert parse_response("Prediction: Train.\nReason: x").mode is ModeLabel.TRAIN
    assert parse_response("Prediction: **Car**\nReason: x").mode is ModeLabel.CAR


def test_fallback_unique_mode_after_token():
    prediction = parse_response("My final prediction would be the Car, given the costs.")
    assert prediction.mode is ModeLabel.CAR
    assert prediction.parse_path == "fallback"
    assert prediction.reason == ""


def test_fallback_uses_last_token_occurrence():
    text = (
        "A prediction could be Train or Car depending on weights.\n"
        "Final prediction: definitely the Swissmetro option."
    )
    prediction = parse_response(text)
    assert prediction.mode is ModeLabel.SWISSMETRO
    assert prediction.parse_path == "fallback"


def test_fallback_ambiguity_raises():
    with pytest.raises(ParseFailure):
        parse_response("Prediction is either Train or Car.")


def test_fallback_never_matches_sm_inside_words():
    with pytest.raises(ParseFailure):
        parse_response("Prediction: something small, maybe plasma transport")


def test_strict_takes_precedence_over_fallback():
    text = "Prediction: Train\nReason: although Car is cheaper, prediction favors rail."
    prediction = parse_response(text)
    assert prediction.mode is ModeLabel.TRAIN
    assert prediction.parse_path == "strict"


def test_parsed_label_always_present_in_text():
    rng = random.Random(31)
    snippets = [
        "Prediction: {m}\nReason: ok",
        "the prediction is {m} overall",
        "Prediction:{m}",
        "**Prediction**: {m}\nsome trailing text",
    ]
    for _ in range(200):
        mode = rng.choice(list(ModeLabel))
        text = rng.choice(snippets).format(m=mode.display)
        prediction = parse_response(text)
        assert prediction.mode.display.lower() in text.lower()


def test_round_trip_over_random_reasons():
    rng = random.Random(17)
    words = ["fast", "cheap", "train", "car", "swissmetro", "time", "cost", "17%", "comfort"]
    for _ in range(300):
        mode = rng.choice(list(ModeLabel))
        reason = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
        rendered = f"Prediction: {mode.display}\nReason: {reason}"
        parsed = parse_response(rendered)
        assert (parsed.mode, parsed.reason, parsed.parse_path) == (mode, reason, "strict")


def test_multiline_reason_preserved():
    text = "Prediction: Train\nReason: first line\nsecond line"
    assert parse_response(text).reason == "first line\nsecond line"
