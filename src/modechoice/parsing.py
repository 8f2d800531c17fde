"""Extraction of a mode prediction and supporting reason from model output.

The strict path expects the instructed format (a `Prediction: <label>` line
and a `Reason: <text>` tail). The fallback path rescues replies that name the
token "Prediction" but drift from the format, and only succeeds when a single
unambiguous mode name follows the last occurrence of that token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .dataset import MODE_ORDER, ModeLabel

_MODE_BY_WORD = {mode.name.lower(): mode for mode in MODE_ORDER}
# "SM" is accepted only on a strict Prediction line; as a bare token it shows
# up inside too many ordinary words to be safe in the fallback scan.
_STRICT_ALIASES = dict(_MODE_BY_WORD, sm=ModeLabel.SWISSMETRO)

_PREDICTION_LINE = re.compile(r"^\s*\**\s*prediction\s*\**\s*:\s*(?P<label>.+?)\s*$", re.IGNORECASE)
_REASON_SPLIT = re.compile(r"\breason\s*:\s*", re.IGNORECASE)
_PREDICTION_TOKEN = re.compile(r"\bprediction\b", re.IGNORECASE)
_MODE_WORD = re.compile(r"\b(train|car|swissmetro)\b", re.IGNORECASE)


class ParseFailure(Exception):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"could not extract a mode prediction: {detail}")


@dataclass(frozen=True)
class Prediction:
    mode: ModeLabel
    reason: str
    parse_path: str  # "strict" | "fallback"


def _normalize_label(raw: str) -> str:
    return raw.strip().strip("\"'*").rstrip(".,;:!").strip().lower()


def _extract_reason(text: str) -> str:
    parts = _REASON_SPLIT.split(text, maxsplit=1)
    return parts[1].strip() if len(parts) == 2 else ""


def parse_response(text: str) -> Prediction:
    """Parse model output into a Prediction, raising ParseFailure when no mode
    can be extracted or the fallback scan is ambiguous."""
    if not text or not text.strip():
        raise ParseFailure("empty response")

    for line in text.splitlines():
        match = _PREDICTION_LINE.match(line)
        if match:
            label = _normalize_label(match.group("label"))
            if label in _STRICT_ALIASES:
                return Prediction(_STRICT_ALIASES[label], _extract_reason(text), "strict")

    token_matches = list(_PREDICTION_TOKEN.finditer(text))
    if not token_matches:
        raise ParseFailure("no Prediction line or token present")
    tail = text[token_matches[-1].end() :]
    modes = {_MODE_BY_WORD[m.group(1).lower()] for m in _MODE_WORD.finditer(tail)}
    if len(modes) != 1:
        raise ParseFailure(
            "no mode name after the last 'Prediction' token"
            if not modes
            else f"ambiguous mode names after the last 'Prediction' token: "
            f"{sorted(m.display for m in modes)}",
        )
    return Prediction(modes.pop(), _extract_reason(text), "fallback")
