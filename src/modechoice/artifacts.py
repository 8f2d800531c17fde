"""Content-addressed stage artifacts: each pipeline stage stores its output
under a digest of its inputs, so rerunning a stage with unchanged inputs
loads the stored result instead of recomputing."""

from __future__ import annotations

import hashlib
import logging
import os
from pathlib import Path

logger = logging.getLogger(__name__)


def digest_of(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def stage_path(out_dir: str | Path, stage: str, key: str, suffix: str = ".jsonl") -> Path:
    return Path(out_dir) / "stages" / f"{stage}-{key[:16]}{suffix}"


def write_atomic(path: Path, data: bytes) -> bool:
    """Atomically write data unless identical content is already in place,
    making the file's directory first if it is missing."""
    try:
        if path.read_bytes() == data:
            return False
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return True


def load_or_create(path: Path, compute, serialize, deserialize, store=lambda value: True):
    """Return the artifact at `path`, deserializing when it exists and
    computing it otherwise; a computed value is stored only if `store`
    accepts it. A stored artifact that does not deserialize is a ValueError
    naming its file: damaged bytes, or a missing or mistyped field."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        value = compute()
        if store(value):
            write_atomic(path, serialize(value).encode("utf-8"))
        return value
    logger.info("reusing stage artifact %s", path)
    try:
        return deserialize(text)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"no field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {detail}") from exc
