"""Content-addressed stage artifacts: each pipeline stage stores its output
under a digest of its inputs, so rerunning a stage with unchanged inputs
loads the stored result instead of recomputing."""

from __future__ import annotations

import gzip
import hashlib
import json
import logging
import os
import zlib
from pathlib import Path

logger = logging.getLogger(__name__)

_decode = json.JSONDecoder().raw_decode


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


def dump_json_lines(values, **options) -> bytes:
    """The values as gzip'd JSON lines, one value a line, each dumped as
    json.dumps(value, **options) would, by one shared encoder; with mtime=0
    the bytes depend on the values alone."""
    encode = json.JSONEncoder(**options).encode
    text = "".join(encode(value) + "\n" for value in values)
    return gzip.compress(text.encode("utf-8"), mtime=0)


def load_json_lines(data: bytes) -> list:
    """The values of gzip'd JSON lines, with one decompress and one scan.
    Bytes that are not gzip'd UTF-8, or are truncated or corrupt, and a line
    that is not exactly one JSON array or object, are a ValueError."""
    try:
        text = gzip.decompress(data).decode("utf-8")
    except (OSError, EOFError, zlib.error) as exc:
        raise ValueError(exc) from exc
    values, start = [], 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        # decoded from where its line starts, a value must end where the line does
        value, stop = _decode(text, start)
        if stop != end or not isinstance(value, (list, dict)):
            raise ValueError(f"line {len(values) + 1} is not one JSON array or object")
        values.append(value)
        start = end + 1
    return values


def load_or_create(path: Path, compute, serialize, deserialize, store=lambda value: True):
    """Return the artifact at `path`, deserializing its bytes when it exists
    and computing it otherwise; a computed value is stored only if `store`
    accepts it, as the bytes `serialize` returns, or its text in UTF-8. A
    stored artifact that does not deserialize is a ValueError naming its
    file: damaged bytes, a missing or mistyped field, or a number too large
    for a float."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        value = compute()
        if store(value):
            stored = serialize(value)
            write_atomic(path, stored if isinstance(stored, bytes) else stored.encode("utf-8"))
        return value
    logger.info("reusing stage artifact %s", path)
    try:
        return deserialize(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"no field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {detail}") from exc
