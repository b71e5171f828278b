"""Shared plumbing: hashing and canonical JSON."""

import hashlib
import json
from pathlib import Path


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators); non-finite floats raise."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def sha256_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())
