"""CSV/JSON persistence with checksummed, atomically written entries.

Each cache entry is a CSV payload plus a sidecar meta JSON carrying the
schema version, the entry kind, a sha256 of the payload bytes, and a
fingerprint of the numerical configuration that produced it.  A reader
never sees a torn entry: payload and meta are written to temp files and
renamed, payload first.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .errors import CacheInvalid, CacheMissing

SCHEMA_VERSION = 1
KINDS = ("gram", "boundaries", "zeros", "strips")


def fmt(x: float) -> str:
    """Canonical float formatting: 12 significant digits, no locale."""
    return f"{x:.12g}"


def round12(obj):
    """Recursively round floats to the 12-significant-digit emission grid."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_json_atomic(path: Path, payload: dict) -> None:
    text = json.dumps(round12(payload), indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprint(config_dict: dict) -> str:
    canon = json.dumps(round12(config_dict), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class Cache:
    def __init__(self, directory: Path, config_fingerprint: str) -> None:
        self.dir = Path(directory)
        self.fingerprint = config_fingerprint

    def payload_path(self, kind: str) -> Path:
        return self.dir / f"{kind}.csv"

    def meta_path(self, kind: str) -> Path:
        return self.dir / f"{kind}.meta.json"

    def store(self, kind: str, csv_text: str) -> None:
        if kind not in KINDS:
            raise CacheInvalid(f"unknown cache kind {kind!r}")
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = self.payload_path(kind)
        write_atomic(payload, csv_text.encode("utf-8"))
        meta = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "checksum": sha256_file(payload),
            "fingerprint": self.fingerprint,
        }
        write_json_atomic(self.meta_path(kind), meta)

    def check(self, kind: str) -> None:
        """Raise CacheMissing / CacheInvalid unless the entry is loadable."""
        payload, meta_path = self.payload_path(kind), self.meta_path(kind)
        if not payload.exists() or not meta_path.exists():
            raise CacheMissing(f"cache entry {kind!r} not found in {self.dir}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CacheInvalid(f"cache meta for {kind!r} unreadable: {exc}") from exc
        if not isinstance(meta, dict):
            raise CacheInvalid(f"cache meta for {kind!r} is not a JSON object")
        if meta.get("schema_version") != SCHEMA_VERSION:
            raise CacheInvalid(
                f"cache entry {kind!r} has schema {meta.get('schema_version')}, "
                f"expected {SCHEMA_VERSION}"
            )
        if meta.get("kind") != kind:
            raise CacheInvalid(f"cache entry {kind!r} mislabeled as {meta.get('kind')}")
        if meta.get("fingerprint") != self.fingerprint:
            raise CacheInvalid(f"cache entry {kind!r} built from a different config")
        if meta.get("checksum") != sha256_file(payload):
            raise CacheInvalid(f"cache entry {kind!r} failed its checksum")

    def load(self, kind: str) -> str:
        self.check(kind)
        return self.payload_path(kind).read_text(encoding="utf-8")

    def is_complete(self) -> bool:
        try:
            for kind in KINDS:
                self.check(kind)
        except (CacheMissing, CacheInvalid):
            return False
        return True
