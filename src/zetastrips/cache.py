"""CSV/JSON persistence with checksummed, atomically written entries.

Each cache entry is a CSV payload plus a sidecar meta JSON carrying the
entry kind, a sha256 of the payload bytes, and the cache key: a sha256 of
every module of the package and of the exact t_max.  Any edit to the code
that wrote an entry, its numerics and its CSV and meta layouts included,
changes the key, so the entry is never served to other code or for
another t_max.  A reader never sees a torn entry: payload and meta are
written to temp files and renamed, payload first.  ``write_atomic`` is
also the write of every output artifact, and it leaves a file that
already holds its bytes untouched.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path

from .errors import CacheInvalid, CacheMissing

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
    """The one write policy of every artifact and cache file: path ends up
    holding data, written to a temp file and renamed over it, unless it
    already holds exactly these bytes; then it is left as it is, inode and
    mtime included."""
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_json_atomic(path: Path, payload: dict) -> None:
    text = json.dumps(round12(payload), indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))


@functools.cache
def _package_digest() -> str:
    """sha256 over every module of the package, each as its name, a NUL
    byte and its bytes, in sorted order; read once per process."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Cache:
    def __init__(self, directory: Path, t_max: float) -> None:
        self.dir = Path(directory)
        # the exact float, not its 12-digit fmt: a t_max one ulp below a
        # strip top holds one strip fewer
        key = f"{_package_digest()}\0{float(t_max)!r}"
        self.key = hashlib.sha256(key.encode("utf-8")).hexdigest()

    def payload_path(self, kind: str) -> Path:
        return self.dir / f"{kind}.csv"

    def meta_path(self, kind: str) -> Path:
        return self.dir / f"{kind}.meta.json"

    def store(self, kind: str, csv_text: str) -> None:
        if kind not in KINDS:
            raise CacheInvalid(f"unknown cache kind {kind!r}")
        data = csv_text.encode("utf-8")
        write_atomic(self.payload_path(kind), data)
        meta = {"kind": kind, "checksum": hashlib.sha256(data).hexdigest(), "key": self.key}
        write_json_atomic(self.meta_path(kind), meta)

    def load(self, kind: str) -> str:
        """The payload, read once and returned only if the meta matches and
        those bytes pass the checksum and are UTF-8; else CacheMissing / CacheInvalid."""
        payload, meta_path = self.payload_path(kind), self.meta_path(kind)
        if not payload.exists() or not meta_path.exists():
            raise CacheMissing(f"cache entry {kind!r} not found in {self.dir}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CacheInvalid(f"cache meta for {kind!r} unreadable: {exc}") from exc
        if not isinstance(meta, dict):
            raise CacheInvalid(f"cache meta for {kind!r} is not a JSON object")
        if meta.get("kind") != kind:
            raise CacheInvalid(f"cache entry {kind!r} mislabeled as {meta.get('kind')}")
        if meta.get("key") != self.key:
            raise CacheInvalid(f"cache entry {kind!r} written by other code or for another t_max")
        data = payload.read_bytes()
        if meta.get("checksum") != hashlib.sha256(data).hexdigest():
            raise CacheInvalid(f"cache entry {kind!r} failed its checksum")
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheInvalid(f"cache entry {kind!r} is not UTF-8: {exc}") from exc
