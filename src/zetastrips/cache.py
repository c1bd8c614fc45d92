"""CSV persistence with signed, atomically written entries.

Each cache entry is one file, ``<kind>.csv``: the line ``<kind> <key>
<sha256 of the rest>``, then the CSV payload.  The key is a sha256 of every
module of the package and of the exact t_max, so an entry is never served
to other code, its numerics and layouts included, or for another t_max.
``Cache.load`` reads the file once and serves the payload only if that
first line is the one ``Cache.store`` writes for it.  ``write_atomic`` is
the write of every entry and artifact: unless the target already holds
the bytes, they go to a temp file renamed over it, so no reader sees a
torn file.
"""

from __future__ import annotations

import functools
import hashlib
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

    def _first_line(self, kind: str, data: bytes) -> bytes:
        """The first line, newline included, of the entry kind whose payload is data."""
        return f"{kind} {self.key} {hashlib.sha256(data).hexdigest()}\n".encode("utf-8")

    def store(self, kind: str, csv_text: str) -> None:
        if kind not in KINDS:
            raise CacheInvalid(f"unknown cache kind {kind!r}")
        data = csv_text.encode("utf-8")
        write_atomic(self.dir / f"{kind}.csv", self._first_line(kind, data) + data)

    def load(self, kind: str) -> str:
        """The payload of the entry, read once and returned only if its first
        line is the one store writes for it and the payload is UTF-8; else
        CacheMissing / CacheInvalid."""
        try:
            first, newline, data = (self.dir / f"{kind}.csv").read_bytes().partition(b"\n")
        except FileNotFoundError:
            raise CacheMissing(f"cache entry {kind!r} not found in {self.dir}") from None
        if first + newline != self._first_line(kind, data):
            raise CacheInvalid(f"cache entry {kind!r} failed its first-line check "
                               "(kind, key of this code and t_max, payload checksum)")
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheInvalid(f"cache entry {kind!r} is not UTF-8: {exc}") from exc
