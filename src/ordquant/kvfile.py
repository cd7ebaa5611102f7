"""Flat key-value text files (manifests, metadata sidecars, config files).

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Values are stored verbatim; callers convert types.
"""

from __future__ import annotations

from pathlib import Path

from .data import _not_utf8


def write_kv(path, items: dict) -> None:
    lines = [f"{key} = {value}" for key, value in items.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_kv(path) -> dict[str, str]:
    """The pairs of ``path``.  Bytes that are not UTF-8, a line that is not a
    pair, or a key set on two lines raise ``ValueError`` naming the file and the line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(_not_utf8(path, exc)) from None
    out: dict[str, str] = {}
    lines: dict[str, int] = {}  # the line that set each key
    # Lines end at "\n" only, not also at the form feeds and U+2028 str.splitlines breaks at.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {lines[key]}")
        lines[key] = lineno
        out[key] = value.strip()
    return out
