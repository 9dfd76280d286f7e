"""mtime+size-keyed AST parse cache shared by every analysis engine.

continuum-lint and the flow analyses both walk every module under
``src/repro``. The cache keys each file on ``(path, mtime_ns, size)``
so one analysis run parses an unchanged file exactly once, whichever
engine asks first. It lives in memory only: unpickling a persisted
cache measured slower than parsing the files again (DESIGN.md,
"Performance").
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path


@dataclass
class ParsedFile:
    """One parse result. ``tree`` is None when the file failed to parse
    (``error`` then carries the SyntaxError message and line)."""

    source: str
    lines: list[str]
    tree: ast.Module | None
    error: tuple[str, int] | None = None  # (message, lineno)


def _stat_key(path: Path) -> tuple[int, int] | None:
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size)


class ParseCache:
    """In-process parse cache."""

    def __init__(self):
        #: resolved path -> ((mtime_ns, size), ParsedFile)
        self._entries: dict[str, tuple[tuple[int, int], ParsedFile]] = {}
        self.hits = 0
        self.misses = 0

    def parse(self, path: str | Path) -> ParsedFile:
        """Parse *path*, reusing the cached AST when stat is unchanged."""
        path = Path(path)
        key = str(path.resolve())
        stat_key = _stat_key(path)
        if stat_key is not None:
            cached = self._entries.get(key)
            if cached is not None and cached[0] == stat_key:
                self.hits += 1
                return cached[1]
        self.misses += 1
        try:
            source = path.read_text()
        except OSError:
            return ParsedFile(source="", lines=[], tree=None,
                              error=("unreadable file", 1))
        parsed = parse_source(source)
        if stat_key is not None:
            self._entries[key] = (stat_key, parsed)
        return parsed


def parse_source(source: str) -> ParsedFile:
    """Parse a source string into a ParsedFile (no caching)."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return ParsedFile(source=source, lines=lines, tree=None,
                          error=(exc.msg or "invalid syntax",
                                 exc.lineno or 1))
    return ParsedFile(source=source, lines=lines, tree=tree)
