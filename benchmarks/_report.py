"""Shared reporting helper for the benchmark harness.

Each benchmark regenerates one paper artifact (table or figure) from the
running system. Because pytest captures stdout, the regenerated rows are
also persisted under ``benchmarks/results/<name>.txt`` so they survive a
quiet run and feed EXPERIMENTS.md. Wall-clock rows go to a separate
``<name>.timing.txt`` (:func:`emit_timing`), so every committed file is
deterministic and a regeneration that changes one is a changed result.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, lines: list[str]) -> str:
    """Print *lines* and persist them under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print()
    print(text)
    return text


def emit_timing(name: str, lines: list[str]) -> str:
    """Persist wall-clock *lines* as ``<name>.timing.txt``.

    Timings differ on every run and host, so those files are not
    committed; the deterministic ``<name>.txt`` carries the returned
    line pointing at them instead.
    """
    emit(f"{name}.timing", lines)
    return f"(wall-clock rows: {name}.timing.txt, host-dependent)"


def table(header: list[str], rows: list[list[str]],
          widths: list[int] | None = None) -> list[str]:
    """Simple fixed-width table formatting."""
    if widths is None:
        widths = [
            max(len(str(header[col])),
                *(len(str(row[col])) for row in rows)) if rows
            else len(str(header[col]))
            for col in range(len(header))
        ]
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in rows]
    return lines
