"""Small shared helpers: bounded parallelism and CSV emission."""
from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

__all__ = ["thread_count", "parallel_map", "write_rows", "fmt"]


def thread_count() -> int:
    """Worker cap from TURNPIKE_THREADS; 0 or unset means serial."""
    raw = os.environ.get("TURNPIKE_THREADS", "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


def parallel_map(fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
    """Map preserving order; runs on a thread pool when TURNPIKE_THREADS > 0."""
    workers = thread_count()
    if workers <= 0 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def fmt(value) -> str:
    """17-significant-digit representation: lossless binary64 round trip.
    Other values print with ',' as ';' so a CSV field never splits its row."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value).replace(",", ";")


def write_rows(out_path: str | None, header: Sequence[str],
               rows: Iterable[Sequence]) -> None:
    """Emit comma-separated rows with a header, to a file or stdout."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
