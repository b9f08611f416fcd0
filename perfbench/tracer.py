"""Span recording around the public entry points of each ``repro`` layer.

The traced run wraps the functions named in ``spec.SPANS``: each
call becomes a span with a name, start, end and parent (the span open
when it began).  Spans are kept in flat arrays in memory and folded
into per-name totals when the run ends; a layer's self time is its
spans' duration minus the part covered by their child spans.

Nothing here edits the program: :func:`instrument` swaps class and
module attributes for wrappers and returns a function that puts the
originals back.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from spec import SETUP_SPANS, SPANS

SPAN_ID = {name: index for index, name in enumerate(SPANS)}


class SpanRecorder:
    """Flat in-memory span store: name id, start, end, parent index."""

    def __init__(self) -> None:
        self.names = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: List[int] = []

    def open(self, name_id: int) -> int:
        index = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` inside one span named ``name``."""
        index = self.open(SPAN_ID[name])
        try:
            return fn(*args)
        finally:
            self.close(index)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: its self seconds and its span durations."""
        names = np.frombuffer(self.names, dtype=np.uint8)
        durations = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=durations[nested], minlength=len(names)
        )
        self_times = durations - children
        out: Dict[str, Dict[str, Any]] = {}
        for name, name_id in SPAN_ID.items():
            mask = names == name_id
            out[name] = {
                "self_s": float(self_times[mask].sum()),
                "durations": durations[mask],
            }
        return out


def _wrap(recorder: SpanRecorder, name: str, fn: Callable[..., Any]) -> Any:
    name_id = SPAN_ID[name]
    open_span, close_span = recorder.open, recorder.close

    def traced(*args: Any, **kwargs: Any) -> Any:
        index = open_span(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def _wrap_generator(recorder: SpanRecorder, name: str, fn: Callable[..., Any]) -> Any:
    """Wrap a generator function: each ``next`` on it is one span."""
    name_id = SPAN_ID[name]
    open_span, close_span = recorder.open, recorder.close

    def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
        inner = fn(*args, **kwargs)
        while True:
            index = open_span(name_id)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                close_span(index)
            yield item

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def _resolve(path: str) -> Tuple[Any, str]:
    """``module:Class.attr`` or ``module:function`` -> (owner, attr)."""
    module, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module)
    *parents, name = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every entry point of ``spec.SPANS``; return the unwrapper."""
    undo: List[Tuple[Any, str, Any]] = []
    for span, paths in SPANS.items():
        if span in SETUP_SPANS:
            continue
        for path in paths:
            owner, name = _resolve(path)
            undo.append((owner, name, vars(owner).get(name)))
            original = getattr(owner, name)
            wrap = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap
            setattr(owner, name, wrap(recorder, span, original))

    def restore() -> None:
        for owner, name, own in reversed(undo):
            if own is None:  # inherited: drop the override
                delattr(owner, name)
            else:
                setattr(owner, name, own)

    return restore
