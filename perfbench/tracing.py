"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: a traced run patches public
functions and methods at their call sites (module attributes and class
attributes) with thin wrappers that open and close a span, and
:meth:`Recorder.restore` puts every original back.  Spans stay in memory
and are written out once, when the run ends.

A span's *self* time is its duration minus the durations of its direct
children; children never overlap because the traced program runs on one
thread.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "Recorder", "span", "aggregate_units"]

_MISSING = object()


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the enclosing span."""

    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Span stack plus the list of patched attributes to restore."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        opened = Span(len(self.spans), name, time.perf_counter(), parent,
                      attrs=attrs)
        self.spans.append(opened)
        self._stack.append(opened)
        return opened

    def close(self, opened: Span) -> None:
        opened.end = time.perf_counter()
        top = self._stack.pop()
        if top is not opened:
            raise RuntimeError(
                f"span {opened.name!r} closed while {top.name!r} is open"
            )

    # -- call-site patching ---------------------------------------------
    def wrap(self, owner, attr: str, name: str, attrs=None, on_exit=None):
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``attrs(args)`` may return extra span attributes (e.g. rows);
        ``on_exit(span, args)`` may rename or annotate the span.
        """
        original = owner.__dict__.get(attr, _MISSING)
        fn = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            opened = recorder.open(name, **(attrs(args) if attrs else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                if on_exit is not None:
                    on_exit(opened, args)
                recorder.close(opened)

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


@contextmanager
def span(rec: "Recorder | None", name: str):
    """A span around a block when tracing, nothing otherwise."""
    if rec is None:
        yield
        return
    opened = rec.open(name)
    try:
        yield
    finally:
        rec.close(opened)


def aggregate_units(spans: list[Span], unit_ids: list[int]) -> dict:
    """Per-name totals over the subtrees of the given unit spans.

    Units are epochs (training) or passes over the request schedule
    (serving).  Returns ``{"wall", "covered", "unit_self", "self",
    "incl", "calls", "attr"}``: the units' summed wall time, the part of
    it covered by their direct children, the units' own self time, and
    per span name the summed self time, outermost-occurrence inclusive
    time, call count and summed numeric attributes.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {"wall": 0.0, "covered": 0.0, "unit_self": 0.0,
           "self": {}, "incl": {}, "calls": {}, "attr": {}}

    def visit(node: Span, open_names: frozenset) -> None:
        kids = children.get(node.id, [])
        own = node.duration - sum(k.duration for k in kids)
        name = node.name
        out["self"][name] = out["self"].get(name, 0.0) + own
        out["calls"][name] = out["calls"].get(name, 0) + 1
        if name not in open_names:
            out["incl"][name] = out["incl"].get(name, 0.0) + node.duration
        for key, value in node.attrs.items():
            if isinstance(value, (int, float)):
                slot = out["attr"].setdefault(name, {})
                slot[key] = slot.get(key, 0) + value
        for k in kids:
            visit(k, open_names | {name})

    for uid in unit_ids:
        unit = spans[uid]
        kids = children.get(uid, [])
        covered = sum(k.duration for k in kids)
        out["wall"] += unit.duration
        out["covered"] += covered
        out["unit_self"] += unit.duration - covered
        for k in kids:
            visit(k, frozenset())
    return out
