"""Outside-in tracing of the planner's layers.

The tracer never edits the package. It swaps module attributes that the
engine looks up at call time for wrappers that record a span or count a
call, and puts the originals back on `uninstall`:

- `lowlevel.plan` (called as `lowlevel.plan` by `highlevel`), and
  `highlevel.find_conflicts` / `highlevel.make_constraints` (module globals
  of `highlevel`) become spans under the enclosing `highlevel.solve` span;
- `lowlevel.is_forbidden` / `lowlevel.is_forbidden_edge` (globals of
  `lowlevel`) are counted;
- the collision and successor primitives of every concrete domain class are
  counted, attributed to the innermost open span.

The benchmark opens the cell-level spans (`highlevel.solve`, `bench.verify`,
`bench.shortcut`) itself, around its own calls. Spans are kept in memory as
tuples and written out by `write_spans`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

DOMAIN_METHODS = (
    "agents_collide",
    "edge_collides",
    "successors",
    "occupancy_intersects_circle",
    "edge_intersects_circle",
)
# Every span name; the self times of these add up to the spans' cover.
LAYER_SPANS = (
    "highlevel.solve",
    "lowlevel.plan",
    "highlevel.find_conflicts",
    "constraints.make_constraints",
    "bench.verify",
    "bench.shortcut",
)

# (span id, parent span id or -1, cell id, name, start ns, end ns)
Span = Tuple[int, int, int, str, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()  # (layer, name) -> calls
        self.plan_expansions = 0
        self.plan_ok = 0
        self.conflicts_found = 0
        self.children_made = 0
        self.cell = -1
        self._next_id = 0
        self._stack: List[Tuple[int, str]] = []  # open spans, innermost last
        self._saved: List[Tuple[object, str, object]] = []

    # ---- spans -----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`; returns fn's result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, name))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.cell, name, start, end))

    # ---- wrappers --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from genecbs import highlevel, lowlevel
        from genecbs.domain import GridDomain, PlanarArmDomain

        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = lowlevel.plan
        find_conflicts = highlevel.find_conflicts
        make_constraints = highlevel.make_constraints

        def traced_plan(*args, **kwargs):
            res = self.call("lowlevel.plan", plan, *args, **kwargs)
            self.plan_expansions += res.expansions
            self.plan_ok += res.status == lowlevel.OK
            return res

        def traced_find_conflicts(*args, **kwargs):
            out = self.call("highlevel.find_conflicts", find_conflicts, *args, **kwargs)
            self.conflicts_found += len(out)
            return out

        def traced_make_constraints(*args, **kwargs):
            out = self.call("constraints.make_constraints", make_constraints, *args, **kwargs)
            self.children_made += 2 * len(out)
            return out

        self._patch(lowlevel, "plan", traced_plan)
        self._patch(highlevel, "find_conflicts", traced_find_conflicts)
        self._patch(highlevel, "make_constraints", traced_make_constraints)
        for name in ("is_forbidden", "is_forbidden_edge"):
            self._patch(lowlevel, name, self._counted("lowlevel." + name, lowlevel.__dict__[name]))
        for cls in (GridDomain, PlanarArmDomain):
            for name in DOMAIN_METHODS:
                self._patch(cls, name, self._counted("domain." + name, cls.__dict__[name]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counted(self, name: str, fn):
        calls = self.calls
        stack = self._stack

        def counted(*args, **kwargs):
            calls[(stack[-1][1] if stack else "-", name)] += 1
            return fn(*args, **kwargs)

        return counted

    # ---- summaries -------------------------------------------------------

    def count(self, name: str, layer: Optional[str] = None) -> int:
        return sum(n for (lay, nm), n in self.calls.items() if nm == name and layer in (None, lay))

    def span_counts(self) -> Counter:
        """name -> number of spans."""
        return Counter(span[3] for span in self.spans)

    def self_ms(self) -> Dict[str, float]:
        """name -> total self time in ms: each span's duration minus the
        part its direct children cover (children never overlap)."""
        child_ns: Dict[int, int] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: Dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child_ns.get(sid, 0)) / 1e6
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
