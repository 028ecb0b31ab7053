"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: :class:`Patch` swaps a
layer's public entry point (a class attribute, or the name a calling
module binds) for a wrapper that times the call.  Nothing under ``src/``
is edited.

Accounting rules:

* a span's *self time* is its duration minus the durations of its direct
  children, so a re-entrant call (``DigestMap.insert`` calling the
  wrapped ``insert_or_lookup``) is counted once;
* an operation's *unattributed* time is its wall time minus the spans at
  its top level — time spent in code no wrapper covers;
* summed over every span of one operation, self times give back the
  top-level total, so self times plus unattributed equal the wall time.
  :meth:`Tracer.operation` checks that identity for every operation and
  records a breach in :attr:`Tracer.accounting_errors`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Relative tolerance of the self-time identity (float rounding only).
IDENTITY_TOLERANCE = 1e-9

_MISSING = object()


class Tracer:
    """Per-operation span accounting, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Kind of the operation in flight (``None``: wrappers pass through).
        self.op: Optional[str] = None
        self.ops: Counter = Counter()
        self.wall: Dict[str, float] = defaultdict(float)
        self.unattributed: Dict[str, float] = defaultdict(float)
        #: (operation kind, layer) → summed self seconds / call count.
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: (operation kind, counter name) → summed value.
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.accounting_errors: List[str] = []
        self._stack: List[float] = []
        self._top = 0.0
        self._op_self = 0.0

    # ------------------------------------------------------------------
    @contextmanager
    def operation(self, kind: str):
        """Time one operation; spans inside it are charged to *kind*."""
        if self.op is not None:
            raise RuntimeError(f"operation {kind!r} inside {self.op!r}")
        self.op = kind
        self._stack = []
        self._top = 0.0
        self._op_self = 0.0
        start = self.clock()
        try:
            yield self
        finally:
            wall = self.clock() - start
            self.op = None
            residue = wall - self._top
            self.ops[kind] += 1
            self.wall[kind] += wall
            self.unattributed[kind] += residue
            if abs(self._op_self + residue - wall) > IDENTITY_TOLERANCE * max(
                1.0, wall
            ) or residue < -IDENTITY_TOLERANCE * max(1.0, wall):
                self.accounting_errors.append(
                    f"{kind}: self {self._op_self:.9f}s + unattributed "
                    f"{residue:.9f}s != wall {wall:.9f}s"
                )

    def add(self, name: str, value: float) -> None:
        """Accumulate a count against the operation in flight."""
        if self.op is not None:
            self.counts[(self.op, name)] += value

    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> Callable:
        """Return *fn* timed as a span of *layer*.

        ``pre(args, kwargs)`` runs before the clock starts and its result
        is handed to ``post(tracer, token, args, kwargs, result)``, which
        runs after the clock stops; both only run inside an operation.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            token = pre(args, kwargs) if pre is not None else None
            stack = tracer._stack
            stack.append(0.0)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - start
                own = duration - stack.pop()
                key = (tracer.op, layer)
                tracer.self_s[key] += own
                tracer.calls[key] += 1
                tracer._op_self += own
                if stack:
                    stack[-1] += duration
                else:
                    tracer._top += duration
            if post is not None:
                post(tracer, token, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def self_ms(self, kind: str, *layers: str) -> float:
        """Mean self milliseconds per *kind* operation over *layers*."""
        n = self.ops[kind]
        if not n:
            return 0.0
        return 1e3 * sum(self.self_s.get((kind, layer), 0.0) for layer in layers) / n

    def calls_per_op(self, kind: str, layer: str) -> float:
        n = self.ops[kind]
        return self.calls.get((kind, layer), 0) / n if n else 0.0

    def count_per_op(self, kind: str, name: str) -> float:
        n = self.ops[kind]
        return self.counts.get((kind, name), 0.0) / n if n else 0.0

    def unattributed_ms(self, kind: str) -> float:
        n = self.ops[kind]
        return 1e3 * self.unattributed.get(kind, 0.0) / n if n else 0.0

    def waterfall(self, kind: str) -> List[Tuple[str, float, float]]:
        """``(layer, self ms per op, share of wall)`` rows, largest first,
        ending with the unattributed residue."""
        n = self.ops[kind]
        if not n:
            return []
        wall = self.wall[kind]
        rows = [
            (layer, 1e3 * secs / n, secs / wall if wall else 0.0)
            for (op, layer), secs in self.self_s.items()
            if op == kind
        ]
        rows.sort(key=lambda row: -row[1])
        residue = self.unattributed[kind]
        rows.append(("unattributed", 1e3 * residue / n, residue / wall if wall else 0.0))
        return rows


class Patch:
    """One wrapped entry point: ``owner.name`` timed as *layer*.

    *owner* is a class (the method is wrapped where every caller looks it
    up) or a module (the name that module's callers resolve at call
    time).  An inherited method is patched on *owner* and removed again on
    :meth:`uninstall`, so the base class is never touched.
    """

    def __init__(
        self,
        owner,
        name: str,
        layer: str,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> None:
        self.owner = owner
        self.name = name
        self.layer = layer
        self.pre = pre
        self.post = post
        self._saved = _MISSING
        self.installed = False

    @property
    def target(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.name}"

    def available(self) -> bool:
        return hasattr(self.owner, self.name)

    def install(self, tracer: Tracer) -> None:
        if self.installed or not self.available():
            return
        self._saved = vars(self.owner).get(self.name, _MISSING)
        fn = getattr(self.owner, self.name)
        setattr(self.owner, self.name, tracer.wrap(self.layer, fn, self.pre, self.post))
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        if self._saved is _MISSING:
            delattr(self.owner, self.name)
        else:
            setattr(self.owner, self.name, self._saved)
        self._saved = _MISSING
        self.installed = False


@contextmanager
def installed(patches: Iterable[Patch], tracer: Tracer):
    """Install every patch for the duration of the block."""
    done: List[Patch] = []
    try:
        for patch in patches:
            patch.install(tracer)
            done.append(patch)
        yield
    finally:
        for patch in reversed(done):
            patch.uninstall()
