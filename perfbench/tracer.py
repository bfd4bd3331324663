"""Outside-in layer tracer: spans around the program's public entry points.

The benchmark times each layer from outside, without touching the
program: :meth:`Tracer.install` replaces a layer's entry point (a class
method or a module function) with a wrapper that records a span around
the call.  Spans nest through a stack, so every layer gets its *self
time* -- its span minus the spans of the layers it called -- and the
self times of all spans add up to the time the outermost spans cover.

Wrapping happens in the forked child that runs one traced item, so the
parent's code objects stay untouched and an untraced item never pays
for a wrapper.  Each wrapper costs two clock reads and a few list
operations per call; ``trace.overhead`` in the benchmark's output
reports what that adds up to.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-layer self seconds and call counts.

    ``self_s[layer]`` accumulates the layer's self time.  ``incl_s``
    and ``calls`` count the layer's *outermost* spans only -- their
    full duration and their number -- so an entry point that reaches
    the same layer again through ``super()`` (a strategy's ``attach``
    calling its base class) is one call, timed once.  ``top_s`` is the
    time covered by spans that had no enclosing span.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.top_s = 0.0
        # One frame per open span: [layer, seconds covered by children].
        self._stack: List[list] = []
        self._undo: List[tuple] = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_return: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records a ``layer`` span per call.

        ``on_return(args, result)`` runs after the span has closed, so
        the bookkeeping it does is not charged to ``layer``.
        """
        stack = self._stack
        self_s = self.self_s
        incl_s = self.incl_s
        calls = self.calls
        self_s.setdefault(layer, 0.0)
        incl_s.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    outermost = parent[0] != layer
                else:
                    self.top_s += elapsed
                    outermost = True
                if outermost:
                    incl_s[layer] += elapsed
                    calls[layer] += 1
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(
        self,
        owner: Any,
        name: str,
        layer: str,
        on_return: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.name`` (a class's own method or a module
        attribute) with a traced wrapper; :meth:`uninstall` restores it."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, on_return))

    def uninstall(self) -> None:
        """Restore every entry point :meth:`install` replaced."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
