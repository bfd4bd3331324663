"""HOT rules — the ``# solcheck: hot`` inner-loop registry.

PRs 1–4 bought the solver's speed by hand: every name used in the
propagation loop is a hoisted local, conflict analysis
allocates no per-conflict containers (persistent scratch arrays), and
nothing wraps the loop bodies in exception machinery.  Those wins
evaporate silently — one re-introduced ``self.`` lookup per literal
visit is a double-digit-percent regression no test fails on.

A function opts into enforcement by carrying ``# solcheck: hot`` on its
``def`` line (or the line directly above).  Inside its loops:

* HOT01 — no list/dict/set construction (displays, comprehensions,
  generator expressions, ``list()``/``dict()``/``set()``/
  ``dict.fromkeys()`` calls).  Tuples are exempt: watch entries are
  tuples by design and small-tuple allocation is the cheapest
  container CPython has.
* HOT02 — no ``self.*`` attribute loads/stores and no module-global
  name lookups; hoist them to locals before the loop.  Statements on
  *escape paths* (a suite that ends in ``return``/``raise``/``break``)
  are exempt — flushing counters on exit is the idiom the hot paths
  use (e.g. ``self.stats.propagations += props; return cid``).
* HOT03 — no ``try``/``except`` inside a hot function: CPython sets up
  a handler block per entry, and a swallowed error in a search loop is
  a soundness bug, not a recovery.

HOT04 guards the registry itself: functions listed in
``[tool.solcheck] hot_required`` must exist and carry the marker, so a
rename or refactor cannot silently drop enforcement.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Diagnostic, SourceModule, register

#: Builtins whose lookup cost we accept inside hot loops (flagging
#: ``len`` would outlaw the loops themselves).
_BUILTIN_WHITELIST = {"len", "range"}

_CONTAINER_BUILTINS = {"list", "dict", "set", "frozenset", "bytearray"}

_LoopNode = Union[ast.For, ast.AsyncFor, ast.While]


def _loops_in(func: ast.FunctionDef) -> Iterator[_LoopNode]:
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield node


def _local_names(func: ast.FunctionDef) -> Set[str]:
    """Names that are local to the function body (params + any store),
    per Python's actual scoping rule: one store anywhere makes the name
    local everywhere in the function."""
    names: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _on_escape_path(module: SourceModule, node: ast.AST, loop: _LoopNode) -> bool:
    """True when ``node``'s statement sits in a suite (within ``loop``)
    that terminates the loop or the function: flushing state right
    before a ``return``/``raise``/``break`` is sanctioned."""
    current: Optional[ast.AST] = node
    while current is not None and current is not loop:
        parent = module.parents.get(current)
        if parent is None:
            return False
        for field_name in ("body", "orelse", "finalbody"):
            suite = getattr(parent, field_name, None)
            if isinstance(suite, list) and current in suite:
                last = suite[-1]
                if isinstance(last, (ast.Return, ast.Raise, ast.Break)):
                    return True
        current = parent
    return False


def _innermost_loop(
    module: SourceModule, node: ast.AST, func: ast.FunctionDef
) -> Optional[_LoopNode]:
    current = module.parents.get(node)
    while current is not None and current is not func:
        if isinstance(current, (ast.For, ast.AsyncFor, ast.While)):
            return current
        current = module.parents.get(current)
    return None


def _in_loop_body(module: SourceModule, node: ast.AST, loop: _LoopNode) -> bool:
    """True when ``node`` is inside the loop's *body* (the iterable
    expression of a ``for`` runs once and is exempt)."""
    current: Optional[ast.AST] = node
    while current is not None:
        parent = module.parents.get(current)
        if parent is loop:
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                return current is not loop.iter and current is not loop.target
            return True
        current = parent
    return False


@register("HOT01", "no container allocation inside hot-function loops")
def check_hot_alloc(
    module: SourceModule, config: AnalysisConfig
) -> Iterator[Diagnostic]:
    for func in module.hot_functions:
        for loop in _loops_in(func):
            for node in ast.walk(loop):
                if not _is_container_alloc(node):
                    continue
                if not _in_loop_body(module, node, loop):
                    continue
                if _innermost_loop(module, node, func) is not loop:
                    continue  # reported once, against the innermost loop
                yield Diagnostic(
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="HOT01",
                    message=(
                        f"container allocation inside a loop of hot "
                        f"function {module.qualname(func)}; hoist it out "
                        f"or reuse a persistent scratch structure"
                    ),
                )


def _is_container_alloc(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _CONTAINER_BUILTINS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _CONTAINER_BUILTINS
        ):
            return True  # dict.fromkeys(...) and friends
    return False


@register("HOT02", "hoist attribute/global lookups out of hot loops")
def check_hot_hoist(
    module: SourceModule, config: AnalysisConfig
) -> Iterator[Diagnostic]:
    module_globals = module.module_globals()
    for func in module.hot_functions:
        locals_ = _local_names(func)
        for loop in _loops_in(func):
            for node in ast.walk(loop):
                if not _in_loop_body(module, node, loop):
                    continue
                if _innermost_loop(module, node, func) is not loop:
                    continue  # reported once, against the innermost loop
                diag = _hoist_violation(
                    module, func, loop, node, locals_, module_globals
                )
                if diag is not None:
                    yield diag


def _hoist_violation(
    module: SourceModule,
    func: ast.FunctionDef,
    loop: _LoopNode,
    node: ast.AST,
    locals_: Set[str],
    module_globals: Set[str],
) -> Optional[Diagnostic]:
    if isinstance(node, ast.Attribute):
        root = node.value
        if isinstance(root, ast.Name) and root.id == "self":
            if _on_escape_path(module, node, loop):
                return None
            return Diagnostic(
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                rule="HOT02",
                message=(
                    f"self.{node.attr} accessed inside a loop of hot "
                    f"function {module.qualname(func)}; hoist it to a "
                    f"local before the loop"
                ),
            )
        return None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id in locals_ or node.id in _BUILTIN_WHITELIST:
            return None
        if node.id in module_globals:
            if _on_escape_path(module, node, loop):
                return None
            return Diagnostic(
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                rule="HOT02",
                message=(
                    f"module-global {node.id} looked up inside a loop of "
                    f"hot function {module.qualname(func)}; bind it to a "
                    f"local before the loop"
                ),
            )
    return None


@register("HOT03", "no try/except inside hot functions")
def check_hot_try(
    module: SourceModule, config: AnalysisConfig
) -> Iterator[Diagnostic]:
    for func in module.hot_functions:
        for node in ast.walk(func):
            if isinstance(node, ast.Try):
                yield Diagnostic(
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="HOT03",
                    message=(
                        f"try/except inside hot function "
                        f"{module.qualname(func)}; move error handling to "
                        f"the caller or a cold wrapper"
                    ),
                )


@register("HOT04", "hot registry entries must exist and carry the marker")
def check_hot_registry(
    module: SourceModule, config: AnalysisConfig
) -> Iterator[Diagnostic]:
    dotted = module.dotted_name
    entries = [
        entry for entry in config.hot_required
        if entry.split("::", 1)[0] == dotted
    ]
    if not entries:
        return
    marked = {module.qualname(func) for func in module.hot_functions}
    all_funcs = {module.qualname(func) for func in module.functions()}
    for entry in entries:
        qual = entry.split("::", 1)[1]
        if qual not in all_funcs:
            yield Diagnostic(
                path=module.relpath,
                line=1,
                col=0,
                rule="HOT04",
                message=(
                    f"hot-registry entry {qual} not found in {dotted}; "
                    f"update [tool.solcheck] hot_required after the "
                    f"rename/move"
                ),
            )
        elif qual not in marked:
            line = _def_line(module, qual)
            yield Diagnostic(
                path=module.relpath,
                line=line,
                col=0,
                rule="HOT04",
                message=(
                    f"{qual} is in the hot registry but lacks the "
                    f"'# solcheck: hot' marker on its def line"
                ),
            )


def _def_line(module: SourceModule, qual: str) -> int:
    for func in module.functions():
        if module.qualname(func) == qual:
            return func.lineno
    return 1
