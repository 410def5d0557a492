"""Stream/DAG-protocol lint rules (RPL030-RPL036).

The static counterpart of the runtime sanitizer (docs/sanitizer.md): where
the :class:`~repro.sanitize.Sanitizer` proves happens-before properties of
one *run*, these rules catch protocol misuse of the
:class:`~repro.runtime.taskspace.TaskSpace` ledger and the stream-launch
DSL that is visible in the *source* — before anything runs.

**Literal-key scoping.**  Real apps name tasks with computed keys
(``("gemm", i, j, k)``), which no static checker can resolve; tests and
small drivers use literal keys (``("a",)``).  The TaskSpace rules
therefore reason only about *fully literal* tuple keys, and each rule arms
itself only when the file actually uses literal keys for that operation —
a file with purely computed keys produces no findings.  ``attach`` is also
the name of the monitor-attachment idiom (``Tracer().attach(engine)``);
a non-literal first argument never looks like a task key, so those calls
are naturally out of scope.

Rules:

* **RPL030** ``completion()`` of a key never declared in this file;
* **RPL031** ``completion()`` of a key at a line before its ``declare``;
* **RPL032** a declared key with no ``attach`` anywhere in the file;
* **RPL033** a stream launch whose wait list is built from an unordered
  set (event order varies with hashing — a determinism hazard, same class
  as RPL023);
* **RPL034** the same key declared twice;
* **RPL035** ``attach()`` of a key never declared in this file;
* **RPL036** an observer attached to an engine/runtime *after* its
  ``run()`` already executed in the same scope (``obs.attach(engine)``,
  ``engine.attach(obs)`` or a ``watch_*`` call) — pure observers see
  nothing retroactively.
"""

from __future__ import annotations

import ast
from typing import Callable, Optional

from .rules import Finding

__all__ = ["StreamDagChecker", "RUN_RECEIVER_NAMES"]

# Conventional local names for the objects whose ``run()`` starts a
# simulation; RPL036's heuristic keys off them.
RUN_RECEIVER_NAMES = frozenset({"engine", "eng", "runtime", "world"})

# Observer attachment methods whose first argument is the engine (or
# runtime) being observed; ``engine.attach(observer)`` is matched too.
_MONITOR_ATTACH = frozenset({"attach", "watch_runtime", "watch_cluster",
                             "watch_ucx"})


def _literal_key(node) -> Optional[tuple]:
    """``("a", 1)`` -> ``("a", 1)``; anything non-literal -> None."""
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for elt in node.elts:
            if not isinstance(elt, ast.Constant):
                return None
            out.append(elt.value)
        return tuple(out)
    if isinstance(node, ast.Constant):
        return (node.value,)
    return None


def _is_run_receiver(node) -> bool:
    """``engine`` / ``runtime`` / ... by RPL036's naming heuristic."""
    return isinstance(node, ast.Name) and node.id in RUN_RECEIVER_NAMES


def _method_call(node: ast.Call) -> Optional[str]:
    """``X.attr(...)`` -> ``attr``, else None."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_set_valued(node) -> bool:
    """Set literal/comprehension, or list()/tuple()/iter() of one."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "sorted", "iter")
            and len(node.args) == 1):
        if node.func.id == "sorted":
            return False  # sorting fixes the order: fine
        return isinstance(node.args[0], (ast.Set, ast.SetComp))
    return False


class StreamDagChecker:
    """RPL030-RPL036 on one file (stream/DAG protocol; see module doc)."""

    def __init__(self, path: str, tree: ast.Module,
                 add: Callable[[Finding], None]):
        self.path = path
        self.tree = tree
        self.add = add

    def check(self) -> None:
        declares: list[tuple[tuple, ast.Call]] = []
        attaches: list[tuple[tuple, ast.Call]] = []
        completions: list[tuple[tuple, ast.Call]] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            method = _method_call(node)
            if method in ("declare", "attach", "completion") and node.args:
                key = _literal_key(node.args[0])
                if key is not None:
                    {"declare": declares, "attach": attaches,
                     "completion": completions}[method].append((key, node))
            self._check_launch_waits(node)
        self._check_taskspace(declares, attaches, completions)
        self._check_monitor_after_run()

    # -- RPL030/031/032/034/035 -------------------------------------------
    def _check_taskspace(self, declares, attaches, completions) -> None:
        declared_at: dict[tuple, int] = {}
        for key, node in declares:
            if key in declared_at:
                self._emit("RPL034", node,
                           f"task key {key!r} declared twice (first at line "
                           f"{declared_at[key]}) — TaskSpace.declare raises "
                           f"at runtime")
            else:
                declared_at[key] = node.lineno
        if declared_at:
            for key, node in completions:
                if key not in declared_at:
                    self._emit("RPL030", node,
                               f"completion() of task key {key!r} which is "
                               f"never declared in this file")
                elif node.lineno < declared_at[key]:
                    self._emit("RPL031", node,
                               f"completion() of task key {key!r} before its "
                               f"declare at line {declared_at[key]}")
            for key, node in attaches:
                if key not in declared_at:
                    self._emit("RPL035", node,
                               f"attach() of task key {key!r} which is never "
                               f"declared in this file")
        if attaches:
            attached = {key for key, _node in attaches}
            for key, lineno in declared_at.items():
                if key not in attached:
                    first = next(n for k, n in declares if k == key)
                    self._emit("RPL032", first,
                               f"task key {key!r} declared but never "
                               f"attached in this file — a never-launched "
                               f"task passes the finish checks silently")

    # -- RPL033 ------------------------------------------------------------
    def _check_launch_waits(self, node: ast.Call) -> None:
        if _method_call(node) not in ("launch", "enqueue"):
            return
        for kw in node.keywords:
            if kw.arg in ("wait", "wait_events") and _is_set_valued(kw.value):
                self._emit("RPL033", kw.value,
                           "stream launch waits on events collected in an "
                           "unordered set; event order varies with hashing "
                           "and perturbs trace digests — use a list")

    # -- RPL036 ------------------------------------------------------------
    def _check_monitor_after_run(self) -> None:
        scopes: list[list[ast.stmt]] = [self.tree.body]
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node.body)
        for body in scopes:
            self._check_scope(body)

    def _scope_nodes(self, body):
        """Walk one scope without descending into nested defs/classes."""
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_scope(self, body) -> None:
        run_line = None
        for node in self._scope_nodes(body):
            if (isinstance(node, ast.Call)
                    and _method_call(node) == "run"
                    and _is_run_receiver(node.func.value)):
                if run_line is None or node.lineno < run_line:
                    run_line = node.lineno
        if run_line is None:
            return
        for node in self._scope_nodes(body):
            if not isinstance(node, ast.Call) or node.lineno <= run_line:
                continue
            method = _method_call(node)
            observer_form = (method in _MONITOR_ATTACH and node.args
                             and _is_run_receiver(node.args[0]))
            engine_form = method == "attach" and _is_run_receiver(node.func.value)
            if observer_form or engine_form:
                self._emit("RPL036", node,
                           f"observer {method}() after the run() at line "
                           f"{run_line} already executed — pure observers "
                           f"see nothing retroactively")

    def _emit(self, code: str, node, message: str) -> None:
        self.add(Finding(self.path, node.lineno, node.col_offset, code,
                         message))
