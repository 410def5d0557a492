"""Rule registry and per-file AST checkers.

Two of the three rule families live here:

* **SDAG protocol** (RPL001–RPL004) — misuse of the chare DSL
  (:mod:`repro.runtime.chare`): command factories whose result is never
  yielded, generator helpers invoked without ``yield from``, yields of
  values that cannot be :class:`~repro.runtime.commands.Command` objects,
  and plain entry methods calling suspend-only APIs.
* **determinism** (RPL020–RPL023) — wall-clock reads, unseeded RNG, OS
  entropy, and unordered-``set`` iteration inside the simulation model
  packages, all of which corrupt trace digests and cache keys (the
  bitwise contracts of docs/validation.md and docs/execution.md).

The cross-file message-flow family (RPL010/RPL011) is in
:mod:`repro.lint.messageflow`.  Every rule has a stable ``RPL0xx`` code;
findings on a line can be silenced with ``# repro-lint: disable=CODE``
(:mod:`repro.lint.suppressions`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "COMMAND_FACTORIES",
    "SUSPEND_ONLY",
    "BASE_CLASS_NAMES",
    "ImportMap",
    "is_generator_fn",
    "SdagChecker",
    "DeterminismChecker",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation, anchored to a file position."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    family: str = "sdag"


_RULE_LIST = [
    Rule("RPL000", "parse-error", "file could not be parsed; nothing else was checked",
         family="sdag"),
    Rule("RPL001", "unyielded-command",
         "command factory (work/launch/launch_graph/when/wait/wait_all/"
         "isend/irecv/waitall/sync) called but its result discarded — commands "
         "do nothing unless yielded to the scheduler", family="sdag"),
    Rule("RPL002", "helper-without-yield-from",
         "generator entry method/helper invoked as a plain call — without "
         "'yield from' the body never executes", family="sdag"),
    Rule("RPL003", "yield-of-non-command",
         "generator entry method yields a value that cannot be a Command "
         "(literal, tuple, comparison, bare yield, ...)", family="sdag"),
    Rule("RPL004", "suspend-in-plain-method",
         "plain (non-generator) entry method calls a suspend-only API "
         "(when/wait/wait_all/sync); only generator entry methods can suspend",
         family="sdag"),
    Rule("RPL010", "deposit-never-consumed",
         "send targets a method/mailbox with no entry-method definition and "
         "no when() consumer anywhere — dropped work or deadlock",
         family="messageflow"),
    Rule("RPL011", "when-without-sender",
         "when() waits on a mailbox with no statically-visible sender — "
         "likely deadlock", family="messageflow"),
    Rule("RPL020", "wall-clock-in-model",
         "wall-clock read (time.time/perf_counter/datetime.now/...) in "
         "simulation model code; model time must come from the engine",
         family="determinism"),
    Rule("RPL021", "unseeded-random",
         "global or unseeded RNG (random.*, numpy legacy global, bare "
         "default_rng()); use sim.rng.RandomStreams", family="determinism"),
    Rule("RPL022", "os-entropy",
         "OS entropy source (os.urandom/uuid.uuid4/secrets.*) — "
         "nondeterministic across runs", family="determinism"),
    Rule("RPL023", "unordered-set-iteration",
         "iteration over an unordered set; order varies with hashing and "
         "perturbs trace digests — sort first", family="determinism"),
    Rule("RPL030", "completion-of-undeclared-key",
         "TaskSpace.completion() of a literal task key never declared in "
         "this file — raises KeyError at runtime", family="streamdag"),
    Rule("RPL031", "completion-before-declare",
         "TaskSpace.completion() of a literal task key at a line before the "
         "key's declare — the event cannot exist yet", family="streamdag"),
    Rule("RPL032", "declared-never-attached",
         "literal task key declared but never attached in this file — a "
         "never-launched task passes the finish checks silently",
         family="streamdag"),
    Rule("RPL033", "unordered-stream-launch",
         "stream launch whose wait list is built from an unordered set; "
         "event order varies with hashing and perturbs trace digests",
         family="streamdag"),
    Rule("RPL034", "redeclared-key",
         "the same literal task key declared twice — TaskSpace.declare "
         "raises at runtime", family="streamdag"),
    Rule("RPL035", "attach-of-undeclared-key",
         "TaskSpace.attach() of a literal task key never declared in this "
         "file — raises KeyError at runtime", family="streamdag"),
    Rule("RPL036", "monitor-attach-after-run-start",
         "monitor attached to an engine/runtime after its run() already "
         "executed in the same scope — pure observers see nothing "
         "retroactively", family="streamdag"),
]

RULES: dict[str, Rule] = {r.code: r for r in _RULE_LIST}

# Chare/MpiProcess/AmpiProcess command constructors (use with ``yield``).
COMMAND_FACTORIES = frozenset({
    "work", "launch", "launch_graph", "when", "wait", "wait_all",
    "isend", "irecv", "waitall", "sync",
})
# Factories whose command *suspends* the caller: meaningless outside a
# generator entry method.
SUSPEND_ONLY = frozenset({"when", "wait", "wait_all", "sync"})
# Root classes of the chare-style DSL; subclasses (transitively, within the
# linted tree) are treated as chare-like.
BASE_CLASS_NAMES = frozenset({"Chare", "RankProcess", "MpiProcess", "AmpiProcess"})


def is_generator_fn(fn: ast.FunctionDef) -> bool:
    """True if ``fn``'s own body contains yield/yield-from (nested
    functions, lambdas and classes do not count)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _walk_own(fn: ast.FunctionDef):
    """Walk a function body without descending into nested defs/classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _self_call_attr(call: ast.Call) -> Optional[str]:
    """``self.X(...)`` -> ``"X"``, else None."""
    f = call.func
    if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
            and f.value.id == "self"):
        return f.attr
    return None


# ---------------------------------------------------------------------------
# SDAG protocol rules (RPL001-RPL004)
# ---------------------------------------------------------------------------


class SdagChecker:
    """Per-class checker for the SDAG protocol rules.

    Parameters
    ----------
    class_info:
        The chare-like class under scrutiny (``engine.ClassInfo``).
    module_generators:
        ``{name: is_generator}`` for this file's module-level functions.
    global_methods:
        ``{method name: "gen" | "plain" | "ambiguous"}`` aggregated over
        every chare-like class in the run (resolves inherited helpers like
        ``Chare.allreduce`` across files).
    """

    def __init__(self, path: str, class_info, module_generators: dict,
                 global_methods: dict, add: Callable[[Finding], None]):
        self.path = path
        self.cls = class_info
        self.module_generators = module_generators
        self.global_methods = global_methods
        self.add = add

    def check(self) -> None:
        for method in self.cls.methods.values():
            if method.is_generator:
                self._check_generator_method(method)
            else:
                self._check_plain_method(method)

    # -- resolution -------------------------------------------------------
    def _generator_helper_name(self, call: ast.Call) -> Optional[str]:
        """Name of the generator helper this call invokes, if resolvable."""
        attr = _self_call_attr(call)
        if attr is not None:
            own = self.cls.methods.get(attr)
            if own is not None:
                return attr if own.is_generator else None
            if self.global_methods.get(attr) == "gen":
                return attr
            return None
        if isinstance(call.func, ast.Name):
            if self.module_generators.get(call.func.id):
                return call.func.id
        return None

    # -- generator entry methods / helpers --------------------------------
    def _check_generator_method(self, method) -> None:
        for node in _walk_own(method.node):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                helper = self._generator_helper_name(call)
                if helper is not None:
                    self._emit("RPL002", call,
                               f"generator helper {helper}() called without "
                               f"'yield from' — its body never executes")
                    continue
                attr = _self_call_attr(call)
                if attr in COMMAND_FACTORIES:
                    self._emit("RPL001", call,
                               f"result of self.{attr}(...) is discarded — "
                               f"commands do nothing unless yielded")
            elif isinstance(node, ast.Yield):
                self._check_yield(node)

    def _check_yield(self, node: ast.Yield) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            helper = self._generator_helper_name(value)
            if helper is not None:
                self._emit("RPL002", node,
                           f"'yield {helper}(...)' yields the generator object "
                           f"itself — use 'yield from'")
            return
        if value is None:
            self._emit("RPL003", node,
                       "bare 'yield' sends None to the scheduler; entry "
                       "methods must yield Command objects")
            return
        bad = (ast.Constant, ast.JoinedStr, ast.Tuple, ast.List, ast.Dict,
               ast.Set, ast.Compare, ast.BoolOp, ast.ListComp, ast.SetComp,
               ast.DictComp, ast.GeneratorExp, ast.Lambda)
        if isinstance(value, bad):
            kind = type(value).__name__
            self._emit("RPL003", node,
                       f"yield of a {kind} — entry methods must yield "
                       f"Command objects")

    # -- plain entry methods ----------------------------------------------
    def _check_plain_method(self, method) -> None:
        discarded_helpers = set()
        for node in _walk_own(method.node):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                helper = self._generator_helper_name(node.value)
                if helper is not None:
                    discarded_helpers.add(node.value)
                    self._emit("RPL002", node.value,
                               f"generator helper {helper}() called from a "
                               f"plain method — its body never executes")
        for node in _walk_own(method.node):
            if not isinstance(node, ast.Call) or node in discarded_helpers:
                continue
            attr = _self_call_attr(node)
            if attr in SUSPEND_ONLY:
                self._emit("RPL004", node,
                           f"plain entry method calls suspend-only "
                           f"self.{attr}(...); only generator entry methods "
                           f"can suspend — make this a generator or drop it")

    def _emit(self, code: str, node, message: str) -> None:
        self.add(Finding(self.path, node.lineno, node.col_offset, code, message))


# ---------------------------------------------------------------------------
# Determinism rules (RPL020-RPL023)
# ---------------------------------------------------------------------------


class ImportMap:
    """Resolve attribute/name call targets to dotted module paths using the
    file's imports (``import numpy as np`` makes ``np.random.rand`` resolve
    to ``numpy.random.rand``)."""

    def __init__(self, tree: ast.Module):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.aliases[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{node.module}.{alias.name}"

    def resolve(self, node) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return f"{base}.{node.attr}" if base else None
        return None


_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
_ENTROPY = frozenset({"os.urandom", "uuid.uuid4", "random.SystemRandom"})
_NUMPY_SEEDED_CTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937",
})


class DeterminismChecker:
    """RPL020-RPL023 on one file (already established to be in scope)."""

    def __init__(self, path: str, tree: ast.Module, add: Callable[[Finding], None]):
        self.path = path
        self.tree = tree
        self.add = add
        self.imports = ImportMap(tree)

    def check(self) -> None:
        set_names = self._infer_set_names()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_call(node, set_names)
            elif isinstance(node, ast.For):
                self._check_iter(node.iter, set_names)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    self._check_iter(gen.iter, set_names)

    # -- RPL020-RPL022 -----------------------------------------------------
    def _check_call(self, node: ast.Call, set_names) -> None:
        dotted = self.imports.resolve(node.func)
        if dotted is None:
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and len(node.args) == 1
                    and self._is_set_expr(node.args[0], set_names)):
                self._emit("RPL023", node,
                           f"{node.func.id}() of a set materializes hash "
                           f"order; sort first")
            return
        if dotted in _WALLCLOCK:
            self._emit("RPL020", node,
                       f"wall-clock call {dotted}() in simulation model code; "
                       f"model time must come from the engine")
        elif dotted in _ENTROPY or dotted.startswith("secrets."):
            self._emit("RPL022", node,
                       f"OS entropy source {dotted}() is nondeterministic "
                       f"across runs")
        elif dotted == "random.Random":
            if not node.args and not node.keywords:
                self._emit("RPL021", node,
                           "random.Random() without a seed; pass an explicit "
                           "seed or use sim.rng.RandomStreams")
        elif dotted.startswith("random."):
            self._emit("RPL021", node,
                       f"{dotted}() draws from the global RNG; use "
                       f"sim.rng.RandomStreams (seeded, named streams)")
        elif dotted.startswith("numpy.random."):
            tail = dotted.rsplit(".", 1)[1]
            if tail in _NUMPY_SEEDED_CTORS:
                if not node.args and not node.keywords:
                    self._emit("RPL021", node,
                               f"{dotted}() without a seed is entropy-seeded; "
                               f"pass an explicit seed")
            else:
                self._emit("RPL021", node,
                           f"{dotted}() uses numpy's legacy global RNG; use "
                           f"sim.rng.RandomStreams")

    # -- RPL023 ------------------------------------------------------------
    def _infer_set_names(self) -> set:
        """Names assigned *only* set-valued expressions anywhere in the file."""
        candidates: set[str] = set()
        poisoned: set[str] = set()
        for node in ast.walk(self.tree):
            targets = ()
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = (node.target,), node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = (node.target,), None  # |= etc: keep prior class
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if value is None:
                    continue
                if self._is_set_literalish(value):
                    candidates.add(target.id)
                else:
                    poisoned.add(target.id)
        return candidates - poisoned

    @staticmethod
    def _is_set_literalish(node) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def _is_set_expr(self, node, set_names) -> bool:
        if self._is_set_literalish(node):
            return True
        return isinstance(node, ast.Name) and node.id in set_names

    def _check_iter(self, iter_node, set_names) -> None:
        if self._is_set_expr(iter_node, set_names):
            self._emit("RPL023", iter_node,
                       "iteration over an unordered set; order varies with "
                       "hashing and perturbs trace digests — sort first")

    def _emit(self, code: str, node, message: str) -> None:
        self.add(Finding(self.path, node.lineno, node.col_offset, code, message))
