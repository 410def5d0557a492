"""The lint engine: file collection, model building, rule dispatch.

One :class:`LintEngine` run parses every ``.py`` file under the given
paths, builds a light semantic model (chare-like classes via transitive
base-name closure from ``Chare``/``RankProcess``/``MpiProcess``/
``AmpiProcess``, generator methods, message producers/consumers), then
applies the rule families of :mod:`repro.lint.rules`,
:mod:`repro.lint.streamdag` and :mod:`repro.lint.messageflow`.
Findings suppressed by ``# repro-lint: disable=CODE`` comments
(:mod:`repro.lint.suppressions`) are counted but not reported.

Scoping:

* SDAG-protocol, stream/DAG-protocol (RPL030-RPL036) and message-flow
  rules apply to every scanned file;
* determinism rules (RPL020-RPL023) apply only to files inside the
  simulation model packages — path components ``repro`` plus one of
  ``config.determinism_parts`` (default ``sim``/``runtime``/``comm``/
  ``apps``); pass ``determinism_parts=None`` to check everywhere
  (used by the fixture tests);
* directory walks skip ``config.exclude_parts`` (notably the deliberately
  violating fixture corpus under ``tests/lint/fixtures``); explicitly
  listed files are always linted.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .messageflow import FlowModel, collect_flow, resolve_messageflow
from .rules import (
    BASE_CLASS_NAMES,
    DeterminismChecker,
    Finding,
    SdagChecker,
    is_generator_fn,
)
from .streamdag import StreamDagChecker
from .suppressions import is_suppressed, parse_suppressions

__all__ = ["LintConfig", "LintReport", "LintEngine", "run_lint"]

DEFAULT_DETERMINISM_PARTS = ("sim", "runtime", "comm", "apps")
DEFAULT_MAILBOX_ALLOWLIST = frozenset({"_reduction_result", "_gm_post"})
DEFAULT_EXCLUDE_PARTS = ("__pycache__", ".git", ".cache", "fixtures")


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one engine run (defaults match the CI configuration)."""

    messageflow: bool = True
    determinism_parts: Optional[tuple] = DEFAULT_DETERMINISM_PARTS
    mailbox_allowlist: frozenset = DEFAULT_MAILBOX_ALLOWLIST
    exclude_parts: tuple = DEFAULT_EXCLUDE_PARTS


@dataclass
class LintReport:
    """Outcome of one run: surviving findings plus bookkeeping."""

    findings: list[Finding]
    files: int
    suppressed: int

    @property
    def counts(self) -> Counter:
        return Counter(f.code for f in self.findings)

    @property
    def ok(self) -> bool:
        return not self.findings


@dataclass
class MethodInfo:
    name: str
    node: ast.FunctionDef
    is_generator: bool


@dataclass
class ClassInfo:
    name: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, MethodInfo]


@dataclass
class FileModel:
    path: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]
    classes: list[ClassInfo] = field(default_factory=list)
    module_generators: dict[str, bool] = field(default_factory=dict)
    flow: FlowModel = field(default_factory=FlowModel)


def _base_name(node) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _build_model(path: str, source: str, tree: ast.Module) -> FileModel:
    model = FileModel(path, tree, parse_suppressions(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods = {}
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    methods[stmt.name] = MethodInfo(
                        stmt.name, stmt, is_generator_fn(stmt))
            bases = tuple(b for b in map(_base_name, node.bases) if b)
            model.classes.append(ClassInfo(node.name, node, bases, methods))
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            model.module_generators[stmt.name] = is_generator_fn(stmt)
    model.flow = collect_flow(tree)
    return model


class LintEngine:
    """Run the rule families over a set of files/directories."""

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or LintConfig()

    # -- file collection ---------------------------------------------------
    def collect_files(self, paths: Sequence) -> list[Path]:
        excluded = set(self.config.exclude_parts)
        files: list[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                for candidate in sorted(path.rglob("*.py")):
                    if not excluded.intersection(candidate.parts):
                        files.append(candidate)
            else:
                # Explicit file arguments bypass the exclusion list so the
                # fixture tests can lint deliberately-violating files.
                files.append(path)
        seen: set[str] = set()
        unique = []
        for f in files:
            key = str(f.resolve())
            if key not in seen:
                seen.add(key)
                unique.append(f)
        return unique

    @staticmethod
    def _display_path(path: Path) -> str:
        try:
            return path.resolve().relative_to(Path.cwd()).as_posix()
        except ValueError:
            return path.as_posix()

    def _determinism_in_scope(self, path: Path) -> bool:
        parts = self.config.determinism_parts
        if parts is None:
            return True
        file_parts = set(path.resolve().parts)
        return "repro" in file_parts and bool(file_parts.intersection(parts))

    # -- the run -----------------------------------------------------------
    def run(self, paths: Sequence) -> LintReport:
        raw_findings: list[Finding] = []
        add = raw_findings.append
        models: list[tuple[Path, FileModel]] = []

        files = self.collect_files(paths)
        for path in files:
            display = self._display_path(path)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError, ValueError) as exc:
                line = getattr(exc, "lineno", None) or 1
                add(Finding(display, line, 0, "RPL000",
                            f"file could not be parsed: {exc}"))
                continue
            models.append((path, _build_model(display, source, tree)))

        chare_like = self._chare_closure(m for _p, m in models)
        global_methods = self._global_method_registry(
            (m for _p, m in models), chare_like)

        entry_defs: set[str] = set()
        for _path, model in models:
            for cls in model.classes:
                if cls.name in chare_like:
                    entry_defs.update(cls.methods)

        for path, model in models:
            for cls in model.classes:
                if cls.name in chare_like:
                    SdagChecker(model.path, cls, model.module_generators,
                                global_methods, add).check()
            StreamDagChecker(model.path, model.tree, add).check()
            if self._determinism_in_scope(path):
                DeterminismChecker(model.path, model.tree, add).check()

        if self.config.messageflow:
            flows = {m.path: m.flow for _p, m in models}
            raw_findings.extend(resolve_messageflow(
                flows, entry_defs, self.config.mailbox_allowlist))

        suppressions = {m.path: m.suppressions for _p, m in models}
        findings: list[Finding] = []
        suppressed = 0
        for finding in raw_findings:
            file_suppressions = suppressions.get(finding.path, {})
            if is_suppressed(file_suppressions, finding.line, finding.code):
                suppressed += 1
            else:
                findings.append(finding)
        findings.sort()
        return LintReport(findings=findings, files=len(files),
                          suppressed=suppressed)

    # -- global registries -------------------------------------------------
    @staticmethod
    def _chare_closure(models: Iterable[FileModel]) -> set[str]:
        """Class names that are chare-like: the DSL base classes plus
        everything reachable from them through base-name edges."""
        all_classes: list[ClassInfo] = []
        for model in models:
            all_classes.extend(model.classes)
        chare_like = set(BASE_CLASS_NAMES)
        changed = True
        while changed:
            changed = False
            for cls in all_classes:
                if cls.name in chare_like:
                    continue
                if chare_like.intersection(cls.bases):
                    chare_like.add(cls.name)
                    changed = True
        return chare_like

    @staticmethod
    def _global_method_registry(models: Iterable[FileModel],
                                chare_like: set) -> dict[str, str]:
        """method name -> "gen" / "plain" / "ambiguous" over every
        chare-like class in the run (resolves inherited helpers)."""
        tally: dict[str, set] = {}
        for model in models:
            for cls in model.classes:
                if cls.name not in chare_like:
                    continue
                for method in cls.methods.values():
                    kind = "gen" if method.is_generator else "plain"
                    tally.setdefault(method.name, set()).add(kind)
        return {
            name: next(iter(kinds)) if len(kinds) == 1 else "ambiguous"
            for name, kinds in tally.items()
        }


def run_lint(paths: Sequence, config: Optional[LintConfig] = None) -> LintReport:
    """Convenience wrapper: one engine run over ``paths``."""
    return LintEngine(config).run(paths)
