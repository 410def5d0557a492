"""Per-layer host-time ledger built from a ``cProfile`` run.

A function belongs to the layer named by its source path: anything under
``repro/<layer>/`` is in ``<layer>``.  Everything else (the standard
library, numpy, the benchmark itself, ``repro``'s top-level modules) is
``other``.  C builtins (pstats filename ``~``) have no source path; their
self time is charged to the layer of each caller, using the per-caller
records pstats keeps, so "builtins" never becomes a layer of its own.  A
builtin called by another builtin takes the layer that calls it most.

Self times therefore partition the profile: summed over every layer plus
``other`` they equal the profile's total self time.
"""

from __future__ import annotations

from pathlib import PurePath

LAYERS = (
    "sim", "runtime", "comm", "hardware", "mpi", "ampi", "apps", "kernels",
    "obs", "validate", "sanitize", "exec", "core", "analysis",
)
OTHER = "other"


def layer_of_path(filename: str) -> str:
    """The layer a source file belongs to, or ``other``."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1] if parts[i + 1] in LAYERS and i + 2 < len(parts) else OTHER
    return OTHER


def _is_builtin(func) -> bool:
    return func[0] == "~"


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name in ("__init__", "__call__")


class _Layers:
    """Memoised function -> layer map over one pstats table."""

    def __init__(self, stats: dict):
        self.stats = stats
        self.memo: dict = {}

    def __call__(self, func) -> str:
        if func in self.memo:
            return self.memo[func]
        if not _is_builtin(func):
            layer = layer_of_path(func[0])
        else:
            self.memo[func] = OTHER  # breaks builtin -> builtin cycles
            votes: dict[str, int] = {}
            for caller, (nc, _cc, _tt, _ct) in self.stats[func][4].items():
                caller_layer = self(caller)
                votes[caller_layer] = votes.get(caller_layer, 0) + nc
            layer = max(sorted(votes), key=votes.get) if votes else OTHER
        self.memo[func] = layer
        return layer


def build_ledger(stats: dict) -> dict:
    """``{layer: {"self_s", "calls"}}`` for every layer plus ``other``, from
    a ``pstats.Stats(...).stats`` table.

    ``calls`` counts calls into the layer's public functions (no leading
    underscore, plus ``__init__``/``__call__``) made from another layer.
    """
    layer = _Layers(stats)
    ledger = {name: {"self_s": 0.0, "calls": 0} for name in (*LAYERS, OTHER)}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if _is_builtin(func):
            charged = 0.0
            for caller, (_nc2, _cc2, caller_tt, _ct2) in callers.items():
                ledger[layer(caller)]["self_s"] += caller_tt
                charged += caller_tt
            ledger[OTHER]["self_s"] += tt - charged  # entries with no caller
            continue
        own = layer(func)
        ledger[own]["self_s"] += tt
        if own != OTHER and _is_public(func[2]):
            ledger[own]["calls"] += sum(
                nc for caller, (nc, _cc2, _tt2, _ct2) in callers.items()
                if layer(caller) != own)
    return ledger


def total_self_s(stats: dict) -> float:
    """The profile's total self time (what the ledger partitions)."""
    return sum(entry[2] for entry in stats.values())


def mean_us(stats: dict, suffix: str, name: str) -> float:
    """Mean inclusive µs per call of function ``name`` defined in a file
    whose path ends with ``suffix`` (0 when it never ran)."""
    calls = cum = 0.0
    for (filename, _line, funcname), (_cc, nc, _tt, ct, _callers) in stats.items():
        if funcname == name and PurePath(filename).as_posix().endswith(suffix):
            calls += nc
            cum += ct
    return cum / calls * 1e6 if calls else 0.0


def _shares(book: dict) -> dict:
    total = sum(row["self_s"] for row in book.values()) or 1.0
    return {name: row["self_s"] / total for name, row in book.items()}


def blame(before: dict, after: dict) -> str:
    """The layer whose share of self time grew most from ledger ``before``
    to ``after``: the layer a slowdown is charged to.  Shares, not seconds,
    so a machine that is uniformly slower on one side blames no layer for
    being large."""
    old, new = _shares(before), _shares(after)
    return max(new, key=lambda name: new[name] - old[name])
