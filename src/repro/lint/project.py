"""Project-wide analysis: import graph, symbol index, and seed-taint summaries.

The per-file rules (ADM001–ADM008) see one module at a time.  The
concurrency/determinism rules (ADM009–ADM013) need facts that live in
*other* files: whether a called function is ``async def``, what the
:mod:`repro.obs.events` name registry contains, whether a helper's return
value derives from a run seed.  This module builds that cross-file view
once per lint run.

The index is deliberately **plain data** (dataclasses of strings and
tuples, no AST nodes): it is built once and read by every rule run of
every module.

Resolution is *suffix-based*: an import of ``repro.net.node`` matches the
indexed module whose dotted name ends with ``repro.net.node`` (or, at
worst, ``node``).  That makes the same machinery work for the real
``src/repro`` tree and for the self-contained fixture packages the test
suite lints out of a temp directory.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from repro.lint.rules.base import ModuleContext

__all__ = [
    "FunctionInfo",
    "ModuleSummary",
    "ProjectIndex",
    "build_project_index",
    "classify_seed_expr",
    "is_seed_name",
]

#: parameter/attribute names accepted as run-seed (or generator) sources
_SEED_SUFFIXES = ("seed", "rng")


def is_seed_name(name: str) -> bool:
    """Whether ``name`` reads as a run-seed or generator binding.

    ``seed``, ``run_seed``, ``_seed``, ``rng``, ``node_rng`` all qualify;
    ``node_id`` or ``count`` do not.
    """
    lowered = name.lower().lstrip("_")
    return any(
        lowered == suffix or lowered.endswith("_" + suffix) or lowered.startswith(suffix + "_")
        for suffix in _SEED_SUFFIXES
    )


@dataclass(frozen=True, slots=True)
class FunctionInfo:
    """One function (or method) as the cross-file rules see it.

    Attributes:
        name: module-local qualified name (``func`` or ``Class.func``).
        is_async: whether it is an ``async def``.
        params: positional + keyword parameter names, in order.
        seed_taint: taint class of the function's return value —
            ``"seed"`` (derives from a seed-ish parameter), ``"constant"``
            (hard-coded), or ``"unknown"``.
        return_annotation: source text of the return annotation, ``""``
            when absent.
    """

    name: str
    is_async: bool
    params: tuple[str, ...]
    seed_taint: str
    return_annotation: str


@dataclass(slots=True)
class ModuleSummary:
    """Cross-file-relevant facts about one module."""

    name: str
    path: str
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    string_sets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    classes: tuple[str, ...] = ()


@dataclass(slots=True)
class ProjectIndex:
    """The merged project view handed to :class:`ProjectRule` rules."""

    modules: dict[str, ModuleSummary] = field(default_factory=dict)

    # -- module / symbol resolution ------------------------------------

    def resolve_module(self, dotted: str) -> ModuleSummary | None:
        """Find the indexed module named ``dotted`` (suffix match)."""
        if dotted in self.modules:
            return self.modules[dotted]
        suffix = "." + dotted
        candidates = [m for name, m in self.modules.items() if name.endswith(suffix)]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_function(self, dotted: str) -> FunctionInfo | None:
        """Resolve ``pkg.mod.func`` (or ``mod.Class.func``) to its info."""
        if "." not in dotted:
            return None
        for split in range(len(dotted.split(".")) - 1, 0, -1):
            parts = dotted.split(".")
            module_name, local = ".".join(parts[:split]), ".".join(parts[split:])
            module = self.resolve_module(module_name)
            if module is not None and local in module.functions:
                return module.functions[local]
        return None

    def resolve_import(self, module: ModuleSummary, chain: list[str]) -> FunctionInfo | None:
        """Resolve a call chain like ``["helpers", "fixed_seed"]`` seen in
        ``module`` through its imports to a :class:`FunctionInfo`."""
        if not chain:
            return None
        root = chain[0]
        target = module.imports.get(root)
        if target is None:
            # A module-local call: ``helper()``.
            if len(chain) == 1:
                return module.functions.get(root)
            return None
        return self.resolve_function(".".join([target, *chain[1:]]))

    def registry_strings(self, module_suffix: str, *set_names: str) -> frozenset[str] | None:
        """The union of literal string sets from the module ending with
        ``module_suffix`` (e.g. ``"obs.events"``); ``None`` when that
        module is not part of this project."""
        module = self.resolve_module(module_suffix)
        if module is None:
            return None
        names: set[str] = set()
        for set_name in set_names:
            names.update(module.string_sets.get(set_name, ()))
        return frozenset(names)


# ---------------------------------------------------------------------
# Seed-taint classification (shared by the index pass and ADM012)
# ---------------------------------------------------------------------

#: builtins through which taint flows unchanged
_TAINT_TRANSPARENT_CALLS = {"int", "abs", "float", "min", "max", "hash", "len"}
#: repro.rngs helpers whose output inherits their first argument's taint
_RNG_DERIVERS = {"derive", "spawn", "make_rng", "default_rng"}

#: cross-file hook: maps a called expression to its return-taint class
CallTaintResolver = Callable[[ast.expr], str]


def classify_seed_expr(
    node: ast.expr,
    tainted: set[str],
    constants: set[str] | None = None,
    resolver: CallTaintResolver | None = None,
    _depth: int = 0,
) -> str:
    """Classify a seed expression as ``"seed"``, ``"constant"`` or ``"unknown"``.

    ``tainted`` holds names known to carry run-seed taint; ``constants``
    holds names known to be bound to hard-coded literals.  ``resolver``
    (optional) maps a called name chain to the taint class of the
    callee's return value — the cross-file hook ADM012 plugs in.
    """
    if _depth > 12:
        return "unknown"

    def recurse(child: ast.expr) -> str:
        return classify_seed_expr(child, tainted, constants, resolver, _depth + 1)

    if isinstance(node, ast.Constant):
        return "constant"
    if isinstance(node, ast.Name):
        if node.id in tainted:
            return "seed"
        if constants is not None and node.id in constants:
            return "constant"
        return "unknown"
    if isinstance(node, ast.Attribute):
        return "seed" if is_seed_name(node.attr) else "unknown"
    if isinstance(node, ast.Subscript):
        key = node.slice
        if isinstance(key, ast.Constant) and isinstance(key.value, str) and is_seed_name(key.value):
            return "seed"
        return "unknown"
    if isinstance(node, ast.BinOp):
        return _combine([recurse(node.left), recurse(node.right)])
    if isinstance(node, ast.UnaryOp):
        return recurse(node.operand)
    if isinstance(node, ast.BoolOp):
        return _combine([recurse(value) for value in node.values])
    if isinstance(node, ast.IfExp):
        return _combine([recurse(node.body), recurse(node.orelse)])
    if isinstance(node, (ast.Tuple, ast.List)):
        return _combine([recurse(element) for element in node.elts])
    if isinstance(node, ast.Call):
        return _classify_call(node, tainted, constants, resolver, _depth)
    return "unknown"


def _classify_call(
    node: ast.Call,
    tainted: set[str],
    constants: set[str] | None,
    resolver: CallTaintResolver | None,
    depth: int,
) -> str:
    def recurse(child: ast.expr) -> str:
        return classify_seed_expr(child, tainted, constants, resolver, depth + 1)

    func = node.func
    # A draw from a tainted generator is itself seed-derived:
    # ``rng.integers(...)`` / ``spec.rng.random()``.
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if isinstance(receiver, ast.Name) and receiver.id in tainted:
            return "seed"
        if isinstance(receiver, ast.Attribute) and is_seed_name(receiver.attr):
            return "seed"
    name = func.id if isinstance(func, ast.Name) else (func.attr if isinstance(func, ast.Attribute) else "")
    arg_classes = [recurse(arg) for arg in node.args]
    if name in _TAINT_TRANSPARENT_CALLS or name in _RNG_DERIVERS:
        return _combine(arg_classes) if arg_classes else "unknown"
    if resolver is not None:
        callee_taint = resolver(func)
        if callee_taint == "constant":
            return "constant"
        if callee_taint == "seed":
            # Seed-deriving callee: the result is only as good as the
            # arguments the seed flows in from.
            return _combine(arg_classes) if arg_classes else "seed"
    return "unknown"


def _combine(classes: list[str]) -> str:
    """Merge operand taints: any seed wins; all-constant stays constant."""
    if any(c == "seed" for c in classes):
        return "seed"
    if classes and all(c == "constant" for c in classes):
        return "constant"
    return "unknown"


# ---------------------------------------------------------------------
# Index construction
# ---------------------------------------------------------------------


def project_module_name(path: str) -> str:
    """Dotted module name for indexing: strips the ``src`` root and the
    ``__init__`` tail, keeps every remaining path component."""
    parts = list(Path(path).with_suffix("").parts)
    for anchor in ("src", "site-packages"):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1:]
    parts = [p for p in parts if p not in ("/", "\\", "..", ".")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    # Temp-dir prefixes would make suffix resolution ambiguous across
    # runs; keep at most the last 6 components.
    return ".".join(parts[-6:]) if parts else Path(path).stem


def _function_info(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
) -> FunctionInfo:
    args = fn.args
    params = tuple(
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    )
    seed_params = {p for p in params if is_seed_name(p)}
    returns: list[str] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            returns.append(classify_seed_expr(node.value, set(seed_params)))
    if returns and all(r == "constant" for r in returns):
        taint = "constant"
    elif returns and all(r == "seed" for r in returns):
        taint = "seed"
    else:
        taint = "unknown"
    annotation = ast.unparse(fn.returns) if fn.returns is not None else ""
    return FunctionInfo(
        name=qualname,
        is_async=isinstance(fn, ast.AsyncFunctionDef),
        params=params,
        seed_taint=taint,
        return_annotation=annotation,
    )


def _literal_string_set(value: ast.expr) -> tuple[str, ...] | None:
    """``frozenset({"a", "b"})`` / ``{"a", "b"}`` -> ``("a", "b")``."""
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("frozenset", "set", "tuple")
        and len(value.args) == 1
    ):
        value = value.args[0]
    if not isinstance(value, (ast.Set, ast.Tuple, ast.List)):
        return None
    strings: list[str] = []
    for element in value.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        strings.append(element.value)
    return tuple(sorted(strings))


def summarise_module(tree: ast.Module, name: str, path: str) -> ModuleSummary:
    """Extract the cross-file-relevant facts from one parsed module."""
    summary = ModuleSummary(name=name, path=path)
    classes: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                summary.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                summary.imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions[node.name] = _function_info(node, node.name)
        elif isinstance(node, ast.ClassDef):
            classes.append(node.name)
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{node.name}.{member.name}"
                    summary.functions[qualname] = _function_info(member, qualname)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                strings = _literal_string_set(node.value)
                if strings is not None:
                    summary.string_sets[target.id] = strings
    summary.classes = tuple(classes)
    return summary


def build_project_index(modules: Iterable["ModuleContext"]) -> ProjectIndex:
    """One pass over every parsed module -> the merged project index."""
    index = ProjectIndex()
    for module in modules:
        name = project_module_name(module.path)
        index.modules[name] = summarise_module(module.tree, name, module.path)
    return index
