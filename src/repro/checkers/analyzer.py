"""One static analyzer for the RPR0xx--RPR3xx rules behind ``repro check``.

Every static rule is one :class:`Rule` record ``(code, family,
default_targets, check)`` in :data:`RULES`.  The *family* (``lint``,
``slabs``, ``parsafe``) is what ``repro check`` selects and the
``--json`` key its findings land under; *default_targets* are the
package-relative paths swept when no paths are given.  ``docs/API.md``
("Static analysis") documents every code and each family's sweep.

Per file the engine parses once, builds one :class:`Module` context
(import aliases, resolved calls, per-function parameters, locals and
decorators), and runs each selected check once; a check may serve
several codes and the engine keeps those selected for the file.  A file
that does not parse yields one RPR000 per family swept over it.

Suppression: ``# noqa: RPR001`` (or a bare ``# noqa``) silences a whole
logical line; ``# noqa-module: RPR102[, ...]`` silences the listed codes
file-wide.  Codes are ``[A-Z]+[0-9]+`` tokens, so a trailing reason is
ignored.  A file is tokenized once, and only when it has findings.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.checkers.bounds import BoundParseError, parse_bound_expr

__all__ = [
    "FAMILIES",
    "RULES",
    "Finding",
    "Module",
    "Rule",
    "analyze",
    "analyze_source",
]

FAMILIES = ("lint", "slabs", "parsafe")

_Fn = ast.FunctionDef | ast.AsyncFunctionDef
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass(frozen=True)
class Finding:
    """One finding, pointing at a source line."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One registered code: its family, default sweep and check function."""

    code: str
    family: str
    default_targets: tuple[str, ...]
    check: Callable[[Module], Iterable[Finding]]


# ---------------------------------------------------------------------------
# Shared per-file context
# ---------------------------------------------------------------------------


def _name_of(expr: ast.expr) -> str | None:
    """``attr`` of an attribute, ``id`` of a name, else None."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _decorator(fn: _Fn, name: str) -> ast.expr | None:
    """The ``@name`` / ``@name(...)`` / ``@x.name(...)`` decorator of ``fn``."""
    for dec in fn.decorator_list:
        if _name_of(dec.func if isinstance(dec, ast.Call) else dec) == name:
            return dec
    return None


def _positional(fn: _Fn) -> list[ast.arg]:
    return [*fn.args.posonlyargs, *fn.args.args]


def _params(args: ast.arguments) -> set[str]:
    """Every parameter name, ``*args``/``**kwargs`` included."""
    extra = [a for a in (args.vararg, args.kwarg) if a is not None]
    return {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, *extra)}


def _public_on_tree(fn: _Fn) -> bool:
    """A public function whose first parameter is ``tree`` (an algorithm)."""
    positional = _positional(fn)
    return not fn.name.startswith("_") and bool(positional) and positional[0].arg == "tree"


def _flat(target: ast.expr) -> list[ast.expr]:
    """Leaves of an assignment/loop target, tuples and stars unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [leaf for elt in target.elts for leaf in _flat(elt)]
    return _flat(target.value) if isinstance(target, ast.Starred) else [target]


def _bound_names(target: ast.expr) -> list[str]:
    """Names *bound* by an assignment/loop target (subscript bases are not)."""
    return [leaf.id for leaf in _flat(target) if isinstance(leaf, ast.Name)]


def _store_targets(node: ast.AST) -> list[ast.expr]:
    """Leaf targets an Assign/AnnAssign/AugAssign stores to."""
    if isinstance(node, ast.Assign):
        return [leaf for target in node.targets for leaf in _flat(target)]
    return _flat(node.target) if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []


def _base_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class Module:
    """One parsed file plus the facts every rule shares."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.aliases: dict[str, str] = {}
        #: Every def in the file, and its nearest enclosing def (classes
        #: are not scopes here).
        self.functions: list[_Fn] = []
        self.parent: dict[_Fn, _Fn | None] = {}
        #: Every node of the file, in source order.
        self.nodes: list[ast.AST] = []
        calls: list[ast.Call] = []
        stack: list[tuple[ast.AST, _Fn | None]] = [(tree, None)]
        while stack:
            node, fn = stack.pop()
            self.nodes.append(node)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    self.aliases[alias.asname or head] = alias.name if alias.asname else head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, _FUNCS):
                self.functions.append(node)
                self.parent[node] = fn
                fn = node
            stack.extend((child, fn) for child in reversed(list(ast.iter_child_nodes(node))))
        #: Every call with its import-resolved dotted name (None when the
        #: callee is not a dotted name).
        self.calls = [(call, self.resolve(call.func)) for call in calls]
        self._memo: dict[Any, Any] = {}
        self._own: dict[_Fn, list[ast.AST]] = {}
        self._locals: dict[_Fn, set[str]] = {}

    def resolve(self, func: ast.expr) -> str | None:
        """Dotted name of a called expression, with import aliases expanded."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(parts))

    def at(self, node: ast.AST, code: str, message: str) -> Finding:
        line, col = getattr(node, "lineno", 0), getattr(node, "col_offset", 0)
        return Finding(self.path, line, col + 1, code, message)

    def memo(self, key: Callable[[Module], Any]) -> Any:
        """``key(self)``, computed once per file (facts several rules read)."""
        if key not in self._memo:
            self._memo[key] = key(self)
        return self._memo[key]

    def own(self, fn: _Fn) -> list[ast.AST]:
        """``fn``'s body nodes in source order; nested defs and lambdas are
        included as leaves but not entered (they are scopes of their own)."""
        if fn not in self._own:
            out: list[ast.AST] = []
            stack: list[ast.AST] = list(reversed(fn.body))
            while stack:
                node = stack.pop()
                out.append(node)
                if not isinstance(node, _SCOPES):
                    stack.extend(reversed(list(ast.iter_child_nodes(node))))
            self._own[fn] = out
        return self._own[fn]

    def locals(self, fn: _Fn) -> set[str]:
        """Names ``fn`` binds itself, minus its ``nonlocal``/``global`` names."""
        if fn in self._locals:
            return self._locals[fn]
        names = _params(fn.args)
        shared: set[str] = set()
        for node in self.own(fn):
            names.update(t.id for t in _store_targets(node) if isinstance(t, ast.Name))
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                names.update(_bound_names(node.target))
            elif isinstance(node, ast.NamedExpr):
                names.add(node.target.id)
            elif isinstance(node, (*_FUNCS, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                names.update(_bound_names(node.optional_vars))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                shared.update(node.names)
        self._locals[fn] = names - shared
        return self._locals[fn]


# ---------------------------------------------------------------------------
# lint: repo invariants (RPR001..RPR005)
# ---------------------------------------------------------------------------

#: Layers allowed to read clocks and draw unseeded randomness: the
#: simulation runtime, the wall-clock benchmark harness, and the fuzzer
#: (whose ``--budget`` is wall-clock by definition; its case
#: streams stay seeded by contract, enforced by its own tests).
_EXEMPT_LAYERS = ("repro/runtime/", "repro/bench/", "repro/fuzz/")

_WALL_CLOCK = {
    *(f"time.{fn}{ns}" for fn in ("time", "perf_counter", "monotonic", "process_time")
      for ns in ("", "_ns")),
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
}

#: Seeded RNG constructors; any other call reached through the ``random``
#: or ``numpy.random`` namespace draws from global RNG state (RPR002).
_SAFE_RNG = {"Random", "SystemRandom", "default_rng", "Generator", "RandomState", "SeedSequence"}

_FOOTPRINT_DECLS = {"record_write", "record_atomic", "commit_phase"}


def _global_rng(dotted: str) -> str | None:
    """The RNG namespace (``numpy.random``/``random``) of a global-state draw."""
    for namespace in ("numpy.random", "random"):
        tail = dotted.removeprefix(namespace + ".")
        if tail != dotted:
            return namespace if "." not in tail and tail not in _SAFE_RNG else None
    return None


def _determinism(mod: Module) -> Iterator[Finding]:
    """RPR001/RPR002: results and charged costs are functions of the input
    alone -- no clock reads, and seeds threaded explicitly."""
    if any(layer in mod.path for layer in _EXEMPT_LAYERS):
        return
    for call, dotted in mod.calls:
        if dotted is None:
            continue
        if dotted in _WALL_CLOCK:
            yield mod.at(
                call, "RPR001", f"wall-clock call {dotted}() outside repro/runtime or repro/bench"
            )
            continue
        namespace = _global_rng(dotted)
        if namespace == "numpy.random":
            message = (
                f"unseeded global-state randomness {dotted}(); thread a seeded Generator instead"
            )
        elif namespace == "random":
            message = (
                f"stdlib global-state randomness {dotted}(); "
                "thread a seeded numpy Generator instead"
            )
        elif dotted.rsplit(".", 1)[-1] == "default_rng" and not call.args and not call.keywords:
            message = "default_rng() with no seed; pass an explicit seed or Generator"
        else:
            continue
        yield mod.at(call, "RPR002", message)


def _tracker_threading(mod: Module) -> Iterator[Finding]:
    """RPR003: public repro.core algorithms taking ``tree`` thread a tracker."""
    if "repro/core/" not in mod.path:
        return
    for fn in mod.functions:
        # A **kwargs catch-all forwards tracker= through.
        if mod.parent[fn] is not None or not _public_on_tree(fn) or fn.args.kwarg is not None:
            continue
        if "tracker" not in {a.arg for a in (*_positional(fn), *fn.args.kwonlyargs)}:
            yield mod.at(
                fn,
                "RPR003",
                f"public repro.core algorithm {fn.name}() takes 'tree' but "
                "no 'tracker' cost accumulator",
            )
        elif not any(
            (isinstance(sub, ast.Name) and sub.id == "tracker" and isinstance(sub.ctx, ast.Load))
            or (isinstance(sub, ast.keyword) and sub.arg == "tracker")
            for sub in ast.walk(fn)
        ):
            yield mod.at(
                fn, "RPR003", f"{fn.name}() accepts 'tracker' but never reads or forwards it"
            )


def _tree_mutation(mod: Module) -> Iterator[Finding]:
    """RPR004: WeightedTree payload is frozen outside repro/trees."""
    if "repro/trees/" in mod.path:
        return
    for node in mod.nodes:
        for target in _store_targets(node):
            if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute):
                attr = target.value
                if attr.attr in ("edges", "weights") and _base_name(attr.value) != "self":
                    yield mod.at(
                        target,
                        "RPR004",
                        f"mutation of WeightedTree payload '.{attr.attr}[...]' "
                        "outside repro/trees (trees are frozen inputs)",
                    )
            if (
                isinstance(target, ast.Attribute)
                and (target.attr == "_ranks" or target.attr.startswith("_adj"))
                and _base_name(target.value) != "self"
            ):
                yield mod.at(
                    target,
                    "RPR004",
                    f"mutation of WeightedTree cache '.{target.attr}' outside repro/trees",
                )


def _first_shared_store(mod: Module, fn: _Fn) -> tuple[ast.AST, str] | None:
    """The first store through a name that is not local to ``fn``."""
    for node in mod.own(fn):
        if isinstance(node, ast.Nonlocal):
            return node, node.names[0]
        for target in _store_targets(node):
            base = _base_name(target)
            if base is not None and base not in mod.locals(fn):
                return target, base
    return None


def _closure_stores(mod: Module) -> Iterator[Finding]:
    """RPR005: a task body nested in a ``run_round`` caller declares its
    closed-over stores via record_write/record_atomic/commit_phase."""
    tails: dict[_Fn, set[str]] = {}

    def own_tails(fn: _Fn) -> set[str]:
        if fn not in tails:
            tails[fn] = {
                (mod.resolve(n.func) or "").rsplit(".", 1)[-1]
                for n in mod.own(fn)
                if isinstance(n, ast.Call)
            }
        return tails[fn]

    for fn in mod.functions:
        scope = mod.parent[fn]
        if scope is None or own_tails(fn) & _FOOTPRINT_DECLS:
            continue
        store = _first_shared_store(mod, fn)
        if store is None:
            continue
        while scope is not None and "run_round" not in own_tails(scope):
            scope = mod.parent[scope]
        if scope is not None:
            yield mod.at(
                store[0],
                "RPR005",
                f"round task body stores to closed-over {store[1]!r} without "
                "record_write/record_atomic/commit_phase declaration",
            )


# ---------------------------------------------------------------------------
# lint: the cost-bound contract of repro.checkers.bounds (RPR101..RPR105)
# ---------------------------------------------------------------------------

#: Layers whose exported algorithms must declare bounds (RPR101).
_BOUND_REQUIRED_LAYERS = ("repro/core/", "repro/contraction/")

#: Call names whose arguments are O(log input) by construction (RPR102).
_LOG_SIZED_CALLS = {"log2ceil", "bit_length", "log", "log2"}


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def _literal_vars(node: ast.expr | None) -> tuple[str, ...] | None:
    """The ``vars=`` tuple if it is a literal; ``("n",)`` if omitted."""
    if node is None:
        return ("n",)
    if isinstance(node, (ast.Tuple, ast.List)):
        names = [e.value for e in node.elts if isinstance(e, ast.Constant)]
        if all(isinstance(v, str) for v in names) and len(names) == len(node.elts):
            return tuple(names)
    return None


def _bound_decls(mod: Module) -> tuple[list[tuple[_Fn, str, bool]], list[Finding]]:
    """``(fn, kind, polylog depth)`` of every called ``@cost_bound``, and
    the RPR104 findings of the file."""
    bounded: list[tuple[_Fn, str, bool]] = []
    errors: list[Finding] = []
    for fn in mod.functions:
        call = _decorator(fn, "cost_bound")
        if call is None:
            continue
        if not isinstance(call, ast.Call):
            errors.append(
                mod.at(fn, "RPR104", f"@cost_bound on {fn.name}() must be called with work=/depth=")
            )
            continue
        variables = _literal_vars(_keyword(call, "vars"))
        kind_node = _keyword(call, "kind")
        kind = "algorithm"
        if isinstance(kind_node, ast.Constant) and isinstance(kind_node.value, str):
            kind = kind_node.value
        polylog_depth = False
        for field in ("work", "depth"):
            node = _keyword(call, field)
            if node is None:
                errors.append(
                    mod.at(call, "RPR104", f"@cost_bound on {fn.name}() is missing {field}=")
                )
                continue
            # Computed expressions and non-literal vars= are checked at import.
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)) or (
                variables is None
            ):
                continue
            try:
                expr = parse_bound_expr(node.value, variables)
            except BoundParseError as exc:
                errors.append(
                    mod.at(node, "RPR104", f"invalid {field} bound on {fn.name}(): {exc}")
                )
                continue
            if field == "depth":
                polylog_depth = expr.is_polylog
        bounded.append((fn, kind, polylog_depth))
    return bounded, errors


def _bound_grammar(mod: Module) -> list[Finding]:
    """RPR104: bounds parse under the grammar and use only declared vars."""
    return mod.memo(_bound_decls)[1]


def _undeclared_algorithm(mod: Module) -> Iterator[Finding]:
    """RPR101: exported core/contraction algorithms declare @cost_bound."""
    if not any(layer in mod.path for layer in _BOUND_REQUIRED_LAYERS):
        return
    for fn in mod.tree.body:
        if isinstance(fn, _FUNCS) and _public_on_tree(fn) and not _decorator(fn, "cost_bound"):
            yield mod.at(
                fn,
                "RPR101",
                f"public algorithm {fn.name}() declares no @cost_bound "
                "(work/depth contract required in repro/core and repro/contraction)",
            )


def _log_bounded(expr: ast.expr) -> bool:
    """True if every name in ``expr`` feeds a log-sized call (RPR102)."""
    permitted: set[int] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and _name_of(node.func) in _LOG_SIZED_CALLS:
            permitted.update(id(sub) for sub in ast.walk(node) if isinstance(sub, ast.Name))
    return all(id(node) in permitted for node in ast.walk(expr) if isinstance(node, ast.Name))


def _exempt_for_iter(expr: ast.expr) -> bool:
    """Iterables a polylog-depth loop may traverse without a finding."""
    if isinstance(expr, ast.Attribute) and expr.attr == "rounds":
        return True  # contraction round list: O(log n) entries whp
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id == "range":
            return all(_log_bounded(a) for a in expr.args)
        if expr.func.id in ("enumerate", "reversed") and expr.args:
            return _exempt_for_iter(expr.args[0])
    return False


def _sequential_loops(stmts: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Outermost loops not inside a combinator-charged region."""
    for node in stmts:
        if isinstance(node, (*_FUNCS, ast.ClassDef)):
            continue  # nested defs are charged at their call sites
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if not any(
                isinstance(item.context_expr, ast.Call)
                and isinstance(item.context_expr.func, ast.Attribute)
                and item.context_expr.func.attr == "parallel_round"
                for item in node.items
            ):
                yield from _sequential_loops(node.body)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if not _exempt_for_iter(node.iter):
                yield node  # outermost only: nested loops share the finding
        elif isinstance(node, ast.While):
            yield node
        else:
            blocks = [getattr(node, name, None) or [] for name in ("body", "orelse", "finalbody")]
            nested = (*getattr(node, "handlers", ()), *getattr(node, "cases", ()))
            for block in (*blocks, *(h.body for h in nested)):
                yield from _sequential_loops(block)


def _sequential_loop(mod: Module) -> Iterator[Finding]:
    """RPR102: a polylog-depth algorithm runs no bare input-sized loop."""
    for fn, kind, polylog_depth in mod.memo(_bound_decls)[0]:
        if kind != "algorithm" or not polylog_depth:
            continue
        for loop in _sequential_loops(fn.body):
            word = "while" if isinstance(loop, ast.While) else "for"
            yield mod.at(
                loop,
                "RPR102",
                f"{fn.name}() declares polylog depth but runs a bare {word} "
                "loop; wrap it in a charged combinator (parallel_round, "
                ".rounds, log-bounded range) or noqa with a justification",
            )


def _non_shrinking_recursion(mod: Module) -> Iterator[Finding]:
    """RPR103: recursion in a bounded function shrinks its arguments."""
    for fn, _kind, _polylog in mod.memo(_bound_decls)[0]:
        params = {a.arg for a in (*_positional(fn), *fn.args.kwonlyargs)}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                (isinstance(func, ast.Name) and func.id == fn.name)
                or (
                    isinstance(func, ast.Attribute)
                    and func.attr == fn.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                )
            ):
                continue
            if all(
                (isinstance(v, ast.Name) and v.id in params) or isinstance(v, ast.Constant)
                for v in (*node.args, *(kw.value for kw in node.keywords))
            ):
                yield mod.at(
                    node,
                    "RPR103",
                    f"recursive call to {fn.name}() passes only unmodified "
                    "parameters; recursion in a bounded function must shrink "
                    "its argument",
                )


def _loopy_helper(mod: Module) -> Iterator[Finding]:
    """RPR105: algorithms call no undeclared loopy module-level helper."""
    algorithms = [fn for fn, kind, _polylog in mod.memo(_bound_decls)[0] if kind == "algorithm"]
    if not algorithms:
        return
    loopy = {
        fn.name
        for fn in mod.tree.body
        if isinstance(fn, _FUNCS)
        and _decorator(fn, "cost_bound") is None
        and any(isinstance(x, (ast.For, ast.AsyncFor, ast.While)) for x in ast.walk(fn))
    }
    for fn in algorithms:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in loopy
            ):
                yield mod.at(
                    node,
                    "RPR105",
                    f"{fn.name}() calls {node.func.id}(), a loopy module "
                    "helper with no declared bound; annotate the helper with "
                    "@cost_bound or charge the cost inline",
                )


# ---------------------------------------------------------------------------
# slabs: dtype, copy and purity discipline of the flat-array backends
# ---------------------------------------------------------------------------

#: NumPy constructors that *allocate with a defaulted dtype* (RPR201).
_ALLOC_FNS = {"array", "zeros", "ones", "empty", "full", "arange", "fromiter", "frombuffer"}

#: Positional index at which these constructors accept dtype (so e.g.
#: ``np.full(n, -1, np.int64)`` is explicit without the keyword).
_ALLOC_DTYPE_POS = {"full": 2, "fromiter": 1, "frombuffer": 1}

#: Constructors that inherit/normalize dtype by design -- never flagged,
#: but tracked for dataflow.
_INHERIT_FNS = {
    "asarray",
    "ascontiguousarray",
    "asfortranarray",
    "copy",
    "zeros_like",
    "ones_like",
    "empty_like",
    "full_like",
}

#: Array-growing calls that are O(accumulated) per call (RPR204).
_CONCAT_FNS = {"append", "concatenate", "hstack", "vstack", "column_stack", "insert", "delete"}

#: NumPy producers whose result dtype is a platform-width integer.
_INT_PRODUCERS = {
    "flatnonzero",
    "argsort",
    "argmin",
    "argmax",
    "searchsorted",
    "bincount",
    "arange",
}

#: Other calls known to return ndarrays (dtype untracked).
_ARRAY_PRODUCERS = _INT_PRODUCERS | _INHERIT_FNS | _ALLOC_FNS | _CONCAT_FNS | {
    "where",
    "sort",
    "unique",
    "cumsum",
    "diff",
    "repeat",
    "minimum",
    "maximum",
    "sqrt",
    "rint",
    "abs",
}

#: ndarray methods that mutate in place (RPR203 on fancy-indexed bases).
_INPLACE_METHODS = {"sort", "fill", "partition", "put", "setfield", "byteswap"}

#: The instrumentation surface a pure slab kernel must not touch (RPR207).
_EFFECT_NAMES = {"instrumented", "record_read", "record_write", "record_atomic", "commit_phase"}
_EFFECT_ATTRS = {"RECORDER"}

#: Host-effect builtins forbidden inside contracts (RPR208).
_HOST_EFFECT_CALLS = {"print", "open", "input"}

_ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)

#: Decorators that exempt a ``*Pool`` member from RPR209.
_PROPERTY_LIKE = {"property", "cached_property", "setter", "getter", "deleter"}


def _dtype_str(node: ast.expr | None) -> str | None:
    """Normalize a ``dtype=`` argument expression to a comparison string."""
    if isinstance(node, ast.Attribute):
        return {"bool_": "bool", "intp": "int64"}.get(node.attr, node.attr)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return {"int": "int64", "float": "float64", "bool": "bool"}.get(node.id)
    return None


def _explicit_dtype(call: ast.Call, tail: str | None) -> ast.expr | None:
    """The ``dtype=`` keyword, or the positional dtype of ``np.full`` & co."""
    pos = _ALLOC_DTYPE_POS.get(tail or "", len(call.args))
    return _keyword(call, "dtype") or (call.args[pos] if pos < len(call.args) else None)


class _SlabFlow(ast.NodeVisitor):
    """RPR201..RPR206: per-function dataflow of which local names hold
    ndarrays, and of which dtype, plus the loop depth of every call."""

    def __init__(self, mod: Module) -> None:
        self.mod = mod
        self.findings: list[Finding] = []
        self.loop_depth = 0
        #: Names holding ndarrays -> dtype (None when unknown).
        self.arrays: dict[str, str | None] = {}

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(self.mod.at(node, code, message))

    def _numpy_tail(self, func: ast.expr) -> str | None:
        dotted = self.mod.resolve(func)
        return dotted.rsplit(".", 1)[-1] if dotted and dotted.startswith("numpy.") else None

    def _tracked(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in self.arrays

    def _dtype(self, node: ast.expr) -> str | None:
        return self.arrays.get(node.id) if isinstance(node, ast.Name) else None

    def _is_fancy_index(self, index: ast.expr) -> bool:
        """Indices that produce a *copy* when subscripted (RPR203)."""
        return (
            isinstance(index, (ast.Compare, ast.BoolOp, ast.List, ast.Call))
            or (isinstance(index, ast.UnaryOp) and isinstance(index.op, ast.Invert))
            or self._tracked(index)  # indexing with an index/mask array
        )

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        saved = self.loop_depth, self.arrays
        self.loop_depth, self.arrays = 0, {}
        self.generic_visit(node)
        self.loop_depth, self.arrays = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_For(self, node: ast.For | ast.AsyncFor) -> None:
        iters = [node.iter]
        if (
            isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id in ("zip", "enumerate", "reversed")
        ):
            iters = list(node.iter.args)
        boxed = [c.id for c in iters if isinstance(c, ast.Name) and c.id in self.arrays]
        if boxed:
            self.report(
                node,
                "RPR205",
                f"per-element Python for over ndarray {boxed[0]!r}; "
                "each element is boxed -- vectorize or justify with noqa",
            )
        # The iterable is evaluated once, *outside* the loop body.
        self.visit(node.iter)
        if isinstance(node.target, ast.Name):
            self.arrays.pop(node.target.id, None)
        self._in_loop(*node.body, *node.orelse)

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        # A while test re-evaluates every iteration: it is loop body.
        self._in_loop(node.test, *node.body, *node.orelse)

    def _in_loop(self, *nodes: ast.AST) -> None:
        self.loop_depth += 1
        for node in nodes:
            self.visit(node)
        self.loop_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        tail = self._numpy_tail(node.func)
        if tail in _ALLOC_FNS and _explicit_dtype(node, tail) is None:
            self.report(
                node,
                "RPR201",
                f"np.{tail}(...) without explicit dtype=; slab allocations must pin their dtype",
            )
        if tail in _CONCAT_FNS and self.loop_depth:
            self.report(
                node,
                "RPR204",
                f"np.{tail}(...) inside a loop copies the accumulated "
                "array every iteration; preallocate or batch instead",
            )
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "astype" and self.loop_depth:
                self.report(
                    node,
                    "RPR202",
                    ".astype(...) inside a loop allocates a converted copy "
                    "per iteration; hoist the conversion out of the loop",
                )
            if func.attr == "tolist":
                self.report(
                    node,
                    "RPR205",
                    ".tolist() boxes every element into a Python object; "
                    "keep slab data in ndarrays (noqa when host handoff is the point)",
                )
            if (
                func.attr in _INPLACE_METHODS
                and isinstance(func.value, ast.Subscript)
                and self._is_fancy_index(func.value.slice)
            ):
                self.report(
                    node,
                    "RPR203",
                    f".{func.attr}() on a fancy-indexed expression mutates a "
                    "temporary copy, not the slab",
                )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        left, right = self._dtype(node.left), self._dtype(node.right)
        if (
            isinstance(node.op, _ARITH_OPS)
            and left is not None
            and right is not None
            and left != right
            and "bool" not in (left, right)
        ):
            self.report(
                node,
                "RPR206",
                f"arithmetic between arrays of dtype {left!r} and "
                f"{right!r} silently promotes; convert explicitly",
            )
        self.generic_visit(node)

    def _infer(self, value: ast.expr) -> tuple[bool, str | None]:
        """``(is_array, dtype)`` for an assigned value, best-effort."""
        if isinstance(value, ast.Name):
            return value.id in self.arrays, self.arrays.get(value.id)
        if isinstance(value, ast.Call):
            tail = self._numpy_tail(value.func)
            if tail in _ARRAY_PRODUCERS:
                explicit = _explicit_dtype(value, tail)
                if explicit is not None:
                    return True, _dtype_str(explicit)
                if tail in _INT_PRODUCERS:
                    return True, "int64"
                if tail in _INHERIT_FNS and value.args:
                    return True, self._dtype(value.args[0])
                return True, None
            if isinstance(value.func, ast.Attribute) and value.func.attr == "astype":
                dtype = _dtype_str(value.args[0]) if value.args else None
                return True, dtype or _dtype_str(_keyword(value, "dtype"))
            return False, None
        if isinstance(value, ast.Subscript):
            return self._tracked(value.value), self._dtype(value.value)
        if isinstance(value, ast.Compare):
            operands = (value.left, *value.comparators)
            return (True, "bool") if any(map(self._tracked, operands)) else (False, None)
        if isinstance(value, ast.UnaryOp):
            return self._infer(value.operand)
        if isinstance(value, ast.BinOp):
            larr, ldt = self._infer(value.left)
            rarr, rdt = self._infer(value.right)
            return larr or rarr, ldt if (larr or rarr) and ldt == rdt else None
        return False, None

    def _check_chained_store(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Subscript)
            and self._is_fancy_index(target.value.slice)
        ):
            self.report(
                target,
                "RPR203",
                "store through a fancy-indexed subscript writes into a "
                "temporary copy; index the base array once with combined indices",
            )

    def _assign(self, target: ast.expr, value: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            is_array, dtype = self._infer(value) if value is not None else (False, None)
            if is_array:
                self.arrays[target.id] = dtype
            else:
                self.arrays.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Tuple unpack: a numpy source marks every Name an array.
            from_numpy = isinstance(value, ast.Call) and self._numpy_tail(value.func) is not None
            for elt in target.elts:
                if isinstance(elt, ast.Name) and from_numpy:
                    self.arrays[elt.id] = None
                elif isinstance(elt, ast.Name):
                    self.arrays.pop(elt.id, None)
                else:
                    self._assign(elt, None)
        else:
            self._check_chained_store(target)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._assign(target, node.value)
            if not isinstance(target, ast.Name):
                self.visit(target)  # subscript targets: walk the index expressions

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._assign(node.target, node.value)
        if not isinstance(node.target, ast.Name):
            self.visit(node.target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if not isinstance(node.target, ast.Name):
            self._check_chained_store(node.target)
            self.visit(node.target)


def _slab_dataflow(mod: Module) -> list[Finding]:
    flow = _SlabFlow(mod)
    flow.visit(mod.tree)
    return flow.findings


def _is_delegation_guard(node: ast.AST) -> bool:
    """``if <instrumented>: return <reference twin>(...)`` -- the one place
    a fast kernel may look at ambient state."""
    return (
        isinstance(node, ast.If)
        and len(node.body) == 1
        and isinstance(node.body[0], ast.Return)
        and not node.orelse
    )


def _contract_effects(mod: Module) -> Iterator[Finding]:
    """RPR207/RPR208: a ``@slab_contract`` kernel, and the helpers nested in
    it, stay pure over their slabs: no effect surface outside a delegation
    guard, no ``global``/``nonlocal``, no host I/O."""
    for fn in mod.functions:
        if _decorator(fn, "slab_contract") is None:
            continue
        guarded = {id(n) for g in ast.walk(fn) if _is_delegation_guard(g) for n in ast.walk(g)}
        stack: list[ast.AST] = [fn]
        while stack:
            node = stack.pop()
            stack.extend(
                child
                for child in ast.iter_child_nodes(node)
                if not (isinstance(child, _FUNCS) and _decorator(child, "slab_contract"))
            )
            surface = None
            if isinstance(node, ast.Call) and _name_of(node.func) in _EFFECT_NAMES:
                surface = _name_of(node.func)
            elif isinstance(node, ast.Attribute) and node.attr in _EFFECT_ATTRS:
                surface = node.attr
            if surface is not None and id(node) not in guarded:
                yield mod.at(
                    node,
                    "RPR207",
                    f"@slab_contract kernel {fn.name!r} touches effect "
                    f"surface {surface!r} outside a delegation guard; fast kernels "
                    "must be pure over their slabs",
                )
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                word = "global" if isinstance(node, ast.Global) else "nonlocal"
                harm = "write module state" if word == "global" else "capture mutable closure state"
                yield mod.at(
                    node,
                    "RPR208",
                    f"{word} statement inside @slab_contract kernel {fn.name!r}; "
                    f"kernels must not {harm}",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _HOST_EFFECT_CALLS
            ):
                yield mod.at(
                    node,
                    "RPR208",
                    f"{node.func.id}() inside @slab_contract kernel {fn.name!r}; "
                    "slab kernels must be free of host I/O effects",
                )


def _contract_presence(mod: Module) -> Iterator[Finding]:
    """RPR209: public ``*_fast(tree, ...)`` kernels and public ``*Pool``
    methods carry ``@slab_contract`` (the RPR101 of the slab layer)."""
    for stmt in mod.tree.body:
        if isinstance(stmt, _FUNCS):
            if (
                _public_on_tree(stmt)
                and stmt.name.endswith("_fast")
                and _decorator(stmt, "slab_contract") is None
            ):
                yield mod.at(
                    stmt,
                    "RPR209",
                    f"fast kernel {stmt.name}() declares no @slab_contract "
                    "(dtype/write contract required on *_fast kernels)",
                )
        elif isinstance(stmt, ast.ClassDef) and stmt.name.endswith("Pool"):
            for member in stmt.body:
                if (
                    isinstance(member, _FUNCS)
                    and not member.name.startswith("_")
                    and not any(_name_of(d) in _PROPERTY_LIKE for d in member.decorator_list)
                    and _decorator(member, "slab_contract") is None
                ):
                    yield mod.at(
                        member,
                        "RPR209",
                        f"{stmt.name}.{member.name}() declares no "
                        "@slab_contract (required on public pool methods)",
                    )


# ---------------------------------------------------------------------------
# parsafe: parallel safety of the threaded algorithms
# ---------------------------------------------------------------------------
#
# A *worker* is a ``threading.Thread(target=...)`` or a function carrying
# ``@owns`` (the decorator self-declares it parallel).  Writes under a
# ``with <lock>:`` block are exempt from RPR302/308.


def _thread_barrier(mod: Module) -> Iterator[Finding]:
    """RPR305: a function that starts threads joins them."""
    for fn in mod.functions:
        started = joined = False
        for node in mod.own(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                started |= node.func.attr == "start" and not node.args
                joined |= node.func.attr == "join"
        if started and not joined:
            yield mod.at(
                fn,
                "RPR305",
                f"{fn.name}() starts threads but never joins them; the "
                "dependent phase races the workers it spawned -- add a "
                ".join() barrier",
            )


def _owns_targets(fn: _Fn) -> set[str] | None:
    """Declared slab names of ``@owns`` on ``fn``; None if absent."""
    dec = _decorator(fn, "owns")
    if dec is None:
        return None
    specs = dec.args if isinstance(dec, ast.Call) else []
    return {
        arg.value.split("[", 1)[0].strip()
        for arg in specs
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }


def _is_lock(expr: ast.expr) -> bool:
    """A ``with`` context named as a lock: ``lock``, ``*_lock``, ``self._lock``."""
    name = _name_of(expr.func if isinstance(expr, ast.Call) else expr)
    token = (name or "").lstrip("_").lower()
    return token == "lock" or token.endswith("_lock")


class _WorkerScan:
    """RPR302/308 over one worker function's own body."""

    def __init__(self, mod: Module, fn: _Fn) -> None:
        self.mod = mod
        self.fn = fn
        self.locals = mod.locals(fn)
        self.owns = _owns_targets(fn)
        self.findings: list[Finding] = []
        #: Shared slab names plain-written without any @owns (RPR308).
        self.undeclared: set[str] = set()

    def run(self) -> list[Finding]:
        for stmt in self.fn.body:
            self._stmt(stmt, locked=False)
        if self.owns is None and self.undeclared:
            self.report(
                self.fn,
                "RPR308",
                f"parallel worker {self.fn.name!r} writes shared slab(s) "
                f"{', '.join(sorted(self.undeclared))} but declares no @owns ownership "
                'partition; annotate with @owns("name[lo:hi]", ...)',
            )
        return self.findings

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(self.mod.at(node, code, message))

    def _shared_base(self, expr: ast.expr) -> str | None:
        """The shared base name of ``name[...]``, else None."""
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and expr.value.id not in self.locals
        ):
            return expr.value.id
        return None

    def _write(self, node: ast.AST, base: str, locked: bool) -> None:
        if locked:
            return
        if self.owns is None:
            self.undeclared.add(base)
        elif base not in self.owns:
            self.report(
                node,
                "RPR302",
                f"worker {self.fn.name!r} writes shared slab {base!r} which "
                f"is not in its @owns declaration ({sorted(self.owns)}); "
                "declare the partition or stop writing it",
            )

    def _stmt(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, _SCOPES):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._expr(item.context_expr, locked)
            inner = locked or any(_is_lock(item.context_expr) for item in node.items)
            for stmt in node.body:
                self._stmt(stmt, inner)
            return
        for target in _store_targets(node):
            base = self._shared_base(target)
            if base is not None:
                self._write(node, base, locked)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, locked)
            else:
                self._stmt(child, locked)

    def _expr(self, expr: ast.expr, locked: bool) -> None:
        """``out=`` slab writes by the calls in ``expr``."""
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            for out in (kw.value for kw in node.keywords if kw.arg == "out"):
                base = self._shared_base(out)
                if base is None and isinstance(out, ast.Name) and out.id not in self.locals:
                    base = out.id
                if base is not None:
                    self._write(node, base, locked)


def _workers(mod: Module) -> Iterator[Finding]:
    """RPR302/308: the body of every thread target and ``@owns`` function."""
    targets = {
        kw.value.id
        for call, dotted in mod.calls
        if (dotted or _name_of(call.func) or "").rsplit(".", 1)[-1] == "Thread"
        for kw in call.keywords
        if kw.arg == "target" and isinstance(kw.value, ast.Name)
    }
    for fn in mod.functions:
        if fn.name in targets or _decorator(fn, "owns") is not None:
            yield from _WorkerScan(mod, fn).run()


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_PACKAGE = (".",)

_SLAB_TARGETS = (
    "core/fast.py",
    "core/fast_contraction.py",
    "core/fast_merge.py",
    "core/rctt.py",
    "contraction/fast.py",
    "structures/heap_pool.py",
    "bench/kernels.py",
    "trees/boruvka_fast.py",
    "io/edgefile.py",
)

#: Every static rule; ``docs/API.md`` documents each code.
RULES: tuple[Rule, ...] = (
    Rule("RPR001", "lint", _PACKAGE, _determinism),
    Rule("RPR002", "lint", _PACKAGE, _determinism),
    Rule("RPR003", "lint", _PACKAGE, _tracker_threading),
    Rule("RPR004", "lint", _PACKAGE, _tree_mutation),
    Rule("RPR005", "lint", _PACKAGE, _closure_stores),
    Rule("RPR101", "lint", _PACKAGE, _undeclared_algorithm),
    Rule("RPR102", "lint", _PACKAGE, _sequential_loop),
    Rule("RPR103", "lint", _PACKAGE, _non_shrinking_recursion),
    Rule("RPR104", "lint", _PACKAGE, _bound_grammar),
    Rule("RPR105", "lint", _PACKAGE, _loopy_helper),
    Rule("RPR201", "slabs", _SLAB_TARGETS, _slab_dataflow),
    Rule("RPR202", "slabs", _SLAB_TARGETS, _slab_dataflow),
    Rule("RPR203", "slabs", _SLAB_TARGETS, _slab_dataflow),
    Rule("RPR204", "slabs", _SLAB_TARGETS, _slab_dataflow),
    Rule("RPR205", "slabs", _SLAB_TARGETS, _slab_dataflow),
    Rule("RPR206", "slabs", _SLAB_TARGETS, _slab_dataflow),
    Rule("RPR207", "slabs", _SLAB_TARGETS, _contract_effects),
    Rule("RPR208", "slabs", _SLAB_TARGETS, _contract_effects),
    Rule("RPR209", "slabs", _SLAB_TARGETS, _contract_presence),
    Rule("RPR302", "parsafe", _PACKAGE, _workers),
    Rule("RPR305", "parsafe", _PACKAGE, _thread_barrier),
    Rule("RPR308", "parsafe", _PACKAGE, _workers),
)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

_CODE = r"[A-Z]+[0-9]+"
_CODES = rf"{_CODE}(?:[\s,]+{_CODE})*"
#: ``(?!-)`` keeps a ``# noqa-module:`` directive from reading as a bare noqa.
_NOQA_RE = re.compile(rf"#\s*noqa(?!-)(?::\s*(?P<codes>{_CODES}))?", re.IGNORECASE)
_NOQA_MODULE_RE = re.compile(rf"#\s*noqa-module:\s*(?P<codes>{_CODES})", re.IGNORECASE)

_NOT_CODE_TOKENS = {
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _codes(text: str) -> set[str]:
    return {code.upper() for code in re.findall(_CODE, text, re.IGNORECASE)}


def _suppressions(source: str) -> tuple[dict[int, set[str] | None], set[str]]:
    """``(line -> codes a noqa suppresses there, None = all; module codes)``."""
    lines: dict[int, set[str] | None] = {}
    module: set[str] = set()

    def add(line: int, codes: set[str] | None) -> None:
        prev = lines.get(line, set())
        lines[line] = None if prev is None or codes is None else prev | codes

    start: int | None = None  # first line of the open logical line
    end = 0
    pending: list[set[str] | None] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                if m := _NOQA_MODULE_RE.search(tok.string):
                    module |= _codes(m["codes"])
                if m := _NOQA_RE.search(tok.string):
                    codes = _codes(m["codes"]) if m["codes"] else None
                    if start is None:
                        add(tok.start[0], codes)  # standalone comment line
                    else:
                        pending.append(codes)
            elif tok.type == tokenize.NEWLINE:
                for codes in pending:
                    for line in range(start or 0, max(end, tok.start[0]) + 1):
                        add(line, codes)
                start, pending = None, []
            elif tok.type not in _NOT_CODE_TOKENS:
                start = tok.start[0] if start is None else start
                end = tok.end[0]
    except (tokenize.TokenError, IndentationError):
        pass
    return lines, module


def _position(finding: Finding) -> tuple[int, int, str]:
    return finding.line, finding.col, finding.code


def _analyze(source: str, path: str, rules: Sequence[Rule]) -> dict[str, list[Finding]]:
    """Surviving findings of ``rules`` on one source, per family."""
    family_of = {rule.code: rule.family for rule in rules}
    out: dict[str, list[Finding]] = {family: [] for family in family_of.values()}
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        error = Finding(
            path, exc.lineno or 0, exc.offset or 0, "RPR000", f"syntax error: {exc.msg}"
        )
        found = [(family, error) for family in out]
    else:
        mod = Module(path.replace("\\", "/"), tree)
        found = [
            (family_of[d.code], d)
            for check in dict.fromkeys(rule.check for rule in rules)
            for d in check(mod)
            if d.code in family_of
        ]
    if found:
        lines, module_codes = _suppressions(source)
        for family, d in found:
            waived = lines.get(d.line, set())
            if d.code not in module_codes and waived is not None and d.code not in waived:
                out[family].append(d)
    for findings in out.values():
        findings.sort(key=_position)
    return out


def analyze_source(
    source: str, path: str = "<string>", families: Iterable[str] = FAMILIES
) -> list[Finding]:
    """Surviving findings of the ``families``' rules on one source string."""
    selected = set(families)
    by_family = _analyze(source, path, [rule for rule in RULES if rule.family in selected])
    return sorted((d for found in by_family.values() for d in found), key=_position)


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).parent


def analyze(paths: Sequence[Path] | None, families: Iterable[str]) -> dict[str, list[Finding]]:
    """Findings per family over ``paths`` (each rule's default targets if None).

    Directories are swept for ``*.py`` recursively.  Each file is read and
    parsed once however many families sweep it.
    """
    selected = list(families)
    root = _package_root()
    rules_of: dict[Path, list[Rule]] = {}
    expanded: dict[tuple[Path, ...], list[Path]] = {}
    for rule in RULES:
        if rule.family not in selected:
            continue
        roots = tuple(paths or [root / t for t in rule.default_targets])
        if roots not in expanded:
            expanded[roots] = [
                f for p in roots for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])
            ]
        for f in expanded[roots]:
            rules_of.setdefault(f, []).append(rule)
    out: dict[str, list[Finding]] = {family: [] for family in selected}
    for f, rules in rules_of.items():
        for family, found in _analyze(f.read_text(encoding="utf-8"), str(f), rules).items():
            out[family].extend(found)
    return out
