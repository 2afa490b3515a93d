"""Ownership partitions for shared slabs: the ``@owns`` layer.

The two parallel kernels in this package follow the discipline the
GBBS/ParlayLib codebases enforce by convention: a worker may write only
its *own* contiguous partition ``slab[lo:hi]`` of a shared slab, and
distinct workers' partitions are disjoint.  That is exactly the
exclusivity argument of Lemma 4.1 restated over flat arrays -- and it is
invisible to Python.  ``@owns`` makes it a machine-readable declaration;
``paruf_sync``'s round task, a closure over the edge status slab, claims
one cell::

    @owns("status[cur:cur+1]")
    def task(): ...

so three independent verifiers can hold the kernel to it:

* the static analyzer (:mod:`repro.checkers.analyzer`, codes RPR302/RPR308)
  requires the annotation on shared-slab writers inside parallel regions;
* the shadow round-race detector receives each declared window through
  :func:`repro.checkers.access.record_slab_write`, so two same-round
  tasks whose declared partitions *overlap* raise a
  :class:`~repro.errors.RaceConditionError` even before any element-level
  write is observed;
* checked mode snapshots the slab regions *outside* the declared windows
  and raises :class:`~repro.errors.OwnershipError` if the call mutated
  any of them -- the out-of-partition write that breaks disjointness.

Window grammar
--------------
Each positional spec is a string of the form ``"name"``, ``"name[:]"``
(both meaning the whole slab), or ``"name[lo:hi]"`` where ``name`` is a
parameter or closure variable of the function holding an ndarray, and
each bound is an integer literal, a parameter/closure variable holding
an int optionally offset by a constant (``"status[cur:cur+1]"``), or
empty (``"name[lo:]"`` / ``"name[:hi]"``).

Checked vs. zero-cost mode
--------------------------
Mirrors :mod:`repro.checkers.contracts`: the decision is made at
decoration time.  When ``REPRO_OWNERSHIP_CHECKS`` is truthy the decorated
function is replaced by a validating wrapper; otherwise the decorator
attaches metadata only (``fn.__owns__`` plus an :data:`OWNS_REGISTRY`
entry, with eager name validation) and returns the function unchanged.
Tests build an explicit wrapper with :func:`checked_owns` regardless of
the mode.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from repro.checkers import access as _access
from repro.errors import OwnershipError

__all__ = [
    "WindowSpec",
    "OwnsDecl",
    "owns",
    "checked_owns",
    "ownership_enabled",
    "get_owns",
    "OWNS_REGISTRY",
    "ENV_FLAG",
]

#: Environment variable that switches decoration into checked mode.
ENV_FLAG = "REPRO_OWNERSHIP_CHECKS"

_TRUTHY = ("1", "true", "on", "yes")

_ENABLED = os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY

_SPEC_RE = re.compile(r"^(?P<target>[A-Za-z_][A-Za-z0-9_]*)(?:\[(?P<window>[^\]]*)\])?$")
_BOUND_RE = re.compile(
    r"^(?:-?\d+|(?P<base>[A-Za-z_][A-Za-z0-9_]*)(?:\s*(?P<sign>[+-])\s*(?P<off>\d+))?)$"
)


def ownership_enabled() -> bool:
    """Whether decoration currently installs checking wrappers."""
    return _ENABLED


@dataclass(frozen=True)
class WindowSpec:
    """One parsed ownership window ``target[lo:hi]``.

    ``lo``/``hi`` are ``None`` (unbounded), an ``int`` literal, or the
    name of a parameter/closure variable resolved at call time.
    """

    target: str
    lo: int | str | None
    hi: int | str | None

    def describe(self) -> str:
        lo = "" if self.lo is None else str(self.lo)
        hi = "" if self.hi is None else str(self.hi)
        return f"{self.target}[{lo}:{hi}]"

    def names(self) -> tuple[str, ...]:
        """Every variable name the spec references."""
        out = [self.target]
        for bound in (self.lo, self.hi):
            if isinstance(bound, str):
                match = _BOUND_RE.match(bound)
                base = match.group("base") if match is not None else None
                out.append(base if base is not None else bound)
        return tuple(out)


@dataclass(frozen=True)
class OwnsDecl:
    """The full ownership declaration attached to one function."""

    name: str  #: registry key, ``module.qualname``
    windows: tuple[WindowSpec, ...]

    def describe(self) -> str:
        return ", ".join(w.describe() for w in self.windows)


#: Central registry: ``module.qualname`` -> :class:`OwnsDecl`.
OWNS_REGISTRY: dict[str, OwnsDecl] = {}

_F = TypeVar("_F", bound=Callable[..., Any])


def _parse_spec(fn_name: str, spec: str) -> WindowSpec:
    match = _SPEC_RE.match(spec.strip())
    if match is None:
        raise OwnershipError(
            f"@owns on {fn_name}: malformed window spec {spec!r} "
            f"(expected 'name', 'name[:]', or 'name[lo:hi]')"
        )
    target = match.group("target")
    window = match.group("window")
    if window is None or window.strip() == ":":
        return WindowSpec(target, None, None)
    if ":" not in window:
        raise OwnershipError(
            f"@owns on {fn_name}: window spec {spec!r} must use slice "
            f"syntax (a bare index owns a single cell; write '[i:j]')"
        )
    lo_text, _, hi_text = window.partition(":")
    bounds: list[int | str | None] = []
    for text in (lo_text, hi_text):
        text = text.strip()
        if not text:
            bounds.append(None)
            continue
        if not _BOUND_RE.match(text):
            raise OwnershipError(
                f"@owns on {fn_name}: window bound {text!r} in {spec!r} is "
                f"not an integer literal, a variable name, or 'name+k'/'name-k'"
            )
        bounds.append(int(text) if re.match(r"^-?\d+$", text) else text)
    return WindowSpec(target, bounds[0], bounds[1])


def _closure_vars(fn: Callable[..., Any]) -> Mapping[str, Any]:
    """The resolved closure cells of ``fn`` (empty for plain functions)."""
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if code is None or closure is None:
        return {}
    out: dict[str, Any] = {}
    for name, cell in zip(code.co_freevars, closure):
        try:
            out[name] = cell.cell_contents
        except ValueError:  # pragma: no cover - unfilled cell
            continue
    return out


def _validate_names(fn: Callable[..., Any], decl: OwnsDecl) -> None:
    # Resolved from the code object, not inspect.signature: closures get
    # decorated per enclosing call, so this runs on warm paths.
    code = getattr(fn, "__code__", None)
    if code is None:
        params = set(inspect.signature(fn).parameters)
        free: set[str] = set()
    else:
        n_params = code.co_argcount + code.co_kwonlyargcount
        params = set(code.co_varnames[:n_params])
        free = set(code.co_freevars)
    for window in decl.windows:
        for name in window.names():
            if name not in params and name not in free:
                raise OwnershipError(
                    f"@owns on {decl.name} references {name!r} (in "
                    f"{window.describe()!r}) but the function has neither a "
                    f"parameter nor a closure variable of that name"
                )


def _resolve_bound(
    fn_name: str, spec: WindowSpec, bound: int | str | None,
    namespace: Mapping[str, Any], default: int,
) -> int:
    if bound is None:
        return default
    if isinstance(bound, int):
        return bound
    match = _BOUND_RE.match(bound)
    base = match.group("base") if match is not None else None
    if base is None:  # pragma: no cover - rejected at parse time
        raise OwnershipError(f"{fn_name}: unresolvable window bound {bound!r}")
    value = namespace.get(base)
    if not isinstance(value, (int, np.integer)):
        raise OwnershipError(
            f"{fn_name}: window bound {bound!r} in {spec.describe()!r} did "
            f"not resolve to an integer (got {type(value).__name__})"
        )
    offset = 0
    assert match is not None
    if match.group("off"):
        offset = int(match.group("off"))
        if match.group("sign") == "-":
            offset = -offset
    return int(value) + offset


def _make_checked(fn: Callable[..., Any], decl: OwnsDecl) -> Callable[..., Any]:
    _validate_names(fn, decl)
    sig = inspect.signature(fn)
    fn_label = decl.name

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        namespace: dict[str, Any] = dict(_closure_vars(fn))
        namespace.update(bound.arguments)
        snapshots: list[tuple[WindowSpec, np.ndarray, int, int, np.ndarray, np.ndarray]] = []
        for window in decl.windows:
            value = namespace.get(window.target)
            if value is None:
                continue
            if not isinstance(value, np.ndarray) or value.ndim == 0:
                raise OwnershipError(
                    f"{fn_label}: window {window.describe()!r} resolved to "
                    f"{type(value).__name__}, not an ndarray slab"
                )
            n = int(value.shape[0])
            lo = max(0, _resolve_bound(fn_label, window, window.lo, namespace, 0))
            hi = min(n, _resolve_bound(fn_label, window, window.hi, namespace, n))
            if hi < lo:
                raise OwnershipError(
                    f"{fn_label}: window {window.describe()!r} resolved to the "
                    f"inverted range [{lo}, {hi})"
                )
            # Report the declared partition to the shadow race detector:
            # overlapping same-round partitions are a race by themselves.
            _access.record_slab_write(value, lo, hi)
            snapshots.append((window, value, lo, hi, value[:lo].copy(), value[hi:].copy()))
        result = fn(*args, **kwargs)
        for window, value, lo, hi, before_lo, before_hi in snapshots:
            if not (
                np.array_equal(value[:lo], before_lo) and np.array_equal(value[hi:], before_hi)
            ):
                raise OwnershipError(
                    f"{fn_label}: wrote {window.target!r} outside its declared "
                    f"ownership window {window.target}[{lo}:{hi}] -- worker "
                    f"partitions must be disjoint (Lemma 4.1 over slabs)"
                )
        return result

    wrapper.__owns_checked__ = True  # type: ignore[attr-defined]
    return wrapper


def owns(*specs: str) -> Callable[[_F], _F]:
    """Declare the write-ownership partition of a parallel kernel.

    Each ``spec`` is ``"name"``, ``"name[:]"``, or ``"name[lo:hi]"`` (see
    the module docstring for the grammar).  In zero-cost mode the
    decorator attaches ``fn.__owns__`` metadata, registers the declaration
    in :data:`OWNS_REGISTRY`, eagerly validates every referenced name, and
    returns the function unchanged.  In checked mode
    (``REPRO_OWNERSHIP_CHECKS=1``) calls additionally report the resolved
    windows to the shadow race detector and verify that no slab cell
    outside a declared window was mutated.
    """
    if not specs:
        raise OwnershipError("@owns requires at least one window spec")

    def decorate(fn: _F) -> _F:
        name = f"{fn.__module__}.{fn.__qualname__}"
        decl = OwnsDecl(name, tuple(_parse_spec(name, spec) for spec in specs))
        fn.__owns__ = decl  # type: ignore[attr-defined]
        OWNS_REGISTRY[name] = decl
        if _ENABLED:
            return _make_checked(fn, decl)  # type: ignore[return-value]
        _validate_names(fn, decl)
        return fn

    return decorate


def checked_owns(fn: Callable[..., Any]) -> Callable[..., Any]:
    """A validating wrapper for ``fn``, regardless of the global mode.

    ``fn`` must carry ``__owns__`` (i.e. be decorated); a function that is
    already a checking wrapper is returned as-is.
    """
    if getattr(fn, "__owns_checked__", False):
        return fn
    decl = getattr(fn, "__owns__", None)
    if decl is None:
        raise OwnershipError(
            f"{getattr(fn, '__qualname__', fn)!r} has no @owns declaration to check"
        )
    return _make_checked(fn, decl)


def get_owns(target: Callable[..., Any] | str) -> OwnsDecl | None:
    """Look up the declared ownership of a function (or registry key)."""
    if isinstance(target, str):
        return OWNS_REGISTRY.get(target)
    return getattr(target, "__owns__", None)
