"""Runtime slab contracts: the ``@slab_contract`` layer.

The flat-array backends (``HeapPool``, ``tree_contraction_fast``,
``sld_merge_fast``, ``rctt``) live or die on properties
Python cannot see: slab dtypes (an accidental int64 promotion doubles
memory), contiguity (a strided view silently de-vectorizes kernels), and
write footprints (a kernel scribbling on an input slab breaks the
shared-memory story of ROADMAP item 4).  ``@slab_contract`` lets each
kernel *declare* those properties, the same way ``@cost_bound`` declares
asymptotic cost, so two independent verifiers can hold it to them:

* the static analyzer (:mod:`repro.checkers.analyzer`, code RPR209) requires the
  annotation on every fast kernel and pool method, mirroring RPR101;
* this module verifies the declaration at run time -- in checked mode.

Checked vs. zero-cost mode
--------------------------
The decision is made **at decoration time** (import): when the
environment variable ``REPRO_SLAB_CONTRACTS`` is truthy (``1``/``true``/
``on``/``yes``), decorated functions are replaced by validating wrappers;
otherwise the decorator only attaches metadata (``fn.__slab_contract__``,
plus a :data:`REGISTRY` entry) and returns the function object
*unchanged* -- genuinely zero call-time cost, which matters because
``HeapPool.meld``/``filter_and_insert`` sit in per-vertex hot loops.
Tests and tools that want a checking wrapper regardless of the mode build
one explicitly with :func:`checked`.  CI enables the variable for the
fuzz job, so every contract is exercised against adversarial inputs.

What checked mode verifies
--------------------------
* ``dtypes={"name": "int64", ...}`` -- the named argument's
  ``ndarray.dtype`` (or ``array.array`` typecode, or scalar kind) must
  match one of the accepted strings.  Dotted names (``"tree.edges"``,
  ``"self.key"``) resolve attributes on the bound argument, so contracts
  can reach the slabs inside a :class:`~repro.trees.wtree.WeightedTree`
  or a :class:`~repro.structures.heap_pool.HeapPool`.
* ``contiguous=("name", ...)`` -- the named ndarray must be
  C-contiguous.
* ``writes=("name", ...)`` -- the declared mutation footprint.  Every
  *other* declared ndarray is temporarily made read-only for the duration
  of the call (and restored after), so an undeclared write raises from
  the exact offending statement.
* ``returns="int64"`` -- dtype of an ndarray result.

``None`` argument values are skipped (optional parameters), as are
declared names whose argument was not supplied.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from repro.errors import SlabContractError

__all__ = [
    "SlabContract",
    "slab_contract",
    "checked",
    "contracts_enabled",
    "get_contract",
    "REGISTRY",
    "ENV_FLAG",
]

#: Environment variable that switches decoration into checked mode.
ENV_FLAG = "REPRO_SLAB_CONTRACTS"

_TRUTHY = ("1", "true", "on", "yes")

_ENABLED = os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY

_MISSING = object()


def contracts_enabled() -> bool:
    """Whether decoration currently installs checking wrappers."""
    return _ENABLED


def _normalize(spec: str | tuple[str, ...] | list[str]) -> tuple[str, ...]:
    if isinstance(spec, str):
        return (spec,)
    return tuple(spec)


@dataclass(frozen=True)
class SlabContract:
    """One declared slab contract attached to a function."""

    name: str  #: registry key, ``module.qualname``
    dtypes: Mapping[str, tuple[str, ...]]
    contiguous: tuple[str, ...]
    writes: tuple[str, ...]
    returns: tuple[str, ...] | None

    def declared_names(self) -> tuple[str, ...]:
        """Every argument name the contract mentions (dotted included)."""
        seen: dict[str, None] = {}
        for name in (*self.dtypes, *self.contiguous, *self.writes):
            seen.setdefault(name, None)
        return tuple(seen)

    def describe(self) -> str:
        parts = []
        if self.dtypes:
            decl = ", ".join(f"{k}:{'|'.join(v)}" for k, v in self.dtypes.items())
            parts.append(f"dtypes[{decl}]")
        if self.contiguous:
            parts.append(f"contiguous({', '.join(self.contiguous)})")
        if self.writes:
            parts.append(f"writes({', '.join(self.writes)})")
        if self.returns is not None:
            parts.append(f"returns {'|'.join(self.returns)}")
        return "; ".join(parts) if parts else "(empty contract)"


#: Central registry: ``module.qualname`` -> :class:`SlabContract`.
REGISTRY: dict[str, SlabContract] = {}

_F = TypeVar("_F", bound=Callable[..., Any])


def _value_kind(value: Any) -> str:
    """The dtype/typecode string a runtime value is matched under."""
    if isinstance(value, np.ndarray):
        return str(value.dtype.name)
    if isinstance(value, array):
        return str(value.typecode)
    if isinstance(value, (bool, np.bool_)):
        return "bool"
    if isinstance(value, (int, np.integer)):
        return "int"
    if isinstance(value, (float, np.floating)):
        return "float"
    return type(value).__name__


def _resolve(name: str, arguments: Mapping[str, Any]) -> Any:
    """Resolve a (possibly dotted) declared name against bound arguments."""
    head, _, rest = name.partition(".")
    if head not in arguments:
        return _MISSING
    value = arguments[head]
    if rest:
        for part in rest.split("."):
            try:
                value = getattr(value, part)
            except AttributeError:
                raise SlabContractError(
                    f"slab contract names {name!r} but {head!r} has no "
                    f"attribute path {rest!r}"
                ) from None
    return value


def _check_dtype(fn_name: str, name: str, value: Any, accepted: tuple[str, ...]) -> None:
    if value is None:
        return
    got = _value_kind(value)
    if got not in accepted:
        raise SlabContractError(
            f"{fn_name}: argument {name!r} has dtype {got!r}, contract "
            f"accepts {sorted(accepted)}"
        )


def _make_checked(fn: Callable[..., Any], contract: SlabContract) -> Callable[..., Any]:
    sig = inspect.signature(fn)
    params = set(sig.parameters)
    for declared in contract.declared_names():
        head = declared.partition(".")[0]
        if head not in params:
            raise SlabContractError(
                f"@slab_contract on {contract.name} names {declared!r} but the "
                f"function has no parameter {head!r}"
            )
    fn_label = contract.name

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = bound.arguments
        resolved: dict[str, Any] = {}
        for declared in contract.declared_names():
            value = _resolve(declared, arguments)
            if value is not _MISSING:
                resolved[declared] = value
        for declared, accepted in contract.dtypes.items():
            if declared in resolved:
                _check_dtype(fn_label, declared, resolved[declared], accepted)
        for declared in contract.contiguous:
            value = resolved.get(declared)
            if isinstance(value, np.ndarray) and not value.flags["C_CONTIGUOUS"]:
                raise SlabContractError(
                    f"{fn_label}: argument {declared!r} must be C-contiguous, "
                    f"got strides {value.strides}"
                )
        # Lock every declared read-only ndarray for the duration of the
        # call: an undeclared write raises from the offending statement.
        write_arrays = [
            resolved[w] for w in contract.writes
            if isinstance(resolved.get(w), np.ndarray)
        ]
        locked: list[np.ndarray] = []
        for declared, value in resolved.items():
            if (
                declared in contract.writes
                or not isinstance(value, np.ndarray)
                or not value.flags.writeable
                or any(id(value) == id(done) for done in locked)
                or any(np.may_share_memory(value, w) for w in write_arrays)
            ):
                continue
            value.flags.writeable = False
            locked.append(value)
        try:
            result = fn(*args, **kwargs)
        finally:
            for value in locked:
                value.flags.writeable = True
        if contract.returns is not None and isinstance(result, np.ndarray):
            _check_dtype(fn_label, "<return>", result, contract.returns)
        return result

    wrapper.__slab_contract_checked__ = True  # type: ignore[attr-defined]
    return wrapper


def slab_contract(
    *,
    dtypes: Mapping[str, str | tuple[str, ...] | list[str]] | None = None,
    contiguous: Iterable[str] = (),
    writes: Iterable[str] = (),
    returns: str | tuple[str, ...] | list[str] | None = None,
) -> Callable[[_F], _F]:
    """Declare the slab discipline of the decorated kernel.

    Parameters
    ----------
    dtypes:
        Mapping of (possibly dotted) argument names to accepted dtype
        strings -- ndarray ``dtype.name``\\ s (``"int64"``), ``array``
        typecodes (``"i"``), or the scalar kinds ``"int"``/``"float"``/
        ``"bool"``.
    contiguous:
        Names whose ndarray values must be C-contiguous.
    writes:
        The declared mutation footprint; every other declared ndarray is
        locked read-only during a checked call.
    returns:
        Accepted dtype(s) of an ndarray result.

    In zero-cost mode the decorator attaches metadata only and returns the
    function unchanged; see the module docstring for the mode switch.
    """
    normalized_dtypes: dict[str, tuple[str, ...]] = {
        key: _normalize(value) for key, value in (dtypes or {}).items()
    }
    contract_template = (
        normalized_dtypes,
        tuple(contiguous),
        tuple(writes),
        _normalize(returns) if returns is not None else None,
    )

    def decorate(fn: _F) -> _F:
        name = f"{fn.__module__}.{fn.__qualname__}"
        contract = SlabContract(name, *contract_template)
        fn.__slab_contract__ = contract  # type: ignore[attr-defined]
        REGISTRY[name] = contract
        if _ENABLED:
            wrapped = _make_checked(fn, contract)
            return wrapped  # type: ignore[return-value]
        # Validate declared names eagerly even in zero-cost mode: a typo
        # in a contract must fail at import, like a malformed @cost_bound.
        params = set(inspect.signature(fn).parameters)
        for declared in contract.declared_names():
            if declared.partition(".")[0] not in params:
                raise SlabContractError(
                    f"@slab_contract on {name} names {declared!r} but the "
                    f"function has no parameter {declared.partition('.')[0]!r}"
                )
        return fn

    return decorate


def checked(fn: Callable[..., Any]) -> Callable[..., Any]:
    """A validating wrapper for ``fn``, regardless of the global mode.

    ``fn`` must carry ``__slab_contract__`` (i.e. be decorated); a
    function that is already a checking wrapper is returned as-is.
    """
    if getattr(fn, "__slab_contract_checked__", False):
        return fn
    contract = getattr(fn, "__slab_contract__", None)
    if contract is None:
        raise SlabContractError(
            f"{getattr(fn, '__qualname__', fn)!r} has no @slab_contract to check"
        )
    return _make_checked(fn, contract)


def get_contract(target: Callable[..., Any] | str) -> SlabContract | None:
    """Look up the declared contract of a function (or registry key)."""
    if isinstance(target, str):
        return REGISTRY.get(target)
    return getattr(target, "__slab_contract__", None)
