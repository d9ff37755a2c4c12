"""Runtime invariant contracts.

kyotolint's static rules (:mod:`repro.lint`) keep the *source* honest;
this module keeps the *running simulation* honest.  It lives outside the
linter package, so simulation code imports no dev tooling.

Components declare invariants — predicates over their own state that
must hold after every mutation — either with the :func:`invariant`
method decorator or by calling an :class:`InvariantChecker` inline at
mutation sites.

Checking is deliberately cheap to disable.  :class:`InvariantChecker`
consults :func:`contracts_enabled` before evaluating anything;
:func:`check` and the :func:`invariant` decorator test their condition
first and consult it only when the condition fails.  It resolves to

* ``KYOTO_CONTRACTS`` in the environment when set: ``0``, ``false``,
  ``no``, ``off`` (any case) or empty force off, anything else forces on;
  otherwise
* **on** under pytest (so every test run doubles as an invariant sweep),
* **off** in production runs, where the engine's own validation already
  rejects malformed inputs and the per-tick predicate cost matters.

A violated invariant raises :class:`ContractViolation` — loudly, with the
invariant name and a detail string — rather than corrupting results
silently, which is exactly the failure mode (wrong units, negative debits,
occupancy oversubscription, time running backwards) that would poison the
paper's headline numbers.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

#: Environment variable that force-enables ("1") or force-disables ("0",
#: "false", "no", "off", in any case) contract checking regardless of context.
ENV_VAR = "KYOTO_CONTRACTS"


class ContractViolation(AssertionError):
    """A runtime invariant did not hold."""

    def __init__(self, name: str, detail: str = "") -> None:
        self.name = name
        self.detail = detail
        message = f"invariant '{name}' violated"
        if detail:
            message += f": {detail}"
        super().__init__(message)


_forced: Optional[bool] = None


def set_contracts_enabled(enabled: Optional[bool]) -> None:
    """Programmatic override: True/False force, None returns to default."""
    global _forced
    _forced = enabled


def contracts_enabled() -> bool:
    """Whether invariant predicates should be evaluated right now."""
    if _forced is not None:
        return _forced
    env = os.environ.get(ENV_VAR)
    if env is not None:
        return env.strip().lower() not in ("0", "false", "no", "off", "")
    # Default: on under pytest, off otherwise.
    return "pytest" in sys.modules


def check(condition: bool, name: str, detail: str = "") -> None:
    """Module-level one-shot check (for call sites without a checker)."""
    # The condition is already evaluated (it is an argument), so test it
    # first: the enabled lookup reads the environment and is the expensive
    # half on hot paths, and it only matters when the invariant failed.
    if not condition and contracts_enabled():
        raise ContractViolation(name, detail)


class InvariantChecker:
    """Named invariant bookkeeping for one component.

    Components create one checker, then call :meth:`require` at mutation
    sites.  The checker counts evaluations per invariant so tests (and
    Fig-12-style overhead studies) can assert the contracts actually ran.
    """

    def __init__(self, owner: str = "component") -> None:
        self.owner = owner
        self.evaluations: Dict[str, int] = {}
        self.violations: List[Tuple[str, str]] = []

    def require(self, condition: bool, name: str, detail: str = "") -> None:
        """Raise :class:`ContractViolation` if ``condition`` is false."""
        if not contracts_enabled():
            return
        self.evaluations[name] = self.evaluations.get(name, 0) + 1
        if not condition:
            self.violations.append((name, detail))
            raise ContractViolation(f"{self.owner}.{name}", detail)

    def evaluated(self, name: str) -> int:
        """How many times invariant ``name`` has been evaluated."""
        return self.evaluations.get(name, 0)


def invariant(
    predicate: Callable[..., bool], name: Optional[str] = None
) -> Callable:
    """Method decorator: ``predicate(self)`` must hold after the call.

    ::

        class Account:
            @invariant(lambda self: self.quota <= self.quota_max,
                       name="quota-cap")
            def refill(self, ticks):
                ...

    The predicate runs *after* the wrapped method returns (contracts are
    postconditions on the object's state).  It runs on every call, also
    with contracts off; :func:`contracts_enabled` is consulted only when
    it fails, and decides whether the failure raises.  So the
    production-path overhead is the predicate itself: it must be pure
    (no side effects) and cheap.
    """

    def decorate(method: Callable) -> Callable:
        contract_name = name or f"{method.__qualname__}.post"

        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            # Predicate first, as in check(): the enabled lookup reads the
            # environment and only matters once the invariant has failed.
            if not predicate(self) and contracts_enabled():
                raise ContractViolation(
                    contract_name, f"state after {method.__name__}()"
                )
            return result

        setattr(wrapper, "__kyoto_invariant__", contract_name)
        return wrapper

    return decorate
