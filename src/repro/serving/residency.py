"""Memory-budgeted residency for a multi-tenant model fleet.

A dozen resident PCNN variants each pin compiled plans, arena scratch
and derived GEMM operands — the working set that makes steady-state
serving fast and that, unmanaged, blows the box's memory long before
the weights do. :class:`ResidencyManager` owns that trade. Every tenant
is in one of three states:

- ``resident`` — fully warm: plans, arenas and derived GEMM state live.
- ``demoted`` — workspaces dropped (plan cache + every thread's arena);
  weights and derived operands stay, so the next request re-plans and
  re-allocates but never re-prepares. A warm miss, not a cold start.
- ``evicted`` — derived op state dropped too (GEMM operands, memoized
  SPM gathers). The lowered IR, pass trace and source parameters stay;
  re-admission is a warm ``finalize`` (:meth:`CompiledModel.prepare_ops`)
  + lazy warmup — **never a recompile**.

The *ledger* charges each tenant its reclaimable resident bytes
(derived + plans + arenas). When the fleet's total charge exceeds
``budget_bytes``, the manager demotes the least-recently-used resident
tenants, then evicts the least-recently-used demoted ones, until under
budget. Weights themselves are never dropped — a registered tenant can
always serve.

Atomicity against in-flight requests uses per-tenant locks, not a
global pause: the serving layer wraps each tenant's flush in
:meth:`guard`, which holds the tenant's lock for the duration — so a
demotion (which takes the same lock) can never yank an arena out from
under a running GEMM, and a request that lands on a demoted/evicted
tenant promotes it *inside* the guard before running. Victim locks are
only ever acquired non-blocking from the budget enforcer, so a busy
tenant is simply skipped (the fleet rides briefly over budget rather
than deadlocking or failing requests).
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

__all__ = ["ResidencyManager", "RESIDENT", "DEMOTED", "EVICTED"]

logger = logging.getLogger("repro.serving")

RESIDENT = "resident"
DEMOTED = "demoted"
EVICTED = "evicted"


class _Tenant:
    """One model's residency state (lock serialises flush vs demote)."""

    __slots__ = (
        "name", "compiled", "state", "charged", "last_used", "lock",
        "demotions", "promotions", "evictions",
    )

    def __init__(self, name: str, compiled) -> None:
        self.name = name
        self.compiled = compiled
        self.state = RESIDENT
        self.charged = 0
        self.last_used = time.monotonic()
        self.lock = threading.RLock()
        self.demotions = 0
        self.promotions = 0
        self.evictions = 0


class ResidencyManager:
    """LRU residency + byte ledger over a fleet's compiled models.

    Parameters
    ----------
    budget_bytes:
        Total reclaimable-byte budget across all tenants; ``None``
        disables enforcement (accounting still runs, so /stats and
        /models report real bytes either way).
    on_event:
        Optional callback ``(kind, model, **detail)`` for demotion /
        promotion / eviction / over-budget events — the server wires
        this into its :class:`~repro.serving.incidents.IncidentLog`.
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        *,
        on_event: Optional[Callable[..., None]] = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError("budget_bytes must be >= 1 (or None to disable)")
        self.budget_bytes = budget_bytes
        self._on_event = on_event
        # RLock: _settle (tenant lock held) takes it, and the enforcer
        # inside takes victim tenant locks only non-blocking — so the
        # only blocking order is tenant.lock -> manager lock, never the
        # reverse.
        self._lock = threading.RLock()
        self._tenants: Dict[str, _Tenant] = {}
        self._over_reported = False

    # -- events --------------------------------------------------------
    def _event(self, kind: str, model: str, **detail) -> None:
        if self._on_event is not None:
            try:
                self._on_event(kind, model, **detail)
            except Exception:  # noqa: BLE001 - observability must not wedge serving
                logger.exception("residency event sink failed for %r", model)

    # -- registration --------------------------------------------------
    def admit(self, name: str, compiled) -> None:
        """Register a tenant as resident and charge it to the ledger.

        ``compiled`` may be ``None`` (an uncompiled model has no managed
        working set; it is tracked with a zero-ish charge so /models
        still reports it).
        """
        tenant = _Tenant(name, compiled)
        with self._lock:
            self._tenants[name] = tenant
        self._settle(tenant)

    def forget(self, name: str) -> int:
        """Drop a tenant and release its ledger charge immediately.

        Returns the remaining fleet charge — by construction the sum of
        the surviving tenants' charges, so it can never go negative; the
        bench guard still asserts that invariant end to end.
        """
        with self._lock:
            self._tenants.pop(name, None)
            return self.total_charged()

    def tenant_names(self) -> List[str]:
        """Names of every tracked tenant, in admission order."""
        with self._lock:
            return list(self._tenants)

    # -- the flush-path guard ------------------------------------------
    @contextmanager
    def guard(self, name: str):
        """Serialise one request burst against demotion/eviction.

        Holds the tenant's lock for the duration: promotes first if a
        demotion/eviction landed between requests (so admitted traffic
        never fails on residency), and settles the ledger afterwards.
        Unknown tenants pass through untouched.
        """
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            yield
            return
        with tenant.lock:
            self._promote_locked(tenant)
            try:
                yield
            finally:
                self._settle(tenant)

    def touch(self, name: str) -> None:
        """Promote + settle without running anything (warmup path)."""
        with self.guard(name):
            pass

    # -- state transitions (tenant lock held) --------------------------
    def _promote_locked(self, tenant: _Tenant) -> None:
        if tenant.state == RESIDENT:
            return
        was = tenant.state
        if tenant.state == EVICTED and tenant.compiled is not None:
            # Warm finalize: rebuild derived GEMM operands from the
            # retained IR + parameters. No recompile — the pass trace
            # on tenant.compiled.passes is untouched.
            tenant.compiled.prepare_ops()
        tenant.state = RESIDENT
        tenant.promotions += 1
        self._event("tenant_promoted", tenant.name, from_state=was)

    def _demote_locked(self, tenant: _Tenant) -> int:
        freed = 0
        if tenant.compiled is not None:
            freed = tenant.compiled.release_workspaces()
        tenant.state = DEMOTED
        tenant.demotions += 1
        self._event("tenant_demoted", tenant.name, freed_bytes=freed)
        return freed

    def _evict_locked(self, tenant: _Tenant) -> int:
        freed = 0
        if tenant.compiled is not None:
            if tenant.state == RESIDENT:
                freed += tenant.compiled.release_workspaces()
            freed += tenant.compiled.release_derived()
        tenant.state = EVICTED
        tenant.evictions += 1
        self._event("tenant_evicted", tenant.name, freed_bytes=freed)
        return freed

    # -- manual controls (tests, operator endpoints) -------------------
    def demote(self, name: str) -> bool:
        """Demote ``name`` now (blocking on its in-flight requests).
        Returns False for unknown tenants."""
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            return False
        with tenant.lock:
            if tenant.state == RESIDENT:
                self._demote_locked(tenant)
                self._recharge(tenant)
        return True

    def evict(self, name: str) -> bool:
        """Fully evict ``name`` now (blocking). False if unknown."""
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            return False
        with tenant.lock:
            if tenant.state != EVICTED:
                self._evict_locked(tenant)
                self._recharge(tenant)
        return True

    # -- ledger --------------------------------------------------------
    def _recharge(self, tenant: _Tenant) -> None:
        charge = 0 if tenant.compiled is None else tenant.compiled.resident_nbytes()
        with self._lock:
            tenant.charged = charge

    def _settle(self, tenant: _Tenant) -> None:
        """Post-use accounting: stamp LRU, recharge, enforce budget."""
        tenant.last_used = time.monotonic()
        self._recharge(tenant)
        self._enforce_budget(exclude=tenant)

    def total_charged(self) -> int:
        """The fleet ledger: summed tenant charges (always >= 0)."""
        with self._lock:
            return sum(t.charged for t in self._tenants.values())

    def headroom(self) -> Optional[int]:
        """Budget minus charge (negative while briefly over), or None."""
        if self.budget_bytes is None:
            return None
        return self.budget_bytes - self.total_charged()

    # -- budget enforcement --------------------------------------------
    def _victims(self, state: str, exclude: _Tenant) -> List[_Tenant]:
        with self._lock:
            candidates = [
                t for t in self._tenants.values()
                if t is not exclude and t.state == state
            ]
        return sorted(candidates, key=lambda t: t.last_used)

    def _reclaim_one(self, state: str, exclude: _Tenant, action) -> bool:
        """Try the LRU victim in ``state``; skip busy tenants (their
        lock is held by an in-flight flush — never block on it here)."""
        for victim in self._victims(state, exclude):
            if not victim.lock.acquire(blocking=False):
                continue
            try:
                action(victim)
                self._recharge(victim)
            finally:
                victim.lock.release()
            return True
        return False

    def _enforce_budget(self, exclude: _Tenant) -> None:
        if self.budget_bytes is None:
            return
        # Phase 1: demote cold resident tenants; phase 2: evict cold
        # demoted tenants. Each reclaim recomputes the ledger, so the
        # fleet stops reclaiming the moment it fits.
        while self.total_charged() > self.budget_bytes:
            if self._reclaim_one(RESIDENT, exclude, self._demote_locked):
                continue
            if self._reclaim_one(DEMOTED, exclude, self._evict_locked):
                continue
            # Nothing left to reclaim (everything else is busy or
            # already evicted): ride over budget, say so once.
            if not self._over_reported:
                self._over_reported = True
                self._event(
                    "fleet_over_budget", "",
                    charged_bytes=self.total_charged(),
                    budget_bytes=self.budget_bytes,
                )
            return
        self._over_reported = False

    # -- observability -------------------------------------------------
    def describe_tenant(self, name: str) -> Optional[dict]:
        """JSON-ready residency block for one tenant (/models)."""
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            return None
        row = {
            "state": tenant.state,
            "resident": tenant.state == RESIDENT,
            "bytes": tenant.charged,
            "demotions": tenant.demotions,
            "promotions": tenant.promotions,
            "evictions": tenant.evictions,
            "idle_s": round(time.monotonic() - tenant.last_used, 3),
        }
        if tenant.compiled is not None:
            row["memory"] = tenant.compiled.memory_report()
        return row

    def snapshot(self) -> dict:
        """The /stats residency block: ledger + per-tenant states."""
        with self._lock:
            names = list(self._tenants)
        tenants = {}
        for name in names:
            row = self.describe_tenant(name)
            if row is not None:
                row.pop("memory", None)  # /stats stays compact
                tenants[name] = row
        charged = self.total_charged()
        return {
            "budget_bytes": self.budget_bytes,
            "charged_bytes": charged,
            "headroom_bytes": (
                None if self.budget_bytes is None else self.budget_bytes - charged
            ),
            "tenants": tenants,
        }

    def __repr__(self) -> str:
        with self._lock:
            n = len(self._tenants)
        return (
            f"ResidencyManager(tenants={n}, budget={self.budget_bytes}, "
            f"charged={self.total_charged()})"
        )
