"""Turn a :class:`FaultPlan`'s damage specs into damage *at rest*.

The injector's wire effects mutate copies on each read — the resident
fragment always survives, so nothing persists between operations.  The
self-healing tests and the ``rapids chaos --workspace`` CLI need the
opposite: bit rot and fragment loss that sits in the store until a
scrubber finds it.  :func:`inflict_at_rest` replays a plan's
``storage.read`` damage specs directly onto the resident fragments:

* ``error``    — the fragment is deleted (missing at rest);
* ``corrupt``  — payload bytes are flipped deterministically (the same
  :meth:`~repro.chaos.injector.FaultInjector.mutate_payload` bytes a
  wire fault would produce) while the recorded checksum is kept, so the
  read path and the scrubber detect the rot;
* ``truncate`` — the payload loses its tail, checksum kept likewise.

Damage is deterministic in ``(plan.seed, plan.specs)`` and the cluster
inventory.  Only available systems are touched — call this *before*
``apply_outages`` when staging a scenario.
"""

from __future__ import annotations

from ..formats import crc32
from ..storage.system import StoredFragment
from .injector import FaultInjector, _stable_key
from .plan import FaultPlan

__all__ = ["inflict_at_rest"]


def inflict_at_rest(plan: FaultPlan, cluster) -> list[dict]:
    """Apply ``plan``'s ``storage.read`` damage specs to resident fragments.

    Every resident fragment on every available system is tested against
    the plan's damage specs (``where`` filters and ``probability`` are
    honoured; the first matching spec wins, occurrence windows are
    ignored — at-rest damage happens *now*).  Returns one record per
    inflicted damage: ``{"system_id", "object_name", "level", "index",
    "effect"}`` with effect ``missing`` / ``corrupt`` / ``truncate``.
    """
    injector = FaultInjector(plan)
    inflicted: list[dict] = []
    damage_specs = [
        (idx, spec)
        for idx, spec in enumerate(plan.specs)
        if spec.site == "storage.read"
    ]
    if not damage_specs:
        return inflicted
    for system in cluster.systems:
        if not system.available:
            continue
        saved = system.injector
        system.injector = None
        try:
            for obj, level, index in sorted(system.fragment_keys()):
                ctx = {
                    "system_id": system.system_id, "object_name": obj,
                    "level": level, "index": index,
                }
                for idx, spec in damage_specs:
                    if not spec.matches(ctx):
                        continue
                    key = _stable_key(ctx) if spec.scope == "key" else "*"
                    if spec.probability < 1.0 and (
                        injector._uniform(idx, key, 0) >= spec.probability
                    ):
                        continue
                    if spec.effect == "error":
                        system.delete(obj, level, index)
                        inflicted.append({**ctx, "effect": "missing"})
                    else:
                        frag = system.get(obj, level, index)
                        if frag.payload is None:
                            break  # simulated fragment: nothing to rot
                        mutated = injector.mutate_payload(
                            spec, frag.payload, spec_index=idx,
                            key=key, occurrence=0,
                        )
                        # Keep the original checksum: real bit rot does
                        # not update integrity metadata, and that gap is
                        # exactly what read verification and the
                        # scrubber detect.  The rotted bytes' own CRC
                        # keeps a file container well-formed.
                        system.put(
                            StoredFragment(
                                obj, level, index, len(mutated), mutated,
                                checksum=frag.checksum,
                                verified_crc=crc32(mutated),
                            )
                        )
                        inflicted.append({**ctx, "effect": spec.effect})
                    break
        finally:
            system.injector = saved
    return inflicted
