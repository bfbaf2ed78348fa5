"""The durable request journal: exactly-once prepares over the KV store.

Idempotency-key pattern over the metadata plane.  Before executing a
keyed prepare the service writes a ``pending`` journal record; after the
pipeline commits, a ``done`` record with the result.  A retried or
replayed request then observes exactly-once workspace mutation:

* ``done``    — served straight from the journal, no pipeline run;
* ``pending`` — a prior attempt crashed somewhere between the journal
  write and the commit; the prepare re-executes *over* the partial
  state.  ``RAPIDS.prepare`` overwrites every fragment of the object
  deterministically and then its one object record, so replaying a
  half-done prepare converges on the same bytes a single clean run
  produces (the crash-safe-resume contract the property suite checks);
* absent      — first time through.

A key is bound to its request *fingerprint* (op, object name, payload
digest): reusing a key for different bytes is a caller bug and surfaces
as :class:`IdempotencyConflict` instead of silently serving the wrong
cached result.

Key layout (in the metadata catalog's KV store, so journal writes ride
the existing ``kvstore.put``/``kvstore.fsync`` chaos seams)::

    svc/req/<tenant>/<key>   -> {"state", "fingerprint", "op", "name",
                                 "result"?}
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "RequestJournal",
    "JournalEntry",
    "IdempotencyConflict",
    "request_fingerprint",
]


class IdempotencyConflict(ValueError):
    """The same idempotency key was reused for a different request."""


class JournalEntry:
    """One journal record, decoded."""

    __slots__ = ("state", "fingerprint", "op", "name", "result")

    def __init__(self, state, fingerprint, op, name, result=None):
        self.state = state
        self.fingerprint = fingerprint
        self.op = op
        self.name = name
        self.result = result

    @classmethod
    def from_json(cls, raw: bytes) -> "JournalEntry":
        d = json.loads(raw)
        return cls(
            d["state"], d["fingerprint"], d["op"], d["name"], d.get("result")
        )

    def to_json(self) -> bytes:
        d = {
            "state": self.state,
            "fingerprint": self.fingerprint,
            "op": self.op,
            "name": self.name,
        }
        if self.result is not None:
            d["result"] = self.result
        return json.dumps(d, sort_keys=True).encode()


def request_fingerprint(op: str, name: str, payload_digest: str) -> str:
    """Stable identity of a request's *content* (not its key)."""
    h = hashlib.sha256(f"{op}|{name}|{payload_digest}".encode())
    return h.hexdigest()[:32]


class RequestJournal:
    """Durable idempotency journal over a KV-store-like object.

    ``store`` needs ``get``/``put`` over ``bytes`` — the embedded
    :class:`~repro.metadata.kvstore.KVStore` or its replicated variant.
    An injector attached with :meth:`attach_injector` is consulted at the
    declared chaos site ``service.journal`` on every journal write, so
    seeded campaigns can fail the journal independently of the
    store beneath it.
    """

    def __init__(self, store):
        self.store = store
        self.injector = None

    def attach_injector(self, injector) -> None:
        self.injector = injector

    @staticmethod
    def _key(tenant: str, key: str) -> bytes:
        return f"svc/req/{tenant}/{key}".encode()

    def lookup(self, tenant: str, key: str) -> JournalEntry | None:
        raw = self.store.get(self._key(tenant, key))
        if raw is None:
            return None
        return JournalEntry.from_json(raw)

    def _write(self, tenant: str, key: str, entry: JournalEntry) -> None:
        if self.injector is not None:
            self.injector.check(
                "service.journal", tenant=tenant, key=key, state=entry.state
            )
        self.store.put(self._key(tenant, key), entry.to_json())

    def begin(
        self, tenant: str, key: str, *, op: str, name: str, fingerprint: str
    ) -> JournalEntry | None:
        """Record intent to execute; returns the prior entry, if any.

        A prior ``done`` with a matching fingerprint short-circuits the
        execution (the caller serves the recorded result); a prior
        ``pending`` means crash replay (the caller re-executes); a
        fingerprint mismatch raises :class:`IdempotencyConflict`.
        """
        prior = self.lookup(tenant, key)
        if prior is not None:
            if prior.fingerprint != fingerprint:
                raise IdempotencyConflict(
                    f"idempotency key {key!r} of tenant {tenant!r} was "
                    f"previously used for a different request "
                    f"({prior.op} {prior.name!r})"
                )
            if prior.state == "done":
                return prior
        self._write(
            tenant, key,
            JournalEntry("pending", fingerprint, op, name),
        )
        return prior

    def commit(
        self, tenant: str, key: str, *, fingerprint: str, op: str,
        name: str, result: dict,
    ) -> None:
        """Mark the keyed request complete, recording its result."""
        self._write(
            tenant, key,
            JournalEntry("done", fingerprint, op, name, result=result),
        )
