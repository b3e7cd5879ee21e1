"""Storage proclets: persistent-data proclets (capacity + IOPS).

Implements the ``ReadObject(id)`` / ``WriteObject(id)`` API of §3.1.
Object bytes live on the hosting machine's :class:`StorageDevice` — the
proclet's DRAM heap holds only its index — so a storage proclet is cheap
to account for in memory while consuming the device's capacity and IOPS.
The sharded store (:mod:`repro.storage`) range-shards them and
splits/merges them like memory shards (§3.3); flat storage is a store
striped over every device to aggregate both sub-resources (§3.2, §5).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..cluster import OutOfMemory, OutOfStorage
from ..runtime import Payload
from ..runtime.errors import WrongShard
from ..units import US
from .resource import ResourceKind, ResourceProclet

#: DRAM index entry per stored object.
_INDEX_BYTES = 64.0
_OP_CPU = 0.3 * US


class StorageProclet(ResourceProclet):
    """Keyed object store over one machine's storage device."""

    kind = ResourceKind.STORAGE

    def __init__(self):
        super().__init__()
        self._objects: Dict[Any, Tuple[float, Any]] = {}
        #: Device bytes the objects hold (a running total).
        self.stored_bytes = 0.0
        # Authoritative key range when part of a sharded store (None =
        # unbounded), enforced like a memory shard's: a call routed
        # before a concurrent split/merge gets WrongShard and retries.
        self.range_lo: Optional[Any] = None
        self.range_hi: Optional[Any] = None
        self.reads = 0
        self.writes = 0

    def _device(self):
        dev = self.machine.storage
        if dev is None:
            raise RuntimeError(
                f"{self.name}: machine {self.machine.name} has no storage"
            )
        return dev

    def _check_range(self, key) -> None:
        if self.range_lo is not None and key < self.range_lo:
            raise WrongShard(f"{self.name}: {key!r} below range")
        if self.range_hi is not None and not key < self.range_hi:
            raise WrongShard(f"{self.name}: {key!r} beyond range")

    @property
    def object_count(self) -> int:
        return len(self._objects)

    # -- proclet methods ------------------------------------------------------
    def sp_write(self, ctx, key, nbytes: float, value: Any = None):
        """WriteObject: reserve device capacity and pay the I/O.

        All-or-nothing: the range check, the device reservation, the
        index charge and the record happen with no yield between them,
        and a failed reservation or charge leaves the proclet as it was.
        The device I/O comes after, so a concurrent split carves the
        object whole.  Returns True for a new key, False for an
        overwrite.
        """
        if nbytes < 0:
            raise ValueError(f"negative object size: {nbytes}")
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        device = self._device()
        old = self._objects.get(key)
        old_bytes = 0.0 if old is None else old[0]
        if old is not None:
            device.release(old_bytes)
        try:
            device.reserve(nbytes)
        except OutOfStorage:
            if old is not None:
                device.reserve(old_bytes)
            raise
        # Record before the index charge: the charge reports the heap
        # change, and the shard size controller reads stored_bytes.
        self._objects[key] = (float(nbytes), value)
        self.stored_bytes += nbytes - old_bytes
        if old is None:
            try:
                ctx.alloc(_INDEX_BYTES)
            except OutOfMemory:
                del self._objects[key]
                self.stored_bytes -= nbytes
                device.release(nbytes)
                raise
        else:
            # Recharging the key's index entry reports the overwrite's
            # size change to the heap-change size controller.
            self.heap_free(_INDEX_BYTES)
            ctx.alloc(_INDEX_BYTES)
        yield from device.write(nbytes, priority=int(ctx.priority))
        self.writes += 1
        return old is None

    def sp_read(self, ctx, key):
        """ReadObject: pay the device I/O; remote callers also pay the wire."""
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        entry = self._objects.get(key)
        if entry is None:
            raise KeyError(f"{self.name}: no object {key!r}")
        nbytes, value = entry
        yield from self._device().read(nbytes, priority=int(ctx.priority))
        self.reads += 1
        return Payload(value, nbytes=nbytes)

    def sp_delete(self, ctx, key):
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        entry = self._objects.pop(key, None)
        if entry is None:
            raise KeyError(f"{self.name}: no object {key!r}")
        self.stored_bytes -= entry[0]
        self._device().release(entry[0])
        self.heap_free(_INDEX_BYTES)
        return entry[0]

    def sp_contains(self, ctx, key):
        yield ctx.cpu(_OP_CPU)
        self._check_range(key)
        return key in self._objects

    # -- split/merge primitives (the sharded store, §3.3) ------------------
    def split_point(self) -> Any:
        """First key of the upper half by stored bytes."""
        if len(self._objects) < 2:
            raise ValueError(f"{self.name}: too small to split")
        keys = sorted(self._objects)
        target = self.stored_bytes / 2.0
        acc = 0.0
        for idx, key in enumerate(keys):
            acc += self._objects[key][0]
            if acc >= target:
                return keys[min(idx + 1, len(keys) - 1)]
        return keys[-1]

    def extract_upper(self, split_key) -> Tuple[List[Tuple[Any, float, Any]],
                                                float]:
        """Remove objects with ``key >= split_key``; their device bytes
        are released here, the caller installs them at the destination."""
        return self._extract([k for k in self._objects
                              if not k < split_key])

    def extract_all(self) -> Tuple[List[Tuple[Any, float, Any]], float]:
        """Remove every object (the giving end of a merge)."""
        return self._extract(list(self._objects))

    def _extract(self, keys) -> Tuple[List[Tuple[Any, float, Any]], float]:
        items = [(key, *self._objects.pop(key)) for key in keys]
        total = sum(nbytes for _k, nbytes, _v in items)
        if items:
            self.stored_bytes -= total
            self._device().release(total)
            self.heap_free(_INDEX_BYTES * len(items))
        return items, total

    def install(self, items: List[Tuple[Any, float, Any]]) -> None:
        """Bulk-insert items (the receiving end of a split/merge)."""
        total = sum(nbytes for _k, nbytes, _v in items)
        if items:
            self._device().reserve(total)
            self.stored_bytes += total
            self.heap_alloc(_INDEX_BYTES * len(items))
        for key, nbytes, value in items:
            self._objects[key] = (nbytes, value)
