"""Flat storage abstraction (§3.2): aggregate capacity and IOPS.

Modeled on Flat Datacenter Storage [40]: objects are hashed across many
fine-grained storage proclets spread over every machine with a storage
device, so the application sees one namespace whose capacity and IOPS
are the sums of all devices.
"""

from __future__ import annotations

import zlib
from typing import Any, List

from ..runtime import ProcletRef
from ..sim import Event


class FlatStorage:
    """One flat object namespace over all storage devices."""

    def __init__(self, qs, name: str = "storage",
                 proclets_per_device: int = 4):
        if proclets_per_device < 1:
            raise ValueError("need at least one proclet per device")
        self.qs = qs
        self.name = name
        self.proclets: List[ProcletRef] = []
        machines = qs.placement.storage_machines()
        if not machines:
            raise RuntimeError(
                "flat storage needs at least one machine with a storage "
                "device (MachineSpec.storage)"
            )
        for machine in machines:
            for i in range(proclets_per_device):
                self.proclets.append(
                    qs.spawn_storage(machine,
                                     name=f"{name}.{machine.name}.{i}")
                )

    # -- routing ------------------------------------------------------------
    def _route(self, key: Any) -> ProcletRef:
        digest = zlib.crc32(repr(key).encode())
        return self.proclets[digest % len(self.proclets)]

    # -- object API (§3.1 ReadObject/WriteObject) ------------------------------
    def write(self, key: Any, nbytes: float, value: Any = None,
              ctx=None) -> Event:
        ref = self._route(key)
        if ctx is not None:
            return ctx.call(ref, "sp_write", key, nbytes, value,
                            req_bytes=nbytes)
        return ref.call("sp_write", key, nbytes, value)

    def read(self, key: Any, ctx=None) -> Event:
        ref = self._route(key)
        if ctx is not None:
            return ctx.call(ref, "sp_read", key)
        return ref.call("sp_read", key)

    def delete(self, key: Any, ctx=None) -> Event:
        ref = self._route(key)
        if ctx is not None:
            return ctx.call(ref, "sp_delete", key)
        return ref.call("sp_delete", key)

    def contains(self, key: Any, ctx=None) -> Event:
        ref = self._route(key)
        if ctx is not None:
            return ctx.call(ref, "sp_contains", key)
        return ref.call("sp_contains", key)

    # -- aggregate stats --------------------------------------------------------
    @property
    def total_capacity(self) -> float:
        return sum(m.storage.capacity
                   for m in self.qs.placement.storage_machines())

    @property
    def aggregate_iops(self) -> float:
        return sum(m.storage.spec.iops
                   for m in self.qs.placement.storage_machines())

    @property
    def object_count(self) -> int:
        return sum(ref.proclet.object_count for ref in self.proclets)

    def destroy(self) -> None:
        for ref in self.proclets:
            self.qs.runtime.destroy(ref)
        self.proclets.clear()

    def __repr__(self) -> str:
        return (f"<FlatStorage {self.name!r} proclets={len(self.proclets)} "
                f"objects={self.object_count}>")
