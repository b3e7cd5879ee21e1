"""GPU proclets: the accelerator-consuming proclet kind.

Mirrors the paper's own methodology (§4): GPUs are emulated as a fixed
per-batch delay, so a GPU proclet simply occupies one of its machine's
GPUs for ``batch_time`` per training batch.  The interesting dynamics —
the consumption rate doubling when GPUs go from four to eight — emerge
from the :class:`repro.cluster.GpuPool` capacity, which Fig. 3's harness
perturbs at runtime.
"""

from __future__ import annotations

from .resource import ResourceKind, ResourceProclet


class GpuProclet(ResourceProclet):
    """Trains batches on the hosting machine's GPU pool."""

    kind = ResourceKind.GPU

    def __init__(self):
        super().__init__()
        self.batches_trained = 0

    def _pool(self):
        pool = self.machine.gpus
        if pool is None:
            raise RuntimeError(
                f"{self.name}: machine {self.machine.name} has no GPUs"
            )
        return pool

    def gp_train(self, ctx, batch_key=None):
        """Train on one batch; occupies one GPU for its batch time."""
        item = self._pool().train_batch(name=f"{self.name}.batch")
        yield item
        self.batches_trained += 1
        return batch_key

    def gp_service_rate(self, ctx):
        """Current achievable batches/second (scheduler signal)."""
        yield ctx.cpu(1e-7)
        return self._pool().service_rate
