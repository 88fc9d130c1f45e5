"""User-level runtime API mirroring the CUDA calls the paper's code uses.

The attack kernels are written against this facade the same way the paper's
kernels are written against CUDA: allocate buffers on a chosen device
(``cudaSetDevice`` + ``cudaMalloc``), enable peer access over NVLink
(``cudaDeviceEnablePeerAccess``), launch kernels that issue ``__ldcg`` loads
and read ``clock()``.  Nothing here exposes physical addresses or set
indices -- the attacker must earn those through timing, as on real hardware.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..config import DGXSpec
from ..errors import AllocationError, PeerAccessError
from ..hw.system import MultiGPUSystem
from ..sim.engine import Engine, StreamHandle
from ..sim.epoch import unroll
from ..sim.process import WORD_BYTES, DeviceBuffer, Process

__all__ = ["Runtime"]


class Runtime:
    """One box + one event engine + CUDA-flavoured entry points."""

    def __init__(
        self,
        spec: Optional[DGXSpec] = None,
        seed: int = 0,
        system: Optional[MultiGPUSystem] = None,
        epoch_dispatch: bool = True,
    ) -> None:
        self.system = system if system is not None else MultiGPUSystem(spec, seed=seed)
        self.engine = Engine(self.system)
        #: When set (the default), the engine advances the
        #: :class:`~repro.sim.ops.AccessEpoch` / ``LinkEpoch`` plans that
        #: attack kernels declare in bulk; ``False`` launches every kernel
        #: through :func:`~repro.sim.epoch.unroll`, which expands each plan
        #: into per-op dispatch -- the differential-test oracle.  The only
        #: place that knows the dispatch mode.
        self.epoch_dispatch = epoch_dispatch
        #: Nullable observability hooks, set by
        #: :func:`repro.telemetry.metrics.attach_metrics` /
        #: :func:`repro.telemetry.profiler.attach_profiler`; the attack
        #: layers look them up here via ``getattr`` so the hot paths stay
        #: hook-free when observability is off.
        self.metrics = None
        self.profiler = None

    # ------------------------------------------------------------------
    # Process and memory management
    # ------------------------------------------------------------------
    def create_process(self, name: str = "proc") -> Process:
        """Create a user process (its own context / address space)."""
        return self.system.new_process(name)

    def malloc(
        self,
        process: Process,
        device_id: int,
        size_bytes: int,
        name: str = "buf",
    ) -> DeviceBuffer:
        """``cudaMalloc`` on ``device_id``: random physical frames, zeroed.

        Allocating on a remote GPU "does not create any context on the
        remote GPU" (Section III-A): only the buffer's home matters.
        """
        if size_bytes <= 0 or size_bytes % WORD_BYTES:
            raise AllocationError(
                f"size must be a positive multiple of {WORD_BYTES} bytes"
            )
        gpu = self._gpu(device_id)
        frames = gpu.memory.allocate(gpu.memory.frames_needed(size_bytes))
        return process.add_allocation(
            name=name,
            device_id=device_id,
            num_words=size_bytes // WORD_BYTES,
            frames=frames,
            page_size=gpu.spec.page_size,
        )

    def malloc_lines(
        self,
        process: Process,
        device_id: int,
        num_lines: int,
        name: str = "buf",
    ) -> DeviceBuffer:
        """Allocate ``num_lines`` cache lines worth of memory."""
        line = self.system.spec.gpu.cache.line_size
        return self.malloc(process, device_id, num_lines * line, name=name)

    def free(self, buffer: DeviceBuffer) -> None:
        """``cudaFree``: returns frames and scrubs their cached lines.

        Real allocators scrub recycled pages before handing them to another
        allocation; without the invalidation, a later process could observe
        warm lines left by a previous owner of the same frames.
        """
        gpu = self._gpu(buffer.device_id)
        line = gpu.spec.cache.line_size
        for frame in buffer.frames:
            base = frame * gpu.spec.page_size
            for offset in range(0, gpu.spec.page_size, line):
                gpu.l2.invalidate_line(base + offset)
        gpu.memory.free(buffer.frames)
        # Cached epoch plans hold this buffer's *physical* addresses;
        # once the frames are back in the allocator a stale plan would
        # let a probe land on whatever buffer gets the frames next.
        self.system.invalidate_epoch_plans(buffer)
        buffer.release()
        buffer.process.buffers.remove(buffer)

    def enable_peer_access(self, process: Process, from_gpu: int, to_gpu: int) -> None:
        """``cudaDeviceEnablePeerAccess``: errors unless a direct NVLink exists.

        Mirrors the runtime error the paper reports for GPU pairs that are
        not single-hop NVLink neighbours.
        """
        self._gpu(from_gpu)
        self._gpu(to_gpu)
        if not self.system.topology.are_peers(from_gpu, to_gpu):
            raise PeerAccessError(
                f"GPU {from_gpu} and GPU {to_gpu} are not connected via NVLink"
            )
        process.enable_peer_access(from_gpu, to_gpu)

    # ------------------------------------------------------------------
    # Kernel launch
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: Generator[Any, Any, Any],
        gpu_id: int,
        process: Process,
        name: str = "kernel",
        shared_mem: int = 0,
        start: Optional[float] = None,
    ) -> StreamHandle:
        """Launch one thread block's kernel stream (asynchronous)."""
        if not self.epoch_dispatch:
            kernel = unroll(kernel, self.engine, gpu_id, process)
        return self.engine.launch(
            kernel, gpu_id, process, name=name, shared_mem=shared_mem, start=start
        )

    def synchronize(self, until: Optional[float] = None) -> float:
        """``cudaDeviceSynchronize``: run every queued stream to completion."""
        return self.engine.run(until=until)

    def run_kernel(
        self,
        kernel: Generator[Any, Any, Any],
        gpu_id: int,
        process: Process,
        name: str = "kernel",
        shared_mem: int = 0,
    ) -> Any:
        """Launch a single kernel and block for its return value."""
        handle = self.launch(kernel, gpu_id, process, name=name, shared_mem=shared_mem)
        self.synchronize()
        return handle.result

    def run_concurrent(self, launches: List[dict]) -> List[StreamHandle]:
        """Launch several kernels together and run them to completion.

        Each entry is a dict of :meth:`launch` keyword arguments.
        """
        handles = [self.launch(**kwargs) for kwargs in launches]
        self.synchronize()
        return handles

    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        return len(self.system.gpus)

    def _gpu(self, device_id: int):
        try:
            return self.system.gpus[device_id]
        except IndexError:
            raise AllocationError(f"no GPU {device_id} in this system") from None
