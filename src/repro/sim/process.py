"""Processes, virtual address spaces and device buffers.

Each :class:`Process` models one user on the box (trojan, spy, victim...)
with a private virtual address space.  Buffers are allocated on a chosen
GPU's HBM; the physical page frames backing them are handed out *randomly*
(seeded) by the device's frame allocator, which is what forces the attacker
to discover eviction sets online instead of computing set indices directly
-- exactly the paper's user-space threat model (no huge pages, no driver
modifications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import AllocationError, TranslationError

__all__ = ["Process", "DeviceBuffer", "SharedBuffer"]

#: Word size of the simulated load/store unit.  ``__ldcg`` in the paper's
#: pointer chase loads one index per access; we model 8-byte words.
WORD_BYTES = 8

#: Base of the first allocation in every process's virtual address space.
_VADDR_BASE = 0x7F00_0000_0000


@dataclass
class SharedBuffer:
    """An on-SM shared-memory buffer (no L2 traffic, per Section III-A)."""

    name: str
    data: np.ndarray

    @staticmethod
    def of_size(name: str, num_words: int) -> "SharedBuffer":
        return SharedBuffer(name=name, data=np.zeros(num_words, dtype=np.float64))


class DeviceBuffer:
    """A contiguous virtual allocation backed by HBM pages on one GPU.

    The buffer's *home* GPU is where its physical pages live, and therefore
    (per the paper's reverse engineering) where its lines are cached.
    ``data`` holds the buffer contents as int64 words so that pointer-chase
    kernels can store "next index" values and load them back.
    """

    __slots__ = (
        "process",
        "name",
        "device_id",
        "base_vaddr",
        "num_words",
        "data",
        "frames",
        "page_size",
        "token",
        "_words_per_page",
        "_frame_array",
    )

    #: Monotonic generation counter: every buffer (and every translation
    #: change of a buffer) gets a fresh token, so token-keyed caches can
    #: never confuse two allocations the way recycled ``id()``s can.
    _next_token = 0

    def __init__(
        self,
        process: "Process",
        name: str,
        device_id: int,
        base_vaddr: int,
        num_words: int,
        frames: Tuple[int, ...],
        page_size: int,
    ) -> None:
        self.process = process
        self.name = name
        self.device_id = device_id
        self.base_vaddr = base_vaddr
        self.num_words = num_words
        self.data = np.zeros(num_words, dtype=np.int64)
        self.frames = frames
        self.page_size = page_size
        self.token = DeviceBuffer._next_token
        DeviceBuffer._next_token += 1
        self._words_per_page = page_size // WORD_BYTES
        self._frame_array = np.asarray(frames, dtype=np.int64)

    @property
    def size_bytes(self) -> int:
        return self.num_words * WORD_BYTES

    def vaddr(self, index: int) -> int:
        """Virtual address of word ``index``."""
        return self.base_vaddr + index * WORD_BYTES

    def paddr(self, index: int) -> int:
        """Physical address (on the home device) of word ``index``."""
        if not self.frames:
            raise TranslationError(f"buffer {self.name!r} was freed")
        if not 0 <= index < self.num_words:
            raise TranslationError(
                f"index {index} outside buffer {self.name!r} "
                f"({self.num_words} words)"
            )
        page, offset = divmod(index, self._words_per_page)
        return self.frames[page] * self.page_size + offset * WORD_BYTES

    def paddrs(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`paddr` for a whole batch of word indices."""
        if not self.frames:
            raise TranslationError(f"buffer {self.name!r} was freed")
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= self.num_words
        ):
            raise TranslationError(
                f"index outside buffer {self.name!r} ({self.num_words} words)"
            )
        pages, offsets = np.divmod(indices, self._words_per_page)
        return self._frame_array[pages] * self.page_size + offsets * WORD_BYTES

    def remap_page(self, page_index: int, new_frame: int) -> int:
        """Silently migrate one page to a different physical frame.

        Models driver-side page migration: the virtual mapping (and the
        buffer contents) are untouched, but every line of the page now
        lives at a new physical address -- so cached copies of the old
        frame and any eviction set built on it are stale.  Returns the
        old frame.  Callers own the frame-allocator bookkeeping and cache
        scrubbing (see :func:`repro.chaos.remap_buffer_page`).
        """
        if not 0 <= page_index < len(self.frames):
            raise TranslationError(
                f"page {page_index} outside buffer {self.name!r} "
                f"({len(self.frames)} pages)"
            )
        old_frame = self.frames[page_index]
        frames = list(self.frames)
        frames[page_index] = new_frame
        self.frames = tuple(frames)
        self._frame_array = np.asarray(frames, dtype=np.int64)
        # The translation changed: retire the generation token so any
        # address plan cached against the old layout misses on lookup
        # even if an explicit invalidation was skipped.
        self.token = DeviceBuffer._next_token
        DeviceBuffer._next_token += 1
        return old_frame

    def release(self) -> None:
        """Drop the translation once the frames went back to the allocator
        (``cudaFree``): any later access raises :class:`TranslationError`
        instead of landing on whichever allocation gets the frames next."""
        self.frames = ()
        self._frame_array = np.empty(0, dtype=np.int64)
        self.token = DeviceBuffer._next_token
        DeviceBuffer._next_token += 1

    def load(self, index: int) -> int:
        return int(self.data[index])

    def store(self, index: int, value: int) -> None:
        self.data[index] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceBuffer({self.name!r}, gpu={self.device_id}, "
            f"words={self.num_words}, pages={len(self.frames)})"
        )


@dataclass
class Process:
    """One user process: address space, allocations, peer-access state."""

    pid: int
    name: str = "proc"
    _next_vaddr: int = field(default=0, repr=False)
    buffers: List[DeviceBuffer] = field(default_factory=list)
    shared: Dict[str, SharedBuffer] = field(default_factory=dict)
    #: (from_gpu, to_gpu) pairs with peer access enabled.
    peer_access: Set[Tuple[int, int]] = field(default_factory=set)

    def __post_init__(self) -> None:
        # Stagger address spaces per pid so vaddrs never collide across
        # processes (they are process-private anyway, but distinct bases
        # make debugging traces unambiguous).
        self._next_vaddr = _VADDR_BASE + self.pid * (1 << 40)

    # ------------------------------------------------------------------
    # Allocation (called by the runtime API, which owns the frame allocator)
    # ------------------------------------------------------------------
    def add_allocation(
        self,
        name: str,
        device_id: int,
        num_words: int,
        frames: Tuple[int, ...],
        page_size: int,
    ) -> DeviceBuffer:
        if num_words <= 0:
            raise AllocationError(f"allocation {name!r} must have > 0 words")
        needed_pages = -(-num_words * WORD_BYTES // page_size)
        if len(frames) != needed_pages:
            raise AllocationError(
                f"allocation {name!r}: got {len(frames)} frames, "
                f"need {needed_pages}"
            )
        base = self._next_vaddr
        # Keep allocations page-aligned and leave a guard page between them.
        span = (needed_pages + 1) * page_size
        self._next_vaddr += span
        buf = DeviceBuffer(
            process=self,
            name=name,
            device_id=device_id,
            base_vaddr=base,
            num_words=num_words,
            frames=frames,
            page_size=page_size,
        )
        self.buffers.append(buf)
        return buf

    def shared_buffer(self, name: str, num_words: int) -> SharedBuffer:
        """Allocate (or fetch) a shared-memory buffer for this process."""
        if name not in self.shared:
            self.shared[name] = SharedBuffer.of_size(name, num_words)
        return self.shared[name]

    def enable_peer_access(self, from_gpu: int, to_gpu: int) -> None:
        self.peer_access.add((from_gpu, to_gpu))

    def has_peer_access(self, from_gpu: int, to_gpu: int) -> bool:
        return from_gpu == to_gpu or (from_gpu, to_gpu) in self.peer_access

    def find_buffer(self, name: str) -> Optional[DeviceBuffer]:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        return None
