"""Page-to-PE partitioning schemes (§2 and §9).

The paper's automatic data partitioning rule is: "A page *p* is
allocated to the local memory of PE *P* if p = P mod N, where N is the
total number of available PEs" — :class:`ModuloPartition`.  Section 9
observes that "our simple modulo partitioning scheme performs worse for
certain loops than a division scheme" and calls for
programmer/compiler-selectable schemes; :class:`BlockPartition`
implements that division scheme and :class:`BlockCyclicPartition`
generalises both (block size 1 = modulo; block size ≥ n_pages/N =
division).  The ablation benchmark ``bench_ablation_partition`` compares
them per access class.

Every array is paged independently starting at page 0, so page *p* of
*every* array lands on the same PE — this is what makes "matched"
loops entirely local (§7.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockCyclicPartition",
    "BlockPartition",
    "ModuloPartition",
    "PartitionScheme",
    "named_scheme",
]


class PartitionScheme:
    """Maps page numbers of an array to owning PEs.

    Implementations must be pure functions of (page, n_pages, n_pes) so
    that every PE can evaluate ownership locally without communication —
    the property the paper's "simple automatic scheme" relies on.
    """

    name: str = "abstract"

    def owner_of(self, page: int, n_pages: int, n_pes: int) -> int:
        """Owning PE of one page."""
        raise NotImplementedError

    def owners_of(
        self, pages: np.ndarray, n_pages: int, n_pes: int
    ) -> np.ndarray:
        """Vectorised :meth:`owner_of` (must agree elementwise).

        ``n_pages`` may also be an array broadcasting against
        ``pages`` — one page count per element, so pages of several
        arrays are looked up in one call.
        """
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Display name including parameters (e.g. "block-cyclic:4")."""
        return self.name

    def pages_owned(self, pe: int, n_pages: int, n_pes: int) -> np.ndarray:
        """All pages owned by one PE (ascending)."""
        pages = np.arange(n_pages, dtype=np.int64)
        owners = self.owners_of(pages, n_pages, n_pes)
        return pages[owners == pe]

    def _validate(self, page: int, n_pages: int, n_pes: int) -> None:
        if n_pes <= 0:
            raise ValueError("need at least one PE")
        if not 0 <= page < n_pages:
            raise IndexError(f"page {page} out of range [0, {n_pages})")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class ModuloPartition(PartitionScheme):
    """The paper's scheme: page ``p`` lives on PE ``p mod N``."""

    name: str = "modulo"

    def owner_of(self, page: int, n_pages: int, n_pes: int) -> int:
        self._validate(page, n_pages, n_pes)
        return page % n_pes

    def owners_of(
        self, pages: np.ndarray, n_pages: int, n_pes: int
    ) -> np.ndarray:
        if n_pes <= 0:
            raise ValueError("need at least one PE")
        return np.asarray(pages, dtype=np.int64) % n_pes


@dataclass(frozen=True, repr=False)
class BlockPartition(PartitionScheme):
    """The "division scheme" (§9): contiguous blocks of pages per PE.

    Pages are split into N nearly equal contiguous ranges; the first
    ``n_pages % N`` PEs receive one extra page, so the imbalance is at
    most one page.
    """

    name: str = "block"

    def owner_of(self, page: int, n_pages: int, n_pes: int) -> int:
        self._validate(page, n_pages, n_pes)
        return int(self.owners_of(np.asarray([page]), n_pages, n_pes)[0])

    def owners_of(
        self, pages: np.ndarray, n_pages: int, n_pes: int
    ) -> np.ndarray:
        if n_pes <= 0:
            raise ValueError("need at least one PE")
        pages = np.asarray(pages, dtype=np.int64)
        base, extra = np.divmod(n_pages, n_pes)
        # First `extra` PEs own (base+1) pages starting at 0.
        split = extra * (base + 1)
        owners = np.where(
            pages < split,
            pages // (base + 1),
            extra + (pages - split) // np.maximum(base, 1),
        )
        # Fewer pages than PEs (base == 0): one page per PE, rest idle.
        return np.where(base == 0, pages, owners).astype(np.int64)


@dataclass(frozen=True, repr=False)
class BlockCyclicPartition(PartitionScheme):
    """Blocks of ``block`` consecutive pages dealt round-robin to PEs.

    ``block=1`` degenerates to :class:`ModuloPartition`.  This is the
    scheme later standardised by High Performance Fortran, included here
    as the natural point on the paper's modulo-vs-division axis.
    """

    block: int = 2
    name: str = "block-cyclic"

    def __post_init__(self) -> None:
        if self.block <= 0:
            raise ValueError("block size must be positive")

    def owner_of(self, page: int, n_pages: int, n_pes: int) -> int:
        self._validate(page, n_pages, n_pes)
        return (page // self.block) % n_pes

    def owners_of(
        self, pages: np.ndarray, n_pages: int, n_pes: int
    ) -> np.ndarray:
        if n_pes <= 0:
            raise ValueError("need at least one PE")
        return (np.asarray(pages, dtype=np.int64) // self.block) % n_pes

    @property
    def label(self) -> str:
        return f"{self.name}:{self.block}"

    def __repr__(self) -> str:
        return f"BlockCyclicPartition(block={self.block})"


def named_scheme(name: str) -> PartitionScheme:
    """Look up a scheme by name ("modulo", "block", "block-cyclic:K")."""
    if name == "modulo":
        return ModuloPartition()
    if name == "block":
        return BlockPartition()
    if name.startswith("block-cyclic"):
        _, _, arg = name.partition(":")
        return BlockCyclicPartition(block=int(arg) if arg else 2)
    raise KeyError(f"unknown partition scheme {name!r}")
