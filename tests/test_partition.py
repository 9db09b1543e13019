"""Partition schemes: correctness, balance, and invariants (§2, §9)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import (
    BlockCyclicPartition,
    BlockPartition,
    ModuloPartition,
    named_scheme,
)

SCHEMES = [ModuloPartition(), BlockPartition(), BlockCyclicPartition(block=3)]


class TestModulo:
    def test_paper_rule(self):
        # "A page p is allocated to the local memory of PE P if p = P mod N."
        scheme = ModuloPartition()
        for page in range(20):
            assert scheme.owner_of(page, 20, 4) == page % 4

    def test_paper_four_pe_example(self):
        # 100-element arrays, page size 32 -> pages 0..3 on PEs 0..3.
        scheme = ModuloPartition()
        owners = scheme.owners_of(np.arange(4), 4, 4)
        assert owners.tolist() == [0, 1, 2, 3]


class TestBlock:
    def test_contiguous_ranges(self):
        scheme = BlockPartition()
        owners = scheme.owners_of(np.arange(8), 8, 4).tolist()
        assert owners == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_uneven_split_spreads_remainder(self):
        scheme = BlockPartition()
        owners = scheme.owners_of(np.arange(10), 10, 4).tolist()
        # 10 pages over 4 PEs: 3,3,2,2
        assert owners == [0, 0, 0, 1, 1, 1, 2, 2, 3, 3]

    def test_fewer_pages_than_pes(self):
        scheme = BlockPartition()
        owners = scheme.owners_of(np.arange(3), 3, 8).tolist()
        assert owners == [0, 1, 2]

    def test_owner_of_matches_vectorised(self):
        scheme = BlockPartition()
        for page in range(10):
            assert scheme.owner_of(page, 10, 4) == scheme.owners_of(
                np.array([page]), 10, 4
            )[0]

    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        n_pes=st.integers(1, 16),
        data=st.data(),
    )
    def test_array_n_pages_matches_per_array_calls(self, sizes, n_pes, data):
        """One call with a per-element ``n_pages`` (how the simulators
        look up owners across arrays) equals one scalar call per array."""
        arr_ids = np.asarray(
            data.draw(st.lists(st.integers(0, len(sizes) - 1), max_size=60)),
            dtype=np.int64,
        )
        pages = np.array(
            [data.draw(st.integers(0, sizes[a] - 1)) for a in arr_ids.tolist()],
            dtype=np.int64,
        )
        n_pages = np.asarray(sizes, dtype=np.int64)[arr_ids]
        scheme = BlockPartition()
        got = scheme.owners_of(pages, n_pages, n_pes)
        for a, size in enumerate(sizes):
            mask = arr_ids == a
            expected = scheme.owners_of(pages[mask], size, n_pes)
            assert got[mask].tolist() == expected.tolist()


class TestBlockCyclic:
    def test_block_one_is_modulo(self):
        bc = BlockCyclicPartition(block=1)
        mod = ModuloPartition()
        pages = np.arange(40)
        assert np.array_equal(
            bc.owners_of(pages, 40, 8), mod.owners_of(pages, 40, 8)
        )

    def test_block_pattern(self):
        bc = BlockCyclicPartition(block=2)
        assert bc.owners_of(np.arange(8), 8, 2).tolist() == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            BlockCyclicPartition(block=0)


class TestCommon:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_bounds_checked(self, scheme):
        with pytest.raises(IndexError):
            scheme.owner_of(10, 10, 4)
        with pytest.raises(ValueError):
            scheme.owner_of(0, 10, 0)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    @given(n_pages=st.integers(1, 300), n_pes=st.integers(1, 64))
    def test_total_and_balanced(self, scheme, n_pages, n_pes):
        """Every page has exactly one owner in range, and page counts
        differ by at most the scheme's natural imbalance."""
        pages = np.arange(n_pages)
        owners = scheme.owners_of(pages, n_pages, n_pes)
        assert owners.min() >= 0 and owners.max() < n_pes
        counts = np.bincount(owners, minlength=n_pes)
        active = counts[counts > 0]
        # modulo/block: imbalance <= 1 page; block-cyclic(b): <= b pages.
        slack = getattr(scheme, "block", 1)
        assert counts.max() - counts[: max(1, min(n_pes, n_pages))].min() <= slack

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_pages_owned_inverse(self, scheme):
        n_pages, n_pes = 50, 8
        seen = []
        for pe in range(n_pes):
            owned = scheme.pages_owned(pe, n_pages, n_pes)
            assert all(
                scheme.owner_of(int(page), n_pages, n_pes) == pe for page in owned
            )
            seen.extend(owned.tolist())
        assert sorted(seen) == list(range(n_pages))

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_single_pe_owns_everything(self, scheme):
        owners = scheme.owners_of(np.arange(17), 17, 1)
        assert (owners == 0).all()


class TestNamedScheme:
    def test_lookup(self):
        assert named_scheme("modulo").name == "modulo"
        assert named_scheme("block").name == "block"
        assert named_scheme("block-cyclic:4").block == 4
        assert named_scheme("block-cyclic").block == 2

    def test_unknown(self):
        with pytest.raises(KeyError):
            named_scheme("hilbert")
