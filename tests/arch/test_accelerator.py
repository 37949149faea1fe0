"""Tests for the bank/tile/AP hierarchy."""

import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.config import APConfig, ArchitectureConfig
from repro.arch.interconnect import TransferScope
from repro.errors import CapacityError


@pytest.fixture
def accelerator(tiny_architecture) -> Accelerator:
    return Accelerator(tiny_architecture)


class TestHierarchy:
    def test_structure_counts(self, accelerator, tiny_architecture):
        assert accelerator.num_aps == tiny_architecture.total_aps
        addresses = list(accelerator.ap_addresses())
        assert len(addresses) == tiny_architecture.total_aps
        assert len(set(addresses)) == tiny_architecture.total_aps

    def test_validate_address(self, accelerator):
        accelerator.validate_address((0, 0, 0))
        with pytest.raises(CapacityError):
            accelerator.validate_address((5, 0, 0))
        with pytest.raises(CapacityError):
            accelerator.validate_address((0, 9, 0))
        with pytest.raises(CapacityError):
            accelerator.validate_address((0, 0, 9))

    def test_describe_mentions_dimensions(self, accelerator):
        text = accelerator.describe()
        assert "APs" in text
        assert "64x64" in text


class TestRuntimeLedgers:
    def test_record_tile_stats_aggregates_per_tile(self, accelerator):
        from repro.cam.stats import CAMStats

        accelerator.record_tile_stats((0, 0, 0), CAMStats(search_phases=3))
        accelerator.record_tile_stats((0, 0, 1), CAMStats(search_phases=4))
        accelerator.record_tile_stats((0, 1, 0), CAMStats(write_phases=5))
        ledger = accelerator.tile_stats()
        assert ledger[(0, 0)].search_phases == 7
        assert ledger[(0, 1)].write_phases == 5
        assert accelerator.total_stats.search_phases == 7
        assert accelerator.total_stats.write_phases == 5

    def test_charge_movement_accumulates_per_scope(self, accelerator):
        cost = accelerator.charge_movement(128.0, TransferScope.INTRA_TILE)
        assert cost.bits == 128.0
        accelerator.charge_movement(64.0, TransferScope.INTRA_TILE)
        ledger = accelerator.movement_ledger()
        assert ledger[TransferScope.INTRA_TILE].bits == 192.0
        accelerator.reset_ledgers()
        assert not accelerator.movement_ledger()


class TestTransferScopes:
    def test_intra_tile(self, accelerator):
        assert accelerator.transfer_scope((0, 0, 0), (0, 0, 1)) is TransferScope.INTRA_TILE

    def test_intra_bank(self, accelerator):
        assert accelerator.transfer_scope((0, 0, 0), (0, 1, 0)) is TransferScope.INTRA_BANK

    def test_global_scope(self):
        config = ArchitectureConfig(ap=APConfig(rows=16, columns=16), num_banks=2)
        accelerator = Accelerator(config)
        assert accelerator.transfer_scope((0, 0, 0), (1, 0, 0)) is TransferScope.GLOBAL
