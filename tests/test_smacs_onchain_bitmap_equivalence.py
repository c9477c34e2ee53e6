"""The storage-backed bitmap in SMACSContract matches the list-of-bits Alg. 2
reference model."""

import pytest

from repro.chain.contract import external
from repro.core import OwnerWallet
from repro.core.bitmap import ListOfBitsBitmap
from repro.core.smacs_contract import SMACSContract


class BitmapProbe(SMACSContract):
    """Exposes the internal check-and-mark so tests can drive it directly."""

    def constructor(self, ts_address: bytes, one_time_bitmap_bits: int = 8,
                    ts_url: str | None = None) -> None:
        self.init_smacs(ts_address, one_time_bitmap_bits=one_time_bitmap_bits)

    @external
    def probe(self, index: int) -> bool:
        return self._bitmap_mark_used(index)


@pytest.fixture
def probe(chain, owner, token_service):
    return OwnerWallet(owner, token_service).deploy_protected(
        BitmapProbe, one_time_bitmap_bits=8
    ).return_value


def drive(chain, owner, probe, index):
    receipt = owner.transact(probe, "probe", index)
    assert receipt.success, receipt.error
    return receipt.return_value


@pytest.mark.parametrize("sequence", [
    [0, 1, 4, 5, 9, 13],                 # the paper's worked example
    [0, 0, 1, 1, 2],                      # immediate reuse
    [7, 2, 3, 15, 14, 2],                 # slide then miss
    [3, 100, 100, 101, 3],                # reset branch
    list(range(20)),                      # sequential workload
    [5, 13, 21, 29, 5, 13],               # repeated slides
])
def test_onchain_bitmap_matches_reference_model(chain, owner, probe, sequence):
    reference = ListOfBitsBitmap(8)
    for index in sequence:
        expected = reference.mark_used(index)
        actual = drive(chain, owner, probe, index)
        assert actual == expected, f"divergence at index {index} in {sequence}"
        assert probe.bitmap_state() == {
            "size": 8,
            "start": reference.start,
            "start_ptr": reference.start_ptr,
            "end": reference.end,
        }, f"state divergence at index {index} in {sequence}"


def test_onchain_bitmap_state_survives_across_transactions(chain, owner, probe):
    assert drive(chain, owner, probe, 0) is True
    assert drive(chain, owner, probe, 0) is False  # separate transaction, same state


def test_onchain_bitmap_reverted_transaction_leaves_no_mark(chain, owner, token_service):
    class RevertingProbe(BitmapProbe):
        @external
        def probe_then_fail(self, index: int) -> None:
            self._bitmap_mark_used(index)
            self.revert("after marking")

    probe = OwnerWallet(owner, token_service).deploy_protected(
        RevertingProbe, one_time_bitmap_bits=8
    ).return_value
    failed = owner.transact(probe, "probe_then_fail", 3)
    assert not failed.success
    # The mark was rolled back with the rest of the frame.
    assert drive(chain, owner, probe, 3) is True
