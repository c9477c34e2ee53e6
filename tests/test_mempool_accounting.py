"""Regression tests for the mempool's per-sender accounting.

* ``Mempool.remove`` must not leave zeroed ``_pending_nonces`` /
  ``_pending_spend`` entries behind (one dict key per sender that ever passed
  through -- unbounded growth under sender churn), nor mask accounting
  underflows behind ``.get(sender, <fallback>)`` defaults;
* a transaction a batch chain queued in ``chain.pending`` holds its nonce
  against the mempool through ``Blockchain.next_nonce``; no pooled
  transaction is ever in ``chain.pending``, so none is counted twice.
"""

import pytest

from repro.chain import Blockchain
from repro.chain.transaction import Transaction
from repro.pipeline.mempool import Mempool


@pytest.fixture
def chain():
    return Blockchain(auto_mine=False)


@pytest.fixture
def mempool(chain):
    return Mempool(chain)


def _transfer(account, to, nonce, value=0):
    tx = Transaction(sender=account.address, to=to.address, nonce=nonce, value=value)
    return tx.sign_with(account.keypair)


# --- churn: tables must not grow one key per sender forever -------------------------


def test_sender_churn_leaves_no_tracked_entries(chain, mempool):
    """Millions-of-senders-shaped churn: admit/remove waves of distinct senders.

    After every wave drains, both per-sender tables must be empty -- the old
    code kept one zeroed entry per sender forever.
    """
    sink = chain.create_account("sink", seed="churn-sink")
    waves, senders_per_wave = 4, 30
    for wave in range(waves):
        accounts = [
            chain.create_account(seed=f"churn-{wave}-{i}")
            for i in range(senders_per_wave)
        ]
        txs = []
        for i, account in enumerate(accounts):
            # Mix value-carrying and zero-value traffic: both code paths.
            txs.append(_transfer(account, sink, nonce=0, value=7 if i % 2 else 0))
        decisions = mempool.admit_many(txs)
        assert all(d.admitted for d in decisions)
        assert mempool.stats()["tracked_nonce_senders"] == senders_per_wave
        mempool.remove(txs)
        stats = mempool.stats()
        assert stats["tracked_nonce_senders"] == 0
        assert stats["tracked_spend_senders"] == 0
        assert stats["accounting_underflows"] == 0
        assert len(mempool) == 0


def test_zero_value_calls_never_create_spend_entries(chain, mempool):
    sink = chain.create_account("sink", seed="zero-sink")
    sender = chain.create_account("sender", seed="zero-sender")
    txs = [_transfer(sender, sink, nonce=n, value=0) for n in range(3)]
    assert all(d.admitted for d in mempool.admit_many(txs))
    # While pooled: nonces are tracked, but no spend entry ever appears.
    assert mempool.stats()["tracked_nonce_senders"] == 1
    assert mempool.stats()["tracked_spend_senders"] == 0
    mempool.remove(txs)
    assert mempool.stats()["tracked_nonce_senders"] == 0


def test_partial_removal_keeps_remaining_counts(chain, mempool):
    sink = chain.create_account("sink", seed="partial-sink")
    sender = chain.create_account("sender", seed="partial-sender")
    txs = [_transfer(sender, sink, nonce=n, value=5) for n in range(3)]
    assert all(d.admitted for d in mempool.admit_many(txs))
    mempool.remove(txs[:1])
    stats = mempool.stats()
    assert stats["tracked_nonce_senders"] == 1
    assert stats["tracked_spend_senders"] == 1
    assert stats["accounting_underflows"] == 0
    mempool.remove(txs[1:])
    assert mempool.stats()["tracked_nonce_senders"] == 0
    assert mempool.stats()["tracked_spend_senders"] == 0


# --- underflows are counted, not masked ---------------------------------------------


def test_nonce_underflow_is_counted_not_masked(chain, mempool):
    sink = chain.create_account("sink", seed="uf-sink")
    sender = chain.create_account("sender", seed="uf-sender")
    tx = _transfer(sender, sink, nonce=0, value=0)
    assert mempool.admit(tx).admitted
    # White-box: corrupt the books the way the old fallback silently hid.
    del mempool._pending_nonces[sender.address]
    mempool.remove([tx])
    stats = mempool.stats()
    assert stats["accounting_underflows"] == 1
    # No resurrected entry either -- the table stays clean.
    assert stats["tracked_nonce_senders"] == 0


def test_spend_underflow_is_counted_not_masked(chain, mempool):
    sink = chain.create_account("sink", seed="ufs-sink")
    sender = chain.create_account("sender", seed="ufs-sender")
    tx = _transfer(sender, sink, nonce=0, value=100)
    assert mempool.admit(tx).admitted
    mempool._pending_spend[sender.address] = 40  # books disagree with the pool
    mempool.remove([tx])
    stats = mempool.stats()
    assert stats["accounting_underflows"] == 1
    assert stats["tracked_spend_senders"] == 0


def test_remove_of_unknown_tx_is_a_noop(chain, mempool):
    sink = chain.create_account("sink", seed="noop-sink")
    sender = chain.create_account("sender", seed="noop-sender")
    never_admitted = _transfer(sender, sink, nonce=0, value=3)
    mempool.remove([never_admitted])
    stats = mempool.stats()
    assert stats["accounting_underflows"] == 0
    assert stats["tracked_nonce_senders"] == 0
    assert stats["tracked_spend_senders"] == 0


# --- admission/inclusion handoff double-count ---------------------------------------


def test_enqueued_only_tx_still_counts_for_admission(chain, mempool):
    """A tx queued in ``chain.pending`` (never pooled) must still hold a nonce."""
    sink = chain.create_account("sink", seed="eo-sink")
    sender = chain.create_account("sender", seed="eo-sender")
    tx0 = _transfer(sender, sink, nonce=0, value=1)
    assert chain.send_transaction(tx0) is None  # batch mode: queued, not mined
    assert chain.pending == [tx0] and len(mempool) == 0
    replay = mempool.admit(_transfer(sender, sink, nonce=0, value=2))
    assert replay.reason == "bad nonce"
    assert mempool.admit(_transfer(sender, sink, nonce=1, value=1)).admitted
    duplicate_nonce = mempool.admit(_transfer(sender, sink, nonce=1, value=2))
    assert not duplicate_nonce.admitted
    assert duplicate_nonce.reason == "bad nonce"
    assert mempool.admit(_transfer(sender, sink, nonce=2, value=1)).admitted
