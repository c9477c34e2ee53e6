"""Unit tests for the pipeline's mempool admission and block builder."""

import pytest

from repro.api import issue_one
from repro.chain import Blockchain
from repro.chain.transaction import Transaction
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet, TokenType
from repro.core.acr import RuleSet
from repro.core.token import Token
from repro.core.token_request import TokenRequest
from repro.core.token_service import TokenService
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.pipeline import BitmapView, BlockBuilder, Mempool, RejectReason


@pytest.fixture
def cache():
    return SignatureCache(maxsize=16384)


@pytest.fixture
def batch_chain(cache):
    chain = Blockchain(auto_mine=False)
    chain.evm.signature_cache = cache
    return chain


@pytest.fixture
def service(batch_chain, cache):
    return TokenService(
        keypair=KeyPair.from_seed("pool-ts"),
        rules=RuleSet(),
        clock=batch_chain.clock,
        signature_cache=cache,
    )


@pytest.fixture
def protected(batch_chain, service):
    batch_chain.auto_mine = True
    owner = batch_chain.create_account("owner", seed="pool-owner")
    receipt = OwnerWallet(owner, service).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=1024
    )
    batch_chain.auto_mine = False
    assert receipt.success
    return receipt.return_value


@pytest.fixture
def client(batch_chain):
    batch_chain.auto_mine = True
    account = batch_chain.create_account("client", seed="pool-client")
    batch_chain.auto_mine = False
    return account


@pytest.fixture
def mempool(batch_chain, cache):
    return Mempool(batch_chain, signature_cache=cache)


def _token_tx(client, protected, service, one_time=False, amount=1, nonce=None):
    request = TokenRequest.method_token(
        protected.this, client.address, "submit", one_time=one_time
    )
    token = issue_one(service, request)
    tx = Transaction(
        sender=client.address,
        to=protected.this,
        nonce=client.nonce if nonce is None else nonce,
        method="submit",
        args=(amount,),
        kwargs={"token": token.to_bytes()},
        gas_limit=300_000,
    )
    return tx.sign_with(client.keypair), token


# --- admission ---------------------------------------------------------------------


def test_admits_valid_token_transaction(mempool, client, protected, service):
    tx, _ = _token_tx(client, protected, service)
    decision = mempool.admit(tx)
    assert decision.admitted, decision.reason
    assert len(mempool) == 1


def test_rejects_duplicate_transaction(mempool, client, protected, service):
    tx, _ = _token_tx(client, protected, service)
    assert mempool.admit(tx).admitted
    decision = mempool.admit(tx)
    assert not decision.admitted
    assert decision.reason == "duplicate transaction"


def test_rejects_invalid_signature(mempool, client, protected, service):
    tx, _ = _token_tx(client, protected, service)
    tx.signature = None
    assert mempool.admit(tx).reason == "invalid signature"


def test_rejects_bad_nonce(mempool, client, protected, service):
    tx, _ = _token_tx(client, protected, service, nonce=7)
    assert mempool.admit(tx).reason == "bad nonce"


def test_tracks_in_pool_nonces(mempool, client, protected, service):
    first, _ = _token_tx(client, protected, service, nonce=0)
    second, _ = _token_tx(client, protected, service, nonce=1)
    assert mempool.admit(first).admitted
    assert mempool.admit(second).admitted  # nonce 1 is next *given the pool*
    replay, _ = _token_tx(client, protected, service, amount=9, nonce=1)
    assert mempool.admit(replay).reason == "bad nonce"


def test_rejects_expired_token(mempool, batch_chain, client, protected, service):
    tx, _ = _token_tx(client, protected, service)
    batch_chain.clock.advance(service.token_lifetime + 60)
    assert mempool.admit(tx).reason == "expired token"


def test_rejects_malformed_token(mempool, client, protected, service):
    tx, _ = _token_tx(client, protected, service)
    tx.kwargs["token"] = b"\xff" * 13
    tx.sign_with(client.keypair)
    assert mempool.admit(tx).reason == "malformed or missing token entry"


def test_rejects_foreign_ts_signature_when_cached(mempool, client, protected, service, cache):
    """A token signed by an untrusted key is refused at admission once its
    recovery is known to the cache (here: primed by the foreign issuer)."""
    foreign = TokenService(
        keypair=KeyPair.from_seed("untrusted-ts"),
        rules=RuleSet(),
        clock=service.clock,
        signature_cache=cache,  # foreign issuer shares the node cache
    )
    tx, _ = _token_tx(client, protected, foreign)
    assert mempool.admit(tx).reason == "token not signed by the trusted Token Service"


def test_unknown_signature_defers_to_execution(mempool, client, protected, service, cache):
    """Foreign tokens with unknown recovery are admitted (screening is
    cheap-only) and left for the executor / EVM to refuse."""
    foreign = TokenService(
        keypair=KeyPair.from_seed("untrusted-ts-2"),
        rules=RuleSet(),
        clock=service.clock,
        signature_cache=None,  # nothing primes the node cache
    )
    tx, _ = _token_tx(client, protected, foreign)
    assert mempool.admit(tx).admitted


def test_duplicate_one_time_index_screened_in_pool(mempool, client, protected, service):
    tx, token = _token_tx(client, protected, service, one_time=True, nonce=0)
    assert mempool.admit(tx).admitted
    # A second transaction reusing the same token (same index), next nonce.
    replayed = Transaction(
        sender=client.address,
        to=protected.this,
        nonce=1,
        method="submit",
        args=(2,),
        kwargs={"token": token.to_bytes()},
        gas_limit=300_000,
    ).sign_with(client.keypair)
    assert mempool.admit(replayed).reason == "duplicate one-time index in pool"


def test_consumed_index_screened_against_chain_state(
    mempool, batch_chain, client, protected, service
):
    tx, token = _token_tx(client, protected, service, one_time=True, nonce=0)
    batch_chain.auto_mine = True
    receipt = batch_chain.send_transaction(tx)
    assert receipt.success
    batch_chain.auto_mine = False
    replayed = Transaction(
        sender=client.address,
        to=protected.this,
        nonce=1,
        method="submit",
        args=(2,),
        kwargs={"token": token.to_bytes()},
        gas_limit=300_000,
    ).sign_with(client.keypair)
    assert mempool.admit(replayed).reason == "one-time index already consumed on-chain"


def test_reservation_freed_after_removal(mempool, client, protected, service):
    tx, _ = _token_tx(client, protected, service, one_time=True)
    assert mempool.admit(tx).admitted
    assert mempool.stats()["reserved_one_time_indexes"] == 1
    mempool.remove([tx])
    assert mempool.stats()["reserved_one_time_indexes"] == 0
    assert len(mempool) == 0


def test_plain_transfer_needs_no_token(mempool, batch_chain, client):
    recipient = KeyPair.from_seed("someone").address
    tx = Transaction(
        sender=client.address, to=recipient, nonce=0, value=10
    ).sign_with(client.keypair)
    assert mempool.admit(tx).admitted


def test_cumulative_pool_spend_cannot_exceed_balance(mempool, batch_chain, client):
    """Two transfers each covered by the balance -- but not jointly -- must
    not both be admitted: the second would blow up mid-block (admitted
    transactions skip re-validation at inclusion)."""
    balance = batch_chain.state.balance_of(client.address)
    recipient = KeyPair.from_seed("someone").address
    first = Transaction(
        sender=client.address, to=recipient, nonce=0, value=balance
    ).sign_with(client.keypair)
    second = Transaction(
        sender=client.address, to=recipient, nonce=1, value=balance
    ).sign_with(client.keypair)
    assert mempool.admit(first).admitted
    assert mempool.admit(second).reason == "insufficient funds"
    # Inclusion frees the committed value again.
    mempool.remove([first])
    assert mempool.stats()["pooled"] == 0


def test_oversized_gas_limit_rejected_at_admission(mempool, batch_chain, client):
    """A transaction that can never fit one block must not be pooled -- it
    would strand forever (holding any one-time index it reserves)."""
    recipient = KeyPair.from_seed("someone").address
    tx = Transaction(
        sender=client.address, to=recipient, nonce=0, value=1,
        gas_limit=mempool.max_gas_limit + 1,
    ).sign_with(client.keypair)
    decision = mempool.admit(tx)
    assert decision.reason == "transaction gas limit exceeds the block gas limit"
    assert len(mempool) == 0


def test_reject_reasons_are_stable(mempool, client, protected, service):
    """Names and values are pinned like the wire's ``ErrorCode``: the values
    are the free-text strings admission always answered with, byte for byte
    (committed baselines and ``stats()["rejected"]`` are keyed by them)."""
    assert {reason.name: reason.value for reason in RejectReason} == {
        "DUPLICATE_TRANSACTION": "duplicate transaction",
        "GAS_LIMIT": "transaction gas limit exceeds the block gas limit",
        "BAD_NONCE": "bad nonce",
        "INSUFFICIENT_FUNDS": "insufficient funds",
        "MALFORMED_TOKEN": "malformed or missing token entry",
        "EXPIRED_TOKEN": "expired token",
        "UNTRUSTED_TOKEN": "token not signed by the trusted Token Service",
        "INDEX_IN_POOL": "duplicate one-time index in pool",
        "NO_BITMAP": "contract has no one-time bitmap",
        "INDEX_BEHIND_WINDOW": "one-time index fell behind the bitmap window (token miss)",
        "INDEX_CONSUMED": "one-time index already consumed on-chain",
        "INVALID_SIGNATURE": "invalid signature",
    }
    tx, _ = _token_tx(client, protected, service, nonce=7)
    decision = mempool.admit(tx)
    # A member where a string was: equal to it, printed as it, counted under it.
    assert decision.reason is RejectReason.BAD_NONCE
    assert decision.reason == "bad nonce" and f"{decision.reason}" == "bad nonce"
    assert decision.reason in {"bad nonce"}
    assert mempool.stats()["rejected"] == {"bad nonce": 1}
    assert all(type(key) is str for key in mempool.stats()["rejected"])
    assert BitmapView(mempool.chain.state, client.address).screen(0) is RejectReason.NO_BITMAP


# --- cheap screens run before the curve recovery ------------------------------------


def _ledger_shaped_tx(client, protected, service, nonce):
    """What the performance ledger submits: ``submit(amount=, token=)`` as
    keyword arguments under the default call gas limit."""
    from repro.pipeline.load import DEFAULT_CALL_GAS_LIMIT

    request = TokenRequest.method_token(
        protected.this, client.address, "submit", one_time=True
    )
    tx = Transaction(
        sender=client.address,
        to=protected.this,
        nonce=nonce,
        method="submit",
        kwargs={"amount": 7, "token": issue_one(service, request).to_bytes()},
        gas_limit=DEFAULT_CALL_GAS_LIMIT,
    )
    return tx.sign_with(client.keypair)


def test_one_admission_costs_at_most_five_keccak_permutations(
    mempool, client, protected, service, keccak_permutations, packed_permutations
):
    """The exact-count guard: hash + signing digest share the payload's full
    blocks and then one packed permutation (3 scalar + 1 packed, not 4 + 3)
    and a seen sender's address comes out of the key -> address memo (0, not
    1).  Before any of it an admission paid 8.  Both counters start after
    issuance: since the session message rides the token's datagram, each
    lone ``submit`` that made these tokens is a packed permutation of its own,
    and the admission's count must not see it."""
    from repro.crypto.keys import _address_of

    first = _ledger_shaped_tx(client, protected, service, nonce=0)
    second = _ledger_shaped_tx(client, protected, service, nonce=1)
    payload = len(first.signing_payload())
    # Ledger-shaped: two shared full blocks, a 3- and a 4-permutation message.
    assert (payload // 136 + 1, (payload + 65) // 136 + 1) == (3, 4)

    _address_of.cache_clear()
    calls, packed = keccak_permutations, packed_permutations
    calls[0] = packed[0] = 0
    assert mempool.admit(first).admitted
    # A sender never seen before: one address hash.
    assert (calls[0], packed[0]) == (4, 1)
    calls[0] = packed[0] = 0
    assert mempool.admit(second).admitted
    assert (calls[0], packed[0]) == (3, 1)


def _ledger_shaped_batch(batch_chain, protected, service, count, nonces=None):
    """One ledger-shaped transaction from each of ``count`` fresh senders."""
    accounts = [
        batch_chain.create_account(f"batch-{i}", seed=f"pool-batch-{i}") for i in range(count)
    ]
    nonces = nonces or [0] * count
    return [
        _ledger_shaped_tx(account, protected, service, nonce=nonce)
        for account, nonce in zip(accounts, nonces)
    ]


def test_a_batch_admission_hashes_its_transactions_by_lanes(
    batch_chain, mempool, protected, service, keccak_permutations, packed_permutations
):
    """32 transactions, 32 three-block and 32 four-block messages: four
    packed permutations -- three at width 64, then the longer half alone at
    width 32 -- and not one scalar one (senders' addresses are memoized).
    It was seven while ``keccak256_many`` hashed one length group at a time;
    the counters start after issuance, whose lone submissions pack too."""
    txs = _ledger_shaped_batch(batch_chain, protected, service, 32)
    keccak_permutations[0] = packed_permutations[0] = 0
    decisions = mempool.admit_many(txs)
    assert all(decision.admitted for decision in decisions)
    assert (keccak_permutations[0], packed_permutations[0]) == (0, 4)
    from repro.crypto.keccak import keccak256

    for tx in txs:
        payload = tx.signing_payload()
        assert tx.signing_digest() == keccak256(payload)
        assert tx.hash() == keccak256(payload + tx.signature.to_bytes())


def test_a_single_admission_packs_only_its_own_two_digests(
    mempool, client, protected, service, packed_permutations
):
    """Below the packed crossover nothing is batched across transactions: the
    one packed permutation an admission makes is its own signing digest and
    hash as two ragged lanes (``keccak256_shared_prefix``).  Issuing each
    token is a packed permutation too (the session message beside the
    datagram), so the count starts once the transaction exists."""
    first = _ledger_shaped_tx(client, protected, service, nonce=0)
    second = _ledger_shaped_tx(client, protected, service, nonce=1)
    packed_permutations[0] = 0
    assert mempool.admit(first).admitted
    assert packed_permutations[0] == 1
    assert mempool.admit_many([second])[0].admitted
    assert packed_permutations[0] == 2


def test_admit_many_walks_a_generator_once_and_in_order(
    batch_chain, mempool, protected, service
):
    txs = _ledger_shaped_batch(batch_chain, protected, service, 3, nonces=[0, 5, 0])
    pulled = []

    def stream():
        for tx in txs:
            pulled.append(tx)
            yield tx

    decisions = mempool.admit_many(stream())
    assert pulled == txs
    assert [decision.reason for decision in decisions] == ["admitted", "bad nonce", "admitted"]
    assert [tx.hash() for tx in mempool.transactions()] == [txs[0].hash(), txs[2].hash()]


def test_batch_hash_time_is_shared_over_the_batch_admission_samples(
    batch_chain, mempool, protected, service
):
    """Count and sum, on a clock that ticks once per read: one sample per
    transaction, and their sum is every tick between the first read and the
    last -- the batch hash falls inside the stage, not between its samples."""

    class TickingObs:
        def __init__(self):
            self.now = 0.0
            self.samples = []

        def clock(self):
            self.now += 1.0
            return self.now

        def record_stage(self, stage, seconds):
            assert stage == "admission"
            self.samples.append(seconds)

    txs = _ledger_shaped_batch(batch_chain, protected, service, 8)
    obs = mempool.obs = TickingObs()
    assert all(decision.admitted for decision in mempool.admit_many(txs))
    assert len(obs.samples) == 8
    assert sum(obs.samples) == pytest.approx(1.0 + 8)  # the batch hash, then 8 admissions
    assert obs.samples == pytest.approx([1.0 / 8 + 1.0] * 8)
    assert mempool.admit_many([]) == [] and len(obs.samples) == 8


def test_hash_only_callers_do_not_pay_for_the_signing_digest(
    client, protected, service, keccak_permutations
):
    tx = _ledger_shaped_tx(client, protected, service, nonce=0)
    calls = keccak_permutations
    calls[0] = 0
    digest = tx.hash()
    assert calls[0] == 4
    assert tx.hash() == digest and calls[0] == 4  # memoized
    assert tx.verify_signature()
    assert calls[0] <= 4 + 3 + 1  # the digest alone, plus at most one address


def test_digest_memo_is_two_digests_and_signing_never_fills_it(client, protected, service):
    tx = _ledger_shaped_tx(client, protected, service, nonce=0)
    assert (tx._hash, tx._signing_digest) == (None, None)
    tx.signing_digest()
    memo = (tx._hash, tx._signing_digest)
    assert all(isinstance(value, bytes) and len(value) == 32 for value in memo)
    from repro.crypto.keccak import keccak256

    payload = tx.signing_payload()
    assert memo == (keccak256(payload + tx.signature.to_bytes()), keccak256(payload))
    tx.sign_with(client.keypair)
    assert (tx._hash, tx._signing_digest) == (None, None)


def test_field_mutated_after_signing_fails_admission(mempool, client, protected, service):
    """``sign_with`` leaves the memo empty, so the node hashes the fields it
    received -- not the ones that were signed."""
    tx = _ledger_shaped_tx(client, protected, service, nonce=0)
    tx.kwargs["amount"] = 8
    assert not tx.verify_signature()
    assert mempool.admit(tx).reason == "invalid signature"


def _forged(tx):
    """The same transaction under somebody else's signature."""
    tx.sign_with(KeyPair.from_seed("not-the-sender"))
    return tx


def test_refusal_precedence_when_two_checks_fail(
    mempool, batch_chain, client, protected, service
):
    """Screens run cheapest first and the signature last; a transaction that
    fails two of them is refused for the earlier one."""
    # gas limit before nonce
    tx = _ledger_shaped_tx(client, protected, service, nonce=9)
    tx.gas_limit = mempool.max_gas_limit + 1
    tx.sign_with(client.keypair)
    assert mempool.admit(tx).reason == "transaction gas limit exceeds the block gas limit"
    # nonce before balance
    recipient = KeyPair.from_seed("someone").address
    balance = batch_chain.state.balance_of(client.address)
    tx = Transaction(sender=client.address, to=recipient, nonce=9, value=balance + 1)
    assert mempool.admit(tx.sign_with(client.keypair)).reason == "bad nonce"
    # balance before the token screens
    tx = _ledger_shaped_tx(client, protected, service, nonce=0)
    tx.value = balance + 1
    tx.kwargs["token"] = b"\xff" * 13
    assert mempool.admit(tx.sign_with(client.keypair)).reason == "insufficient funds"
    # every cheap screen before the signature
    tx = _forged(_ledger_shaped_tx(client, protected, service, nonce=9))
    assert mempool.admit(tx).reason == "bad nonce"
    tx = _ledger_shaped_tx(client, protected, service, nonce=0)
    tx.kwargs["token"] = b"\xff" * 13
    assert mempool.admit(_forged(tx)).reason == "malformed or missing token entry"
    spent = _ledger_shaped_tx(client, protected, service, nonce=0)
    assert mempool.admit(spent).admitted
    replay = _ledger_shaped_tx(client, protected, service, nonce=1)
    replay.kwargs["token"] = spent.kwargs["token"]
    assert mempool.admit(_forged(replay)).reason == "duplicate one-time index in pool"
    # ... and with nothing else wrong, the forgery is still refused
    tx = _forged(_ledger_shaped_tx(client, protected, service, nonce=1))
    assert mempool.admit(tx).reason == "invalid signature"


def test_replayed_index_is_refused_without_curve_math(
    mempool, client, protected, service, curve_multiplications
):
    spent = _ledger_shaped_tx(client, protected, service, nonce=0)
    assert mempool.admit(spent).admitted
    replay = _ledger_shaped_tx(client, protected, service, nonce=1)
    replay.kwargs["token"] = spent.kwargs["token"]
    replay.sign_with(client.keypair)

    curve_multiplications.clear()
    assert mempool.admit(replay).reason == "duplicate one-time index in pool"
    # Neither a recovery nor the known sender's table check was reached.
    assert sum(curve_multiplications.values()) == 0


# --- a sender seen twice is a fixed base ----------------------------------------------


def test_admission_recovers_a_new_sender_once_then_checks_against_its_key(
    mempool, cache, client, protected, service, curve_multiplications
):
    """Counts, not clocks: the first admission from a sender is the parent's
    one recovery, the second builds the key's table, and from the third on
    nothing but the prepared check runs."""
    txs = [_ledger_shaped_tx(client, protected, service, nonce=n) for n in range(5)]
    counts = curve_multiplications
    counts.clear()
    assert mempool.admit(txs[0]).admitted
    assert counts == {"ladders": 1, "lifts": 1}
    counts.clear()
    assert mempool.admit(txs[1]).admitted
    assert counts == {"builds": 1, "prepared": 1}
    counts.clear()
    assert [d.admitted for d in mempool.admit_many(txs[2:])] == [True] * 3
    assert counts == {"prepared": 3}
    stats = cache.stats()
    assert (stats["known_keys"], stats["key_checks"], stats["key_builds"]) == (1, 4, 1)


def test_forgery_under_a_known_sender_costs_one_check_and_changes_nothing(
    mempool, cache, client, protected, service, curve_multiplications
):
    for nonce in range(2):
        assert mempool.admit(_ledger_shaped_tx(client, protected, service, nonce)).admitted
    known = dict(cache._keys)
    forged = _forged(_ledger_shaped_tx(client, protected, service, nonce=2))
    curve_multiplications.clear()
    assert mempool.admit(forged).reason == "invalid signature"
    assert curve_multiplications == {"prepared": 1}
    assert dict(cache._keys) == known
    assert mempool.admit(_ledger_shaped_tx(client, protected, service, nonce=2)).admitted


def test_a_valid_signature_under_somebody_elses_name_teaches_no_key(
    mempool, cache, batch_chain, protected
):
    ghost = KeyPair.from_seed("never-seen")
    tx = Transaction(sender=ghost.address, to=protected.this, nonce=0)
    assert mempool.admit(_forged(tx)).reason == "invalid signature"
    assert cache.stats()["known_keys"] == 0  # neither the forger's key nor the ghost's


def test_admission_leaves_the_lookup_counters_as_verify_signature_did(
    mempool, cache, client, protected, service
):
    """``crypto.sigcache.hit_ratio`` / ``misses_per_tx`` / ``entries`` in the
    frozen ledger read ``hits`` / ``misses`` / ``len()``: a sender's second
    and third admission move them exactly as the first -- which is the
    parent's path -- does."""
    moves = []
    for nonce in range(3):
        tx = _ledger_shaped_tx(client, protected, service, nonce)
        before = (cache.hits, cache.misses, len(cache))
        assert mempool.admit(tx).admitted
        moves.append(tuple(b - a for a, b in zip(before, (cache.hits, cache.misses, len(cache)))))
    assert moves[1] == moves[2] == moves[0]


def test_decisions_match_the_recover_and_compare_oracle(
    mempool, cache, batch_chain, protected, service, monkeypatch
):
    """Three senders x four transactions, then a forged, an unsigned and a
    wrong-``v`` one, through ``admit_many`` and through a second pool whose
    signature check is the parent's ``tx.verify_signature()``: identical
    decisions and reject counters."""
    from repro.crypto.ecdsa import Signature

    batch_chain.auto_mine = True
    senders = [batch_chain.create_account(f"s{i}", seed=f"pool-oracle-{i}") for i in range(3)]
    batch_chain.auto_mine = False
    txs = [
        _ledger_shaped_tx(sender, protected, service, nonce)
        for nonce in range(4)
        for sender in senders
    ]
    # Mid-stream, under the nonce the pool expects next from a sender it knows.
    forged = _forged(_ledger_shaped_tx(senders[0], protected, service, nonce=3))
    unsigned = _ledger_shaped_tx(senders[1], protected, service, nonce=4)
    unsigned.signature = None
    wrong_v = _ledger_shaped_tx(senders[2], protected, service, nonce=4)
    good = wrong_v.signature
    wrong_v.signature = Signature(good.r, good.s, good.v ^ 1)
    stranger = _forged(
        Transaction(sender=KeyPair.from_seed("stranger").address, to=protected.this, nonce=0)
    )
    txs = txs[:7] + [forged] + txs[7:] + [unsigned, wrong_v, stranger]

    decisions = mempool.admit_many(txs)
    # Every signed transaction from a sender already admitted once went
    # through the known-key check, the two forgeries among them.
    assert cache.key_checks == 9 + 2

    oracle = Mempool(batch_chain, signature_cache=cache)
    by_digest = {tx.signing_digest(): tx for tx in txs}
    monkeypatch.setattr(
        cache,
        "signed_by",
        lambda digest, signature, address: by_digest[digest].verify_signature(),
    )
    assert not unsigned.verify_signature()
    assert oracle.admit_many(txs) == decisions
    assert oracle.rejected == mempool.rejected == {"invalid signature": 4}
    assert [d.admitted for d in decisions].count(True) == 12


def test_unauthenticated_sender_never_grows_the_world_state(mempool, batch_chain, protected):
    """The nonce/balance screens now run before the signature is checked and
    the state's reads create what they look up: a forged sender address must
    be refused without leaving an account record behind."""
    ghost = KeyPair.from_seed("never-funded")
    accounts = set(batch_chain.state.addresses())
    tx = Transaction(sender=ghost.address, to=protected.this, nonce=0)
    assert mempool.admit(_forged(tx)).reason == "invalid signature"
    tx = Transaction(sender=ghost.address, to=protected.this, nonce=3)
    assert mempool.admit(tx.sign_with(ghost)).reason == "bad nonce"
    assert set(batch_chain.state.addresses()) == accounts


# --- the read-only bitmap view -------------------------------------------------------


def test_bitmap_view_reads_window_without_mutating(
    batch_chain, client, protected, service
):
    view = BitmapView(batch_chain.evm.state, protected.this)
    assert view.size == 1024
    assert view.screen(5) is None  # unknown index: may be accepted
    tx, token = _token_tx(client, protected, service, one_time=True)
    batch_chain.auto_mine = True
    assert batch_chain.send_transaction(tx).success
    batch_chain.auto_mine = False
    assert view.screen(token.index) == "one-time index already consumed on-chain"
    # The view itself never changed contract state.
    assert protected.bitmap_state()["size"] == 1024


def test_bitmap_view_on_contract_without_bitmap(batch_chain, service):
    batch_chain.auto_mine = True
    owner = batch_chain.create_account("owner2", seed="pool-owner-2")
    receipt = OwnerWallet(owner, service).deploy_protected(ProtectedRecorder)
    batch_chain.auto_mine = False
    view = BitmapView(batch_chain.evm.state, receipt.return_value.this)
    assert view.screen(0) == "contract has no one-time bitmap"


# --- the block builder -----------------------------------------------------------------


def test_builder_packs_under_gas_limit(mempool, client, protected, service):
    for nonce in range(6):
        tx, _ = _token_tx(client, protected, service, nonce=nonce)
        assert mempool.admit(tx).admitted
    builder = BlockBuilder(mempool, block_gas_limit=4 * 300_000)
    plan = builder.build()
    assert plan.transaction_count == 4
    assert plan.gas_budget == 4 * 300_000
    assert plan.deferred == 2
    assert 0 < plan.fill_ratio <= 1


def test_builder_preserves_nonce_order_on_deferral(
    mempool, batch_chain, protected, service
):
    batch_chain.auto_mine = True
    a = batch_chain.create_account("a", seed="builder-a")
    b = batch_chain.create_account("b", seed="builder-b")
    batch_chain.auto_mine = False
    txs = []
    for nonce in range(3):
        tx, _ = _token_tx(a, protected, service, nonce=nonce)
        txs.append(tx)
        tx, _ = _token_tx(b, protected, service, nonce=nonce)
        txs.append(tx)
    for tx in txs:
        assert mempool.admit(tx).admitted
    # Room for three calls only: a0, b0, a1 fit; once a2 would overflow the
    # limit nothing later from the same sender may jump the queue.
    builder = BlockBuilder(mempool, block_gas_limit=3 * 300_000)
    plan = builder.build()
    nonces_by_sender = {}
    for tx in plan.transactions:
        nonces_by_sender.setdefault(tx.sender, []).append(tx.nonce)
    for sender, nonces in nonces_by_sender.items():
        assert nonces == sorted(nonces)
        assert nonces[0] == 0  # no sender starts mid-sequence
    assert plan.transaction_count == 3


def test_builder_leaves_pool_untouched_until_removal(mempool, client, protected, service):
    tx, _ = _token_tx(client, protected, service)
    mempool.admit(tx)
    builder = BlockBuilder(mempool)
    plan = builder.build()
    assert plan.transaction_count == 1
    assert len(mempool) == 1  # crash safety: still pooled
    mempool.remove(plan.transactions)
    assert len(mempool) == 0


def test_builder_rejects_nonpositive_gas_limit(mempool):
    with pytest.raises(ValueError):
        BlockBuilder(mempool, block_gas_limit=0)


def test_empty_pool_builds_empty_plan(mempool):
    plan = BlockBuilder(mempool).build()
    assert not plan
    assert plan.transaction_count == 0


# --- misc -------------------------------------------------------------------------------


def test_token_type_bundle_entry_screened(mempool, batch_chain, client, protected, service):
    """A call-chain bundle missing this contract's entry is refused."""
    from repro.core.call_chain import TokenBundle

    other = KeyPair.from_seed("other-contract").address
    request = TokenRequest.method_token(protected.this, client.address, "submit")
    token = issue_one(service, request)
    bundle = TokenBundle({other: token.to_bytes()})
    tx = Transaction(
        sender=client.address,
        to=protected.this,
        nonce=0,
        method="submit",
        args=(1,),
        kwargs={"token": bundle.to_bytes()},
        gas_limit=300_000,
    ).sign_with(client.keypair)
    assert mempool.admit(tx).reason == "malformed or missing token entry"


def test_admission_accepts_token_object_argument(mempool, client, protected, service):
    request = TokenRequest.method_token(protected.this, client.address, "submit")
    token = issue_one(service, request)
    assert isinstance(token, Token)
    tx = Transaction(
        sender=client.address,
        to=protected.this,
        nonce=0,
        method="submit",
        args=(1,),
        kwargs={"token": token.to_bytes()},
        gas_limit=300_000,
    ).sign_with(client.keypair)
    assert mempool.admit(tx).admitted
    assert TokenType.METHOD is token.token_type


# --- executor pre-warm accounting --------------------------------------------------


def test_prewarm_counts_intra_block_replays_as_hits(batch_chain, client, protected):
    """Two transactions carrying the same uncached (non-one-time) token: the
    batch computes the curve math once, so pre_warm must report one miss and
    one hit -- `misses` means "curve math ran here"."""
    from repro.pipeline.executor import BlockExecutor

    # A TS that does NOT share the node cache, so nothing is primed.
    foreign = TokenService(
        keypair=KeyPair.from_seed("pool-ts"),  # same trusted key, separate box
        rules=RuleSet(),
        clock=batch_chain.clock,
    )
    request = TokenRequest.method_token(
        protected.this, client.address, "submit", one_time=False
    )
    token = issue_one(foreign, request)
    txs = [
        Transaction(
            sender=client.address,
            to=protected.this,
            nonce=client.nonce + i,
            method="submit",
            args=(i,),
            kwargs={"token": token.to_bytes()},
            gas_limit=300_000,
        ).sign_with(client.keypair)
        for i in range(2)
    ]
    executor = BlockExecutor(batch_chain)
    hits, misses = executor.pre_warm(txs)
    assert (hits, misses) == (1, 1)
    # Once warmed, the same tokens are pure hits.
    assert executor.pre_warm(txs) == (2, 0)


def test_prewarm_hashes_a_plan_of_foreign_tokens_by_lanes(
    batch_chain, client, protected, keccak_permutations, packed_permutations
):
    """Eight uncached one-block datagrams: one packed permutation, no scalar
    one (counted from after issuance, which packs its own)."""
    from repro.pipeline.executor import BlockExecutor

    foreign = TokenService(
        keypair=KeyPair.from_seed("pool-ts"), rules=RuleSet(), clock=batch_chain.clock
    )
    txs = [
        _token_tx(client, protected, foreign, one_time=True, nonce=i)[0] for i in range(8)
    ]
    executor = BlockExecutor(batch_chain)
    keccak_permutations[0] = packed_permutations[0] = 0
    assert executor.pre_warm(txs) == (0, 8)
    assert (keccak_permutations[0], packed_permutations[0]) == (0, 1)
    assert executor.pre_warm(txs) == (8, 0)
    assert packed_permutations[0] == 1


# --- Alg. 1 is a known-key check: pre-warm, the verifier and the mempool ask one question ----


def _foreign_service(batch_chain, seed="pool-ts"):
    """The trusted key (by default) in a box that does not share the node cache."""
    return TokenService(keypair=KeyPair.from_seed(seed), rules=RuleSet(), clock=batch_chain.clock)


def test_prewarm_checks_foreign_tokens_against_the_trusted_key_it_has_learned(
    batch_chain, cache, client, protected, curve_multiplications
):
    """Counts, not clocks: N foreign tokens under one trusted key are one
    plain recovery, one table build and N - 1 fixed-base checks; `misses`
    still means "curve math ran here", and a warm block runs none."""
    from repro.pipeline.executor import BlockExecutor

    foreign = _foreign_service(batch_chain)
    txs = [_token_tx(client, protected, foreign, one_time=True, nonce=i)[0] for i in range(6)]
    executor = BlockExecutor(batch_chain)
    curve_multiplications.clear()
    assert executor.pre_warm(txs[:1]) == (0, 1)
    assert curve_multiplications == {"ladders": 1, "lifts": 1}
    curve_multiplications.clear()
    assert executor.pre_warm(txs) == (1, 5)
    assert curve_multiplications == {"builds": 1, "prepared": 5}
    stats = cache.stats()
    assert (stats["known_keys"], stats["key_builds"], stats["key_checks"]) == (1, 1, 5)
    curve_multiplications.clear()
    assert executor.pre_warm(txs) == (6, 0)
    for tx in txs:
        batch_chain.enqueue_validated(tx)
    assert all(receipt.success for receipt in batch_chain.mine_block())
    assert not curve_multiplications  # the in-EVM verifier found every answer


def test_a_forged_token_is_refused_by_the_check_then_by_the_mempool_and_plants_nothing(
    batch_chain, cache, mempool, client, protected, curve_multiplications
):
    from repro.pipeline.executor import BlockExecutor

    forger = _foreign_service(batch_chain, seed="pool-forger")
    executor = BlockExecutor(batch_chain)
    forged = [
        _token_tx(client, protected, forger, one_time=bool(i), nonce=i)[0] for i in range(3)
    ]
    # Unknown to the cache: admission defers to the pre-warm, which refuses it
    # at the price of a recovery (the trusted key is not known yet) ...
    assert mempool.admit(forged[0]).admitted
    curve_multiplications.clear()
    assert executor.pre_warm(forged[:1]) == (0, 1)
    assert curve_multiplications == {"ladders": 1, "lifts": 1}
    assert cache.stats()["known_keys"] == 1  # the sender's; not the forger's, not the TS's
    assert client.address in cache._keys
    # ... and the verdict is what the mempool's screen reads from then on.
    replay = Transaction(
        sender=client.address, to=protected.this, nonce=1, method="submit", args=(9,),
        kwargs={"token": forged[0].kwargs["token"]}, gas_limit=300_000,
    ).sign_with(client.keypair)
    curve_multiplications.clear()
    assert mempool.admit(replay).reason is RejectReason.UNTRUSTED_TOKEN
    assert not curve_multiplications
    # Once the node has met the trusted key twice, a forgery costs one check.
    genuine = _foreign_service(batch_chain)
    warm = [_token_tx(client, protected, genuine, one_time=True, nonce=i)[0] for i in range(2)]
    assert executor.pre_warm(warm) == (0, 2)
    curve_multiplications.clear()
    assert executor.pre_warm(forged[1:]) == (0, 2)
    assert curve_multiplications == {"prepared": 2}
    assert cache.key_builds == 1
    batch_chain.enqueue_validated(forged[0])
    (receipt,) = batch_chain.mine_block()
    assert not receipt.success and "SMACS" in receipt.error


def test_a_contract_that_stores_no_trusted_signer_is_never_warmed_and_runs_no_curve_math(
    batch_chain, cache, client, protected, curve_multiplications
):
    from repro.core.verifier import TS_ADDRESS_SLOT
    from repro.pipeline.executor import BlockExecutor

    foreign = _foreign_service(batch_chain)
    tx, _ = _token_tx(client, protected, foreign)
    batch_chain.state.storage_delete(protected.this, TS_ADDRESS_SLOT)
    curve_multiplications.clear()
    assert BlockExecutor(batch_chain).pre_warm([tx]) == (0, 0)
    batch_chain.enqueue_validated(tx)
    (receipt,) = batch_chain.mine_block()
    assert not receipt.success and "SMACS" in receipt.error
    assert not curve_multiplications
    assert len(cache._recovered) == 0


def test_the_verdict_follows_the_contracts_trusted_address(
    batch_chain, cache, mempool, client, protected
):
    """A refusal is about one address: when the owner re-points the contract
    at the key that signed, the stale verdict answers nothing and the token
    is checked again -- and accepted."""
    from repro.core.verifier import TS_ADDRESS_SLOT
    from repro.pipeline.executor import BlockExecutor

    successor = _foreign_service(batch_chain, seed="pool-successor")
    tx, token = _token_tx(client, protected, successor)
    executor = BlockExecutor(batch_chain)
    assert executor.pre_warm([tx]) == (0, 1)  # refused: not the trusted service
    assert mempool.admit(tx).reason is RejectReason.UNTRUSTED_TOKEN
    batch_chain.state.storage_set(protected.this, TS_ADDRESS_SLOT, successor.keypair.address)
    assert mempool.admit(tx).admitted  # no verdict about the new address: deferred
    assert executor.pre_warm([tx]) == (0, 1)
    batch_chain.enqueue_validated(tx)
    (receipt,) = batch_chain.mine_block()
    assert receipt.success, receipt.error


def test_an_unrecoverable_signature_matches_no_stored_signer_not_even_the_zero_address(
    batch_chain, client, protected
):
    """Solidity's ``ecrecover`` answers the zero address for an invalid
    signature, so recover-and-compare accepted one at a contract that stored
    the zero address as its signer; the comparison itself fails closed."""
    from repro.chain.address import ZERO_ADDRESS
    from repro.core.verifier import TS_ADDRESS_SLOT
    from repro.crypto.ecdsa import Signature, SignatureError, recover

    tx, token = _token_tx(client, protected, _foreign_service(batch_chain))
    r = next(r for r in range(2, 64) if _raises(SignatureError, recover, b"\x00" * 32,
                                                Signature(r, token.signature.s, 0)))
    bogus = Token(token.token_type, token.expire, token.index, Signature(r, token.signature.s, 0))
    tx.kwargs["token"] = bogus.to_bytes()
    tx.sign_with(client.keypair)
    batch_chain.state.storage_set(protected.this, TS_ADDRESS_SLOT, ZERO_ADDRESS)
    batch_chain.enqueue_validated(tx)
    (receipt,) = batch_chain.mine_block()
    assert not receipt.success and "SMACS" in receipt.error


def _raises(error, call, *args) -> bool:
    try:
        call(*args)
    except error:
        return True
    return False
