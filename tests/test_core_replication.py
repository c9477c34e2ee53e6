"""Tests for replicated Token Services and fail-over (§VII-B availability)."""

import pytest

from repro.api import issue_one
from repro.core import ClientWallet, TokenType
from repro.core.acr import WhitelistRule
from repro.core.replication import NoReplicaAvailable, ReplicatedTokenService
from repro.core.token_request import TokenRequest
from repro.contracts.protected_target import ProtectedRecorder
from repro.crypto.keys import KeyPair


@pytest.fixture
def replicated_ts(chain):
    return ReplicatedTokenService(
        replica_count=3,
        keypair=KeyPair.from_seed("replicated-ts"),
        clock=chain.clock,
        seed=23,
    )


@pytest.fixture
def protected(chain, owner, replicated_ts):
    receipt = owner.deploy(
        ProtectedRecorder,
        ts_address=replicated_ts.address,
        one_time_bitmap_bits=1024,
    )
    return receipt.return_value


def test_all_replicas_share_the_signing_identity(replicated_ts):
    addresses = {replica.address for replica in replicated_ts.replicas}
    assert addresses == {replicated_ts.address}


def test_round_robin_spreads_requests(replicated_ts, alice, protected):
    request = TokenRequest.method_token(protected.this, alice.address, "submit")
    for _ in range(6):
        issue_one(replicated_ts, request)
    issued = [replica.issued_count for replica in replicated_ts.replicas]
    assert sum(issued) == 6
    assert all(count >= 1 for count in issued)


def test_tokens_from_any_replica_verify_on_chain(chain, alice, replicated_ts, protected):
    wallet = ClientWallet(alice, {protected.this: replicated_ts})
    for i in range(3):
        receipt = wallet.call_with_token(protected, "submit", amount=i + 1,
                                         token_type=TokenType.METHOD)
        assert receipt.success
    assert chain.read(protected, "entries") == 3


def test_failover_keeps_service_available(chain, alice, replicated_ts, protected):
    request = TokenRequest.method_token(protected.this, alice.address, "submit")
    replicated_ts.take_down(0)
    replicated_ts.take_down(1)
    token = issue_one(replicated_ts, request)
    assert token is not None
    assert replicated_ts.available_replicas() == [2]
    replicated_ts.bring_up(0)
    assert 0 in replicated_ts.available_replicas()


def test_all_replicas_down_raises(replicated_ts, alice, protected):
    for index in range(3):
        replicated_ts.take_down(index)
    with pytest.raises(NoReplicaAvailable):
        issue_one(
            replicated_ts,
            TokenRequest.method_token(protected.this, alice.address, "submit")
        )
    with pytest.raises(IndexError):
        replicated_ts.take_down(9)


def test_one_time_indexes_unique_across_replicas(chain, alice, replicated_ts, protected):
    """The Raft-replicated counter guarantees globally unique indexes."""
    request = TokenRequest.method_token(protected.this, alice.address, "submit",
                                        one_time=True)
    indexes = [issue_one(replicated_ts, request).index for _ in range(9)]
    assert indexes == list(range(9))
    assert replicated_ts.issued_indexes_are_unique()


def test_one_time_tokens_from_different_replicas_consumed_once_on_chain(
    chain, alice, replicated_ts, protected
):
    wallet = ClientWallet(alice, {protected.this: replicated_ts})
    token = wallet.request_token(protected, TokenType.METHOD, "submit", one_time=True)
    assert alice.transact(protected, "submit", 5, token=token.to_bytes()).success
    assert not alice.transact(protected, "submit", 5, token=token.to_bytes()).success


def test_a_failed_session_check_burns_the_range_the_raft_counter_reserved(chain):
    """Mismatched key halves: the submission dies ``INTERNAL`` after its one
    commit, and the next range any replica takes starts past the burned one."""
    from repro.core.errors import ErrorCode, SmacsError

    keys = KeyPair.from_seed("replicated-ts")
    service = ReplicatedTokenService(
        replica_count=3,
        keypair=KeyPair(keys.private, KeyPair.from_seed("someone-else").public),
        clock=chain.clock,
        seed=23,
    )
    one_time = TokenRequest.method_token(b"\xaa" * 20, b"\xbb" * 20, "submit", one_time=True)
    with pytest.raises(SmacsError) as failure:
        service.submit([one_time] * 3)
    assert failure.value.code is ErrorCode.INTERNAL
    assert service.issued_count == 0
    assert list(service.replicas[1].counter.take(2)) == [3, 4]
    assert service.issued_indexes_are_unique()


def test_shared_rule_updates_apply_to_every_replica(chain, alice, eve, replicated_ts, protected):
    replicated_ts.update_rules(lambda rules: rules.add_rule(WhitelistRule([alice.address])))
    ok = replicated_ts.submit(
        TokenRequest.method_token(protected.this, alice.address, "submit")
    )
    denied = replicated_ts.submit(
        TokenRequest.method_token(protected.this, eve.address, "submit")
    )
    assert ok[0].issued
    assert not denied[0].issued


def test_unreplicated_counter_ablation_produces_duplicate_indexes(chain, alice, protected):
    """Without the replicated counter, independent replicas repeat indexes --
    the failure mode §VII-B warns about."""
    naive = ReplicatedTokenService(
        replica_count=2,
        keypair=KeyPair.from_seed("naive"),
        clock=chain.clock,
        replicate_counter=False,
    )
    request = TokenRequest.method_token(protected.this, alice.address, "submit",
                                        one_time=True)
    indexes = [issue_one(naive, request).index for _ in range(4)]
    assert len(set(indexes)) < len(indexes)


def test_replica_count_validation(chain):
    with pytest.raises(ValueError):
        ReplicatedTokenService(replica_count=0, clock=chain.clock)


def test_address_is_normalized_across_issuers(chain, replicated_ts):
    """Regression: the replicated front end used to annotate ``address`` as
    raw ``bytes`` while every other issuer returns :class:`Address` -- the
    protocol requires one identity type everywhere."""
    import typing

    from repro.chain.address import Address, is_address
    from repro.core.token_service import TokenService

    assert is_address(replicated_ts.address)
    assert replicated_ts.address_hex == "0x" + replicated_ts.address.hex()
    for cls in (TokenService, ReplicatedTokenService):
        hints = typing.get_type_hints(cls.address.fget)
        assert hints["return"] is Address, cls
    # The value itself is what contracts get preloaded with.
    assert replicated_ts.address == replicated_ts.replicas[0].address


def test_submit_carries_errors_instead_of_raising_when_all_down(chain, replicated_ts,
                                                                alice, protected):
    """The protocol batch path never raises mid-batch: with every replica
    down, results carry ``NO_REPLICA`` (the single-request convenience path
    still raises, as test_all_replicas_down_raises pins)."""
    from repro.core.errors import ErrorCode

    for index in range(3):
        replicated_ts.take_down(index)
    request = TokenRequest.method_token(protected.this, alice.address, "submit")
    results = replicated_ts.submit([request, request])
    assert len(results) == 2
    for result in results:
        assert not result.issued
        assert result.code is ErrorCode.NO_REPLICA
        assert isinstance(result.error, NoReplicaAvailable)
