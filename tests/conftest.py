"""Shared fixtures for the SMACS reproduction test suite."""

from __future__ import annotations

import pytest

from repro.chain import Blockchain
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import ClientWallet, OwnerWallet, TokenService, TokenType
from repro.core.acr import RuleSet
from repro.crypto.keys import KeyPair

ETHER = 10**18


@pytest.fixture
def chain() -> Blockchain:
    """A fresh auto-mining chain with a deterministic clock."""
    return Blockchain()


@pytest.fixture
def owner(chain):
    return chain.create_account("owner", seed="owner-seed")


@pytest.fixture
def alice(chain):
    return chain.create_account("alice", seed="alice-seed")


@pytest.fixture
def bob(chain):
    return chain.create_account("bob", seed="bob-seed")


@pytest.fixture
def eve(chain):
    """An account that is never whitelisted."""
    return chain.create_account("eve", seed="eve-seed")


@pytest.fixture
def ts_keypair() -> KeyPair:
    return KeyPair.from_seed("token-service-key")


@pytest.fixture
def token_service(chain, ts_keypair) -> TokenService:
    """A permissive Token Service (no rules) sharing the chain clock."""
    return TokenService(keypair=ts_keypair, rules=RuleSet(), clock=chain.clock)


@pytest.fixture
def recorder(chain, owner, token_service):
    """A deployed SMACS-protected ProtectedRecorder with a one-time bitmap."""
    owner_wallet = OwnerWallet(owner, token_service)
    receipt = owner_wallet.deploy_protected(ProtectedRecorder, one_time_bitmap_bits=2048)
    assert receipt.success, receipt.error
    return receipt.return_value


@pytest.fixture
def alice_wallet(alice, recorder, token_service):
    wallet = ClientWallet(alice)
    wallet.register_service(recorder, token_service)
    return wallet


@pytest.fixture
def bob_wallet(bob, recorder, token_service):
    wallet = ClientWallet(bob)
    wallet.register_service(recorder, token_service)
    return wallet


@pytest.fixture
def method_token(alice_wallet, recorder):
    """A method token for ProtectedRecorder.submit issued to alice."""
    return alice_wallet.request_token(recorder, TokenType.METHOD, "submit")


@pytest.fixture
def keccak_permutations(monkeypatch):
    """A live one-element counter of ``_keccak_f`` calls made from here on."""
    from repro.crypto import keccak

    calls = [0]
    permute = keccak._keccak_f

    def counting(state):
        calls[0] += 1
        return permute(state)

    monkeypatch.setattr(keccak, "_keccak_f", counting)
    return calls


@pytest.fixture
def token_decodes(monkeypatch):
    """A live ``Counter`` of the token bytes decoded from here on.

    Swaps in an empty decode memo of the same bound whose misses are
    counted, so a token the memo answers is not counted again.
    """
    from collections import Counter
    from functools import lru_cache

    from repro.core import token

    counts = Counter()
    decode = token._decoded.__wrapped__

    def counting(raw):
        counts[bytes(raw)] += 1
        return decode(raw)

    monkeypatch.setattr(token, "_decoded", lru_cache(maxsize=token.DECODE_MEMO_SIZE)(counting))
    return counts


@pytest.fixture
def packed_permutations(monkeypatch):
    """A live one-element counter of ``_keccak_f_packed`` calls made from here on.

    One call permutes every slot of a packed state, whatever its width, so
    this counts round trips through the interpreter, not messages.
    """
    from repro.crypto import keccak

    calls = [0]
    permute = keccak._keccak_f_packed

    def counting(state, width):
        calls[0] += 1
        return permute(state, width)

    monkeypatch.setattr(keccak, "_keccak_f_packed", counting)
    return calls


@pytest.fixture
def curve_multiplications(monkeypatch):
    """A live ``Counter`` of the curve work done from here on, by kind.

    ``ladders``: ``shamir_multiply`` given a bare point -- every first-sight
    signature verification and recovery, and ``point_multiply``.
    ``builds`` / ``prepared``: a known key's four-base table built
    (``prepare_point``) and ``shamir_multiply`` given it (one per known-key
    check); the one-base table a bare point gets is part of its ladder.
    ``lifts``: the square root only a recovery takes (``lift_x``).
    ``clear()`` it to start a new count; ``sum(counts.values())`` is all of it.
    """
    from collections import Counter

    from repro.crypto import ecdsa, keys, secp256k1, sigcache

    counts = Counter()

    def counting(name, kind_of):
        original = getattr(secp256k1, name)

        def wrapper(*args):
            kind = kind_of(*args)
            if kind:
                counts[kind] += 1
            return original(*args)

        # Wherever the name was imported to, not only where it is defined.
        for module in (secp256k1, ecdsa, keys, sigcache):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    split = secp256k1._PREPARED_SPLIT
    counting(
        "shamir_multiply",
        lambda u1, u2, key: "ladders" if isinstance(key, secp256k1.Point) else "prepared",
    )
    counting("prepare_point", lambda point, bases=split: "builds" if bases == split else None)
    counting("lift_x", lambda x, is_odd: "lifts")
    return counts
