"""Block fork points are journal undo records, not copies of the state.

``Blockchain`` leaves one ``WorldState`` journal checkpoint open per block
and reverts a reorg by replaying them.  The oracle here is the policy it
replaced -- a ``deep_copy`` of the state and a copy of the contract registry
after every block -- run in lockstep on the same random history; the two
chains must agree on state, registry, receipts and blocks after every step.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain
from repro.chain.contract import Contract, external
from repro.chain.errors import ChainError
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.crypto.keys import KeyPair
from repro.workloads import state_fingerprint

KEYS = [KeyPair.from_seed(f"checkpoint-{i}") for i in range(4)]
FUNDING = 10**18


class Ledger(Contract):
    def constructor(self) -> None:
        self.storage["entries"] = 0

    @external
    def record(self, amount: int) -> int:
        entry = self.storage.increment("entries")
        self.storage[("record", entry)] = (self.tx_origin, amount)
        self.require(amount > 0, "nothing to record")  # reverts after writing
        return entry


class DeepCopyChain(Blockchain):
    """The oracle: a full copy of state and registry after every block."""

    def _checkpoint(self):
        return self.evm.state.deep_copy(), dict(self.evm.contracts)

    def revert_to_block(self, block_number: int) -> None:
        index = block_number - (self.height + 1 - len(self._checkpoints))
        if not 0 <= index < len(self._checkpoints):
            raise ValueError(f"no block {block_number} to revert to")
        state, contracts = self._checkpoints[index]
        self.evm.state = state.deep_copy()
        self.evm.contracts = dict(contracts)
        kept = {tx.hash() for block in self.blocks[: block_number + 1] for tx in block.transactions}
        self.receipts = {h: r for h, r in self.receipts.items() if h in kept}
        del self.blocks[block_number + 1:]
        del self._checkpoints[index + 1:]


def _observe(chain: Blockchain) -> dict:
    return {
        "state": state_fingerprint(chain.state),
        "contracts": [(address, type(c).__name__) for address, c in chain.evm.contracts.items()],
        "receipts": {h: (r.success, r.gas_used, r.block_number) for h, r in chain.receipts.items()},
        "blocks": [block.hash() for block in chain.blocks],
    }


def _send(chain: Blockchain, sender: int, *, deploy=None, **fields) -> None:
    keypair = KEYS[sender]
    tx = Transaction(
        sender=keypair.address, nonce=chain.next_nonce(keypair.address),
        gas_limit=2_000_000, **fields,
    ).sign_with(keypair)
    chain.send_transaction(tx, deploy_factory=deploy)


def _ledgers(chain: Blockchain) -> list:
    return [a for a, c in chain.evm.contracts.items() if chain.state.account(a).is_contract]


def _apply(chain: Blockchain, op: tuple) -> Blockchain:
    """Run one step; returns the chain the history continues on."""
    name, *args = op
    if name == "faucet":  # between blocks: the *next* block's undo record owns it
        chain.state.add_balance(KEYS[args[0]].address, FUNDING)
    elif name == "transfer":
        _send(chain, args[0], to=KEYS[args[1]].address, value=args[2])
    elif name == "deploy":
        _send(chain, args[0], to=None, method="constructor", deploy=Ledger)
    elif name == "record":
        ledgers = _ledgers(chain)
        if ledgers:
            _send(chain, args[0], to=ledgers[args[1] % len(ledgers)], method="record",
                  args=(args[2],))
    elif name == "batch":  # several transactions in one block
        chain.auto_mine = False
        try:
            for sender in args[0]:
                _send(chain, sender, to=KEYS[0].address, value=1)
        finally:
            chain.auto_mine = True
            chain.mine_block()
    elif name == "revert":
        oldest = chain.height + 1 - len(chain._checkpoints)
        target = oldest + int(args[0] * (chain.height - oldest + 1))
        for _ in range(args[1]):  # twice in a row must be a no-op the second time
            chain.revert_to_block(min(target, chain.height))
    elif name == "fork":
        return chain.fork()
    elif name == "install":
        chain.install_state(chain.state.deep_copy())
    return chain


_sender = st.integers(0, len(KEYS) - 1)
OPS = st.one_of(
    st.tuples(st.just("faucet"), _sender),
    st.tuples(st.just("transfer"), _sender, _sender, st.integers(0, 2 * FUNDING)),
    st.tuples(st.just("deploy"), _sender),
    st.tuples(st.just("record"), _sender, st.integers(0, 3), st.integers(0, 5)),
    st.tuples(st.just("batch"), st.lists(_sender, min_size=1, max_size=3)),
    st.tuples(st.just("revert"), st.floats(0, 1, exclude_max=True), st.integers(1, 2)),
    st.tuples(st.just("fork")),
    st.tuples(st.just("install")),
)


#: a few blocks before the random part, so early reverts have depth to cross
PROLOGUE = [
    ("faucet", 0), ("faucet", 1), ("deploy", 0), ("record", 1, 0, 2),
    ("faucet", 2), ("transfer", 2, 3, 9), ("batch", [0, 1]),
]


@pytest.mark.slow
@given(ops=st.lists(OPS, min_size=4, max_size=30))
@settings(max_examples=100, deadline=None)
def test_journal_fork_points_match_the_deep_copy_oracle(ops):
    chain, oracle = Blockchain(), DeepCopyChain()
    for op in PROLOGUE + ops:
        outcomes = []
        for side in (chain, oracle):
            try:
                outcomes.append(_apply(side, op))
            except (ChainError, ValueError) as error:  # unfunded sender, bad revert target
                outcomes.append(type(error))
        if not isinstance(outcomes[0], type):
            chain, oracle = outcomes
        else:
            assert outcomes[0] is outcomes[1], op
        assert _observe(chain) == _observe(oracle), op


def test_history_covering_every_step_kind_matches_the_oracle():
    """The fast-lane fixed walk: funding between blocks, a reverting call, a
    reorg to genesis and back up, a fork, an installed state."""
    history = [
        ("faucet", 0), ("faucet", 1), ("deploy", 0), ("record", 1, 0, 3), ("record", 1, 0, 0),
        ("faucet", 2), ("batch", [0, 1, 2]), ("transfer", 2, 3, 5), ("revert", 0.5, 2),
        ("record", 0, 0, 4), ("deploy", 1), ("faucet", 3), ("revert", 0.99, 1),
        ("fork",), ("record", 1, 1, 2), ("revert", 0.0, 1), ("transfer", 0, 1, 7),
        ("install",), ("batch", [0, 0]), ("revert", 0.0, 2), ("revert", 0.0, 1),
    ]
    chain, oracle = Blockchain(), DeepCopyChain()
    for op in history:
        chain, oracle = _apply(chain, op), _apply(oracle, op)
        assert _observe(chain) == _observe(oracle), op
    genesis, genesis_oracle = Blockchain(), DeepCopyChain()
    for op in history[:8] + [("revert", 0.0, 1)]:
        genesis, genesis_oracle = _apply(genesis, op), _apply(genesis_oracle, op)
    assert genesis.height == 0 and _observe(genesis) == _observe(genesis_oracle)
    assert not list(genesis.state.addresses()) and not genesis.evm.contracts


def test_reverting_twice_to_one_block_drops_contracts_deployed_in_between():
    chain, oracle = Blockchain(), DeepCopyChain()
    history = [
        ("faucet", 0), ("transfer", 0, 1, 1), ("deploy", 0), ("revert", 0.5, 1),
        ("deploy", 0), ("deploy", 0), ("revert", 0.34, 1),
    ]
    for op in history:
        chain, oracle = _apply(chain, op), _apply(oracle, op)
        assert _observe(chain) == _observe(oracle), op
    assert chain.height == 1 and not chain.evm.contracts


def test_a_fork_cannot_be_reverted_below_its_fork_height():
    chain = Blockchain()
    for op in [("faucet", 0), ("transfer", 0, 1, 1), ("transfer", 0, 1, 1)]:
        _apply(chain, op)
    fork = chain.fork()
    _apply(fork, ("transfer", 0, 1, 1))
    with pytest.raises(ValueError):
        fork.revert_to_block(1)
    fork.revert_to_block(2)
    assert state_fingerprint(fork.state) == state_fingerprint(chain.state)


# --- cost: O(touched), and no full copy outside fork() -------------------------------


def test_only_fork_copies_the_world_state(monkeypatch):
    chain = Blockchain()
    for op in [("faucet", 0), ("deploy", 0)]:
        _apply(chain, op)
    scratch = chain.state.deep_copy()

    def no_copy(self):
        raise AssertionError("deep_copy called outside fork()")

    monkeypatch.setattr(WorldState, "deep_copy", no_copy)
    _apply(chain, ("record", 0, 0, 1))
    _apply(chain, ("batch", [0, 0]))
    chain.revert_to_block(1)
    chain.install_state(scratch)
    _apply(chain, ("transfer", 0, 1, 1))
    with pytest.raises(AssertionError, match="outside fork"):
        chain.fork()


@pytest.mark.parametrize("bystanders", [10, 1_000])
def test_retained_undo_records_grow_with_writes_not_with_state_size(bystanders):
    chain = Blockchain()
    for i in range(bystanders):  # state the blocks never touch
        chain.state.storage_set(i.to_bytes(20, "big"), "weight", i)
    _apply(chain, ("faucet", 0))
    baseline = chain.state.journal_records()
    blocks = 40
    for _ in range(blocks):
        _apply(chain, ("transfer", 0, 1, 1))
    # sender nonce + two balances, first touch per block: 3 records a block,
    # whatever the size of the rest of the state.
    assert chain.state.journal_records() - baseline == 3 * blocks
    assert chain.state.active_checkpoints == blocks + 1


# --- a block's undo record holds only immutable values ------------------------------


def test_a_block_undo_record_restores_a_tuple_and_refuses_a_list():
    chain = Blockchain()
    holder = KEYS[3].address
    _apply(chain, ("faucet", 0))
    chain.state.storage_set(holder, "pair", (1, (2, b"x")))
    _apply(chain, ("transfer", 0, 1, 1))                  # block 1
    records = chain.state.journal_records()
    with pytest.raises(TypeError):
        chain.state.storage_set(holder, "pair", [9])
    assert chain.state.journal_records() == records
    chain.state.storage_set(holder, "pair", (9,))         # block 2's record holds the pair
    _apply(chain, ("transfer", 0, 1, 1))                  # block 2
    chain.revert_to_block(1)
    assert chain.state.storage_get(holder, "pair") == (1, (2, b"x"))
