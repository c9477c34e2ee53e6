"""The blockchain: blocks, transaction validation, mining, forks and reorgs.

The default mode is *auto-mining* (like a development testnet / ganache):
every submitted transaction is executed immediately into its own block.
Batch mode (``auto_mine=False``) is a dev-testnet mode too: transactions queue
in ``pending`` until :meth:`Blockchain.mine_block`.  The execution pipeline
needs neither mode; it hands each block plan to ``mine_block`` directly.

The chain keeps a fork point per block so that it can simulate history
rewrites (forks / 51% attacks, §VII-A(c) of the paper) via
:meth:`revert_to_block`.  A fork point is not a copy of the state: it is one
open checkpoint of the :class:`~repro.chain.state.WorldState` undo journal,
holding the old value of everything written since the previous block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.chain.account import ExternallyOwnedAccount
from repro.chain.address import Address
from repro.chain.block import Block, genesis_block
from repro.chain.clock import SimulatedClock
from repro.chain.contract import Contract
from repro.chain.errors import InsufficientFunds, InvalidTransaction
from repro.chain.evm import BlockContext, ExecutionEngine, Receipt
from repro.chain.state import WorldState
from repro.chain.transaction import DEFAULT_GAS_LIMIT, Transaction
from repro.crypto.keys import KeyPair

DEFAULT_FUNDING_WEI = 10**21  # 1000 ether for newly created test accounts
BLOCK_INTERVAL_SECONDS = 13   # average Ethereum block time circa 2020


@dataclass
class _Checkpoint:
    """The fork point right after one block (py-evm ``JournalDB`` style).

    ``mark`` is the journal checkpoint opened on the world state once the
    block was mined.  It stays open, so it collects the undo record of every
    later write up to the next block's own mark -- the next block's
    transactions *and* whatever was written between the two blocks (faucet
    funding, direct deployments).  Mining costs O(1) here and retains
    O(touched); reverting to the block is ``state.revert_to(mark)``.

    The contract registry is only ever appended to or cut back to a prefix
    (a failed deployment, a failed block), so its state at the fork point is
    its first ``contract_count`` entries.
    """

    mark: int
    contract_count: int


class Blockchain:
    """A single-node simulated Ethereum-like blockchain."""

    def __init__(
        self,
        auto_mine: bool = True,
        clock: SimulatedClock | None = None,
        block_interval: int = BLOCK_INTERVAL_SECONDS,
    ):
        self.clock = clock if clock is not None else SimulatedClock()
        self.evm = ExecutionEngine()
        self.auto_mine = auto_mine
        self.block_interval = block_interval
        self.blocks: list[Block] = [genesis_block(self.clock.now())]
        self.pending: list[Transaction] = []
        self.receipts: dict[bytes, Receipt] = {}
        self._rebase()
        #: durability hook: called with the post-block world state inside
        #: ``_mine`` to stamp ``Block.state_root`` (see ``repro.storage``).
        self.state_root_provider: "Callable[[WorldState], bytes] | None" = None

    # -- basic accessors ----------------------------------------------------------

    @property
    def state(self) -> WorldState:
        return self.evm.state

    @property
    def height(self) -> int:
        return self.blocks[-1].number

    @property
    def latest_block(self) -> Block:
        return self.blocks[-1]

    @property
    def timestamp(self) -> int:
        return self.clock.now()

    def advance_time(self, seconds: int) -> None:
        """Advance the shared clock (affects token expiry and block times)."""
        self.clock.advance(seconds)

    def balance_of(self, address: "Address | ExternallyOwnedAccount | Contract") -> int:
        addr = getattr(address, "address", None) or getattr(address, "this", None) or address
        return self.state.balance_of(addr)

    def contract_at(self, address: Address) -> Contract:
        return self.evm.contract_at(address)

    def next_nonce(self, address: Address) -> int:
        """The nonce the next transaction from ``address`` must carry."""
        pending_from_sender = sum(1 for tx in self.pending if tx.sender == address)
        return self.state.nonce_of(address) + pending_from_sender

    # -- accounts ------------------------------------------------------------------

    def create_account(
        self,
        label: str = "",
        funded_with: int = DEFAULT_FUNDING_WEI,
        seed: "str | bytes | None" = None,
    ) -> ExternallyOwnedAccount:
        """Create a funded externally owned account (testnet faucet behaviour)."""
        keypair = KeyPair.from_seed(seed) if seed is not None else KeyPair.generate()
        account = ExternallyOwnedAccount(self, keypair, label=label)
        if funded_with:
            self.state.add_balance(account.address, funded_with)
        return account

    # -- transaction intake -----------------------------------------------------------

    def _validate(self, tx: Transaction) -> None:
        if not tx.verify_signature():
            raise InvalidTransaction("transaction signature is missing or invalid")
        expected_nonce = self.next_nonce(tx.sender)
        if tx.nonce != expected_nonce:
            raise InvalidTransaction(
                f"bad nonce: expected {expected_nonce}, got {tx.nonce} "
                "(replayed or out-of-order transaction)"
            )
        max_cost = tx.value + tx.gas_limit * tx.gas_price
        if self.state.balance_of(tx.sender) < max_cost and tx.gas_price:
            # Test accounts are generously funded; the check still catches
            # plainly unaffordable transactions.
            if self.state.balance_of(tx.sender) < tx.value:
                raise InsufficientFunds("sender cannot cover transaction value")

    def send_transaction(
        self,
        tx: Transaction,
        deploy_factory: Callable[[], Contract] | None = None,
    ) -> Receipt | None:
        """Validate and submit a transaction.

        In auto-mine mode the transaction executes immediately and its receipt
        is returned; otherwise it joins the pending pool and ``None`` is
        returned until :meth:`mine_block` processes it.
        """
        self._validate(tx)
        if self.auto_mine:
            return self._mine([(tx, deploy_factory)])[0]
        if deploy_factory is not None:
            raise InvalidTransaction(
                "contract creation requires auto-mine mode in this simulator"
            )
        self.pending.append(tx)
        return None

    def mine_block(self, transactions: "Iterable[Transaction]" = ()) -> list[Receipt]:
        """Mine ``pending``, then ``transactions``, into one block, all or nothing.

        ``transactions`` are not re-validated: the pipeline passes plans its
        mempool admitted, so their signatures are not paid for twice."""
        receipts = self._mine([(tx, None) for tx in (*self.pending, *transactions)])
        self.pending = []
        return receipts

    def _mine(
        self, batch: list[tuple[Transaction, Callable[[], Contract] | None]]
    ) -> list[Receipt]:
        """Execute ``batch`` into a new block, all or nothing.

        A transaction that raises (rather than failing its receipt) undoes
        the whole block -- its writes, registered contracts and receipts --
        and leaves ``pending`` as it was; the clock stays where it moved.
        Writes made between blocks are not the block's, and survive.
        """
        self.clock.advance(self.block_interval)
        block = Block(
            number=self.height + 1,
            parent_hash=self.latest_block.hash(),
            timestamp=self.clock.now(),
        )
        block_ctx = BlockContext(number=block.number, timestamp=block.timestamp)
        receipts: list[Receipt] = []
        state = self.evm.state
        registered = len(self.evm.contracts)
        mark = state.snapshot()
        try:
            for tx, factory in batch:
                receipt = self.evm.execute_transaction(tx, block_ctx, deploy_factory=factory)
                block.transactions.append(tx)
                block.gas_used += receipt.gas_used
                receipts.append(receipt)
            if self.state_root_provider is not None:
                block.state_root = self.state_root_provider(state)
        except BaseException:
            state.revert_to(mark)
            self.evm.truncate_registry(registered)
            raise
        state.commit(mark)
        self.receipts.update((receipt.tx_hash, receipt) for receipt in receipts)
        self.blocks.append(block)
        self._checkpoints.append(self._checkpoint())
        return receipts

    # -- deployment ---------------------------------------------------------------------

    def deploy(
        self,
        account: ExternallyOwnedAccount,
        contract_class: type,
        *args: Any,
        value: int = 0,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        **kwargs: Any,
    ) -> Receipt:
        """Deploy ``contract_class`` from ``account``.

        The receipt's ``return_value`` is the live contract instance and
        ``contract_address`` its address.
        """
        tx = Transaction(
            sender=account.address,
            to=None,
            nonce=account.nonce,
            method="constructor",
            args=tuple(args),
            kwargs=dict(kwargs),
            value=value,
            gas_limit=gas_limit,
        )
        tx.sign_with(account.keypair)
        receipt = self.send_transaction(tx, deploy_factory=contract_class)
        assert receipt is not None
        return receipt

    # -- read-only access --------------------------------------------------------------------

    def read(self, target: "Address | Contract", method: str, *args: Any, **kwargs: Any) -> Any:
        """Execute a method read-only (``eth_call``): no gas, no state change."""
        address = getattr(target, "this", target)
        return self.evm.static_read(address, method, *args, **kwargs)

    def simulate(
        self,
        sender: Address,
        target: "Address | Contract",
        method: str,
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
        value: int = 0,
    ) -> Receipt:
        """Run a call at the next block's context and roll it back: the
        receipt it would get, plus its call tree in ``receipt.trace`` (see
        :meth:`ExecutionEngine.simulate`)."""
        block = BlockContext(number=self.height + 1, timestamp=self.timestamp)
        address = getattr(target, "this", target)
        return self.evm.simulate(block, sender, address, method, args, kwargs, value)

    def receipt_for(self, tx_hash: bytes) -> Receipt:
        return self.receipts[tx_hash]

    # -- crash recovery ----------------------------------------------------------------------

    def install_state(self, state: WorldState, head: "Block | None" = None) -> None:
        """Replace the world state wholesale (crash recovery / state sync).

        The recovered state becomes the chain's single source of truth and,
        as with :meth:`fork`, pre-existing per-block fork points collapse to
        one at the current height: a recovered node resumes forward from
        here, it does not replay the pre-crash fork history.  ``head``, the
        block that state is the post-state of, takes the place of this
        chain's own latest block, so the next block is numbered after it and
        names its hash as parent.
        """
        self.evm.state = state
        if head is not None:
            self.blocks[-1] = head
        self._rebase()

    # -- forks and reorgs ------------------------------------------------------------------------

    def _checkpoint(self) -> _Checkpoint:
        return _Checkpoint(self.evm.state.snapshot(), len(self.evm.contracts))

    def _rebase(self) -> None:
        """Make the current height the oldest block a reorg can reach."""
        self._checkpoints = [self._checkpoint()]

    def touched_since_latest_block(self) -> dict[Address, set]:
        """``{address: {storage slots}}`` written since the latest block.

        Read off the latest block's open fork point, so it covers writes made
        between blocks (faucet funding, account creation) as well as the
        transactions of a block being mined: ``_mine`` calls the
        ``state_root_provider`` before it opens the new block's fork point.
        """
        return self.evm.state.touched_since(self._checkpoints[-1].mark)

    def revert_to_block(self, block_number: int) -> None:
        """Rewrite history: discard all blocks above ``block_number``.

        This simulates the effect of a 51% attack rewriting the chain.  State,
        the contract registry and receipts are restored to what they were
        right after the target block (writes made since the latest block
        without mining one are undone too); the clock is left monotonic (it
        never goes back).  Costs O(writes undone), not O(state).
        """
        # _checkpoints[-1] belongs to the latest block; a fork or an
        # installed state starts the list at its own height, not at genesis.
        oldest = self.height + 1 - len(self._checkpoints)
        index = block_number - oldest
        if not 0 <= index < len(self._checkpoints):
            raise ValueError(f"no block {block_number} to revert to")
        checkpoint = self._checkpoints[index]
        self.evm.state.revert_to(checkpoint.mark)
        self.evm.truncate_registry(checkpoint.contract_count)
        # revert_to consumed the mark: reopen it over the restored state.
        self._checkpoints[index:] = [self._checkpoint()]
        # Positions, not numbers: an installed head may stand above a gap.
        kept = len(self.blocks) - (self.height - block_number)
        kept_hashes = {tx.hash() for block in self.blocks[:kept] for tx in block.transactions}
        self.receipts = {h: r for h, r in self.receipts.items() if h in kept_hashes}
        del self.blocks[kept:]

    def fork(self) -> "Blockchain":
        """Return an independent copy of the chain at its current height.

        The ECFChecker rule simulates each candidate call on a fork, so its
        simulations never run on the engine that mines the live chain's
        blocks (a simulation rolls itself back either way).  This is the one
        full copy of the world state left; the fork can be reverted back to
        this height, not below it.  The fork shares
        this chain's signature cache: it is the same node's memo, and every
        entry in it holds on either chain.
        """
        clone = type(self)(auto_mine=True, clock=SimulatedClock(self.clock.now()),
                           block_interval=self.block_interval)
        clone.evm.signature_cache = self.evm.signature_cache
        clone.evm.state = self.evm.state.deep_copy()
        clone.evm.contracts = dict(self.evm.contracts)
        clone.evm.contract_creators = dict(self.evm.contract_creators)
        clone.blocks = list(self.blocks)
        clone.receipts = dict(self.receipts)
        clone._rebase()
        return clone
