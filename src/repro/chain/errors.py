"""Exception hierarchy for the blockchain substrate."""

from __future__ import annotations


class ChainError(Exception):
    """Base class for all blockchain-related errors."""


class InvalidTransaction(ChainError):
    """The transaction is malformed, badly signed, or has a wrong nonce."""


class InsufficientFunds(InvalidTransaction):
    """The sender cannot cover value + gas for the transaction."""


class ExecutionError(ChainError):
    """Base class for errors raised while executing contract code."""


class Revert(ExecutionError):
    """Contract execution reverted (failed ``require``/``assert``).

    All state changes of the enclosing call frame are rolled back; gas spent
    up to the revert is still consumed.
    """


class OutOfGas(ExecutionError):
    """The gas limit of the transaction was exhausted."""


class VisibilityError(ExecutionError):
    """A method was called in a way its Solidity visibility forbids."""


class UnknownContract(ExecutionError):
    """No contract is deployed at the targeted address."""


class UnknownMethod(ExecutionError):
    """The targeted contract has no method matching the call."""


class CallDepthExceeded(ExecutionError):
    """The EVM message-call depth limit (1024) was exceeded."""


class MutableStorageValue(TypeError):
    """A storage write of a value that can change in place (a programming
    error: it leaves the EVM instead of failing the transaction's receipt)."""
