"""Precompiled contracts available to contract code.

Only ``ecrecover`` is needed by SMACS: the on-chain token verification
(Alg. 1) recovers the Token Service address from the token signature and
compares it with the address stored at deployment time.

Alg. 1 uses the recovered address for that comparison and nothing else, so
the precompile is exposed as the comparison, :func:`ecrecover_matches`: the
node may then check the signature against the trusted key it already knows (a
fixed-base computation, about half a recovery) instead of recovering a key to
compare.  The answer is the one recover-and-compare gives on every input; an
invalid signature, for which Solidity's ``ecrecover`` returns the zero
address, matches nothing -- not even a contract that stored the zero address
as its signer.

Answers are memoized in the execution engine's own
:class:`~repro.crypto.sigcache.SignatureCache` (a node-level optimisation:
the same token signature verified twice costs the curve math once).  The
precompile's gas cost is charged on every call regardless -- neither the
cache nor the known-key check is visible to the protocol's cost model.
"""

from __future__ import annotations

from repro.chain import gas
from repro.chain.address import Address
from repro.crypto.ecdsa import Signature


def ecrecover_matches(
    env: "object", digest: bytes, signature: Signature, expected: "Address | None"
) -> bool:
    """Whether the signature recovers to ``expected``, charging the
    ``ecrecover`` precompile's gas cost.

    ``expected`` is the address the contract compares the recovery with;
    ``None`` (it stores none) matches nothing and costs the node no curve
    math -- the gas is charged all the same.
    """
    env.meter.charge(gas.CALL_BASE + gas.ECRECOVER_PRECOMPILE)
    if expected is None:
        return False
    return env.evm.signature_cache.recovery_matches(digest, signature, expected)
