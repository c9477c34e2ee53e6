"""Crypto hot-path micro-benchmarks: the ecrecover/keccak kernel numbers.

SMACS's on-chain cost story is one ``ecrecover`` per protected call, so in
this reproduction the secp256k1 recovery path is the dominant kernel of both
the Fig. 9 issuance benchmark and the end-to-end pipeline.  This harness
times the primitives that path is built from:

* ``sign``             -- RFC-6979 issuance signature (8-bit signed-window
  fixed-base table: at most 33 mixed additions per ``k*G``);
* ``sign_batch``       -- the same signatures with the block's ``k*G`` sums
  added affine, one shared inversion per tree level, per signature on a block
  of ``SMACS_CRYPTO_BLOCK`` digests (what a Token Service envelope runs), and
  ``generator_multiply_batch``, the curve half of it, per scalar;
* ``sign pair``        -- ``sign_batch`` on two digests beside two ``sign``
  calls over the same digests: the crossover's other side;
* ``verify``           -- ``u1*G + u2*Q`` on the one ladder: G's window
  points plus Q's GLV-split wNAF digits, Q's one-base table built per call;
* ``recover``          -- one-pass ``Q = (s*r^-1)*R + (-z*r^-1)*G`` on that
  same ladder;
* ``recover_reference``-- the seed's three-multiplication recovery (kept as
  the differential-test reference and the speedup yardstick);
* ``recover_batch``    -- ``recover`` in a loop (``None`` where it raises),
  per signature on a block of ``SMACS_CRYPTO_BLOCK`` signatures;
* ``recovers_to``      -- the known-key check (``recover(...) == Q`` against
  ``prepare_point(Q)``: no square root, a quarter of the doublings), and
  ``prepare_point``, the table it needs, per key;
* ``token check``      -- ``SignatureCache.recovery_matches``, Alg. 1's "did
  the trusted Token Service sign this?", over distinct token signatures
  against a key the cache has already met twice (what a node pays per
  foreign token, and a restarted node per token it re-primes);
* ``cold senders``     -- ``SignatureCache.signed_by`` over all-distinct
  senders, each seen once: the first-sight path, beside the expression
  admission ran before the memo (``recover_address(...) == sender``) over
  the same signatures;
* ``keccak256``        -- the datagram digest, on 1 KiB payloads (MB/s) and
  on token-datagram-sized payloads (ops/s);
* ``keccak256_many``   -- the same datagram digest hashed by lanes, per
  message on a block of ``SMACS_CRYPTO_BLOCK`` distinct datagrams (what an
  envelope's issuance and a batch admission run);
* ``ragged pair``      -- two one-block messages of different lengths (a lone
  submission's session message and its token's datagram) through
  ``keccak256_many`` beside two ``keccak256`` calls;
* ``session rider``    -- an 8-block session message hashed *with* an
  envelope's 32 two-block datagrams (it rides their two packed steps and
  finishes its last six blocks alone) beside the two separate calls;
* ``block hash``       -- ``Block.hash()`` of a 64-transaction block with a
  state root (a fan-out-4 transactions root hashed level by level through
  ``keccak256_many``, then a one-permutation header) beside ``keccak256`` of
  the flat ``header || 64 hashes`` message it replaced.

Acceptance (asserted here, regression-gated in CI via
``regression_gate.py crypto`` against the committed baseline):

* single ``recover`` >= 2.9x the reference implementation (the 256-doubling
  ladder this kernel replaced measured 2.72x);
* ``sign_batch`` >= 1.4x ``sign`` per signature (1.19x when the block shared
  only its two trailing inversions), and a block of two not slower than two
  ``sign`` calls (>= 0.97x: the crossover is 2);
* ``recovers_to`` >= 1.6x ``recover`` (what a returning sender saves), and
  ``token check`` >= 1.6x ``recover`` too (the memo around it costs a dict
  lookup and a store);
* table build + one check <= 1.25x one ``recover`` (what a sender that
  returns exactly once costs extra);
* ``cold senders`` >= 0.97x the parent expression (what a sender that never
  returns costs extra: one dict insert);
* ``ragged pair`` >= 1.5x two ``keccak256`` calls (measured 1.84x: one
  width-2 packed permutation costs about what one scalar one does) and
  ``session rider`` >= 1.1x the separate calls (measured 1.16x: two of the
  session's eight sequential blocks cost nothing).

* ``block hash, 64 txs`` >= 2.3x the flat header it replaced (measured 3.1x:
  the fan-out-4 transactions root is two packed levels, one scalar node and a
  one-permutation header where ``keccak256(header || 64 hashes)`` was 16
  sequential scalar permutations).

``recover_batch`` is a loop over ``recover``, so their ratio is 1.0 by
construction; it is printed for context and not gated.

Set ``SMACS_CRYPTO_OPS`` / ``SMACS_CRYPTO_BLOCK`` / ``SMACS_CRYPTO_ROUNDS``
to scale the workload (CI runs the defaults; timings take the best of
``ROUNDS`` runs to damp scheduler noise).
"""

from __future__ import annotations

import time

from types import SimpleNamespace

from benchmarks.conftest import env_int, report
from repro.chain.block import Block
from repro.crypto.ecdsa import recover, recover_batch, recover_reference, recovers_to, verify
from repro.crypto.keccak import keccak256, keccak256_many
from repro.crypto.keys import KeyPair, recover_address
from repro.crypto.secp256k1 import N, generator_multiply_batch, prepare_point
from repro.crypto.sigcache import SignatureCache

OPS = env_int("SMACS_CRYPTO_OPS", 32)
BLOCK = env_int("SMACS_CRYPTO_BLOCK", 64)
ROUNDS = env_int("SMACS_CRYPTO_ROUNDS", 3)

KEYPAIR = KeyPair.from_seed("crypto-hotpath-bench")

#: the 80-byte signing datagram of an argument token is the typical payload
_DATAGRAM = b"\x02" + b"\x00" * 3 + b"\xaa" * 20 + b"\xbb" * 20 + b"method()" + b"\xcc" * 28


def _best_rate(operations: int, run) -> float:
    """ops/s over ``operations``, best of ``ROUNDS`` runs."""
    elapsed = min(_timed(run) for _ in range(ROUNDS))
    return operations / elapsed


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _best_times_interleaved(first, second) -> "tuple[float, float]":
    """Best of ``ROUNDS`` for each of two runs, taken turn by turn so both
    sides of their ratio see the same machine."""
    times = [(_timed(first), _timed(second)) for _ in range(ROUNDS)]
    return min(a for a, _ in times), min(b for _, b in times)


def test_crypto_hotpath(benchmark):
    digests = [keccak256(b"hotpath-%d" % i) for i in range(max(OPS, BLOCK))]
    signatures = {d: KEYPAIR.sign(d) for d in digests}
    pairs = [(d, signatures[d]) for d in digests]
    block = pairs[:BLOCK]
    single = pairs[:OPS]
    public = KEYPAIR.public.point
    prepared = prepare_point(public)
    senders = [KeyPair.from_seed(b"hotpath-sender-%d" % i) for i in range(OPS)]
    cold = [(d, sender.sign(d), sender.address) for (d, _), sender in zip(single, senders)]

    rates: dict[str, float] = {}

    def run():
        rates["sign"] = _best_rate(
            OPS, lambda: [KEYPAIR.sign(d) for d, _ in single]
        )
        rates["sign_batch"] = _best_rate(
            BLOCK, lambda: KEYPAIR.sign_batch([d for d, _ in block])
        )
        scalars = [int.from_bytes(d, "big") % N for d, _ in block]
        rates["generator_multiply_batch"] = _best_rate(
            BLOCK, lambda: generator_multiply_batch(scalars)
        )
        couples = [[a, b] for (a, _), (b, _) in zip(single[::2], single[1::2])]
        pair_time, alone_time = _best_times_interleaved(
            lambda: [KEYPAIR.sign_batch(two) for two in couples],
            lambda: [[KEYPAIR.sign(d) for d in two] for two in couples],
        )
        rates["sign_pair"] = 2 * len(couples) / pair_time
        rates["sign_pair_alone"] = 2 * len(couples) / alone_time
        rates["verify"] = _best_rate(
            OPS, lambda: [verify(d, s, public) for d, s in single]
        )
        rates["recover"] = _best_rate(
            OPS, lambda: [recover(d, s) for d, s in single]
        )
        rates["recover_reference"] = _best_rate(
            OPS, lambda: [recover_reference(d, s) for d, s in single]
        )
        rates["recover_batch"] = _best_rate(
            BLOCK, lambda: recover_batch(block)
        )
        rates["recovers_to"] = _best_rate(
            OPS, lambda: [recovers_to(d, s, prepared) for d, s in single]
        )
        rates["prepare_point"] = _best_rate(
            OPS, lambda: [prepare_point(public) for _ in range(OPS)]
        )

        def token_checks() -> float:
            times = []
            for _ in range(ROUNDS):
                cache = SignatureCache()  # no answers yet; the key met twice
                for d, s in pairs[-2:]:
                    assert cache.recovery_matches(d, s, KEYPAIR.address)
                times.append(_timed(lambda: [
                    cache.recovery_matches(d, s, KEYPAIR.address) for d, s in pairs[:OPS - 2]
                ]))
                assert cache.key_checks == OPS - 1
            return (OPS - 2) / min(times)

        rates["token_check"] = token_checks()

        def first_sights() -> None:
            cache = SignatureCache()  # empty: every sender is new to it
            assert all([cache.signed_by(d, s, address) for d, s, address in cold])

        cold_time, parent_time = _best_times_interleaved(
            first_sights,
            lambda: [recover_address(d, s) == address for d, s, address in cold],
        )
        rates["cold_senders"] = OPS / cold_time
        rates["cold_senders_parent"] = OPS / parent_time
        payload = b"\xd5" * 1024
        keccak_rate = _best_rate(64, lambda: [keccak256(payload) for _ in range(64)])
        rates["keccak_mb_per_sec"] = keccak_rate * len(payload) / 1e6
        rates["keccak_short"] = _best_rate(
            256, lambda: [keccak256(_DATAGRAM) for _ in range(256)]
        )
        datagrams = [_DATAGRAM[:-1] + bytes([i % 256]) for i in range(BLOCK)]
        rates["keccak_many_short"] = _best_rate(BLOCK, lambda: keccak256_many(datagrams))
        lone = [[b"session" + bytes([i]) * 100, datagram] for i, datagram in enumerate(datagrams)]
        pair_time, apart_time = _best_times_interleaved(
            lambda: [keccak256_many(two) for two in lone],
            lambda: [[keccak256(message) for message in two] for two in lone],
        )
        rates["keccak_ragged_pair"] = 2 * len(lone) / pair_time
        rates["keccak_pair_apart"] = 2 * len(lone) / apart_time
        session = b"session" + b"\xee" * (8 * 136 - 64)
        envelope = [bytes([i]) * 200 for i in range(32)]
        rider_time, prelude_time = _best_times_interleaved(
            lambda: [keccak256_many(envelope + [session]) for _ in range(4)],
            lambda: [(keccak256(session), keccak256_many(envelope)) for _ in range(4)],
        )
        rates["session_rider"] = 4 / rider_time
        rates["session_prelude"] = 4 / prelude_time
        # A 64-transaction block as the next block's ``_mine`` hashes it
        # (transaction hashes memoized), against the flat header it replaced.
        hashes = [keccak256(bytes([i])) for i in range(64)]
        full = Block(
            number=9, parent_hash=hashes[0], timestamp=1_600_000_000, gas_used=12_800_000,
            transactions=[SimpleNamespace(hash=lambda h=h: h) for h in hashes],
            state_root=hashes[1],
        )
        flat = bytes(56) + b"".join(hashes) + full.state_root
        tree_time, flat_time = _best_times_interleaved(
            lambda: [full.hash() for _ in range(8)],
            lambda: [keccak256(flat) for _ in range(8)],
        )
        rates["block_hash_64"] = 8 / tree_time
        rates["block_hash_64_flat"] = 8 / flat_time

    benchmark.pedantic(run, rounds=1, iterations=1)

    sign_batch_speedup = rates["sign_batch"] / rates["sign"]
    pair_relative = rates["sign_pair"] / rates["sign_pair_alone"]
    recover_speedup = rates["recover"] / rates["recover_reference"]
    batch_speedup = rates["recover_batch"] / rates["recover"]
    known_key_speedup = rates["recovers_to"] / rates["recover"]
    second_sight_cost = rates["recover"] * (
        1 / rates["prepare_point"] + 1 / rates["recovers_to"]
    )
    token_check_speedup = rates["token_check"] / rates["recover"]
    cold_relative = rates["cold_senders"] / rates["cold_senders_parent"]
    ragged_pair_speedup = rates["keccak_ragged_pair"] / rates["keccak_pair_apart"]
    session_rider_speedup = rates["session_rider"] / rates["session_prelude"]
    block_hash_speedup = rates["block_hash_64"] / rates["block_hash_64_flat"]
    lines = [
        "Crypto hot-path (secp256k1 + keccak-256 kernels)",
        f"{'operation':<24}{'ops/s':>12}",
        f"{'sign':<24}{rates['sign']:>12.1f}",
        f"{'sign_batch /sig':<24}{rates['sign_batch']:>12.1f}",
        f"{'k*G batch /scalar':<24}{rates['generator_multiply_batch']:>12.1f}",
        f"{'sign pair /sig':<24}{rates['sign_pair']:>12.1f}",
        f"{'  two signs /sig':<24}{rates['sign_pair_alone']:>12.1f}",
        f"{'verify':<24}{rates['verify']:>12.1f}",
        f"{'recover (reference)':<24}{rates['recover_reference']:>12.1f}",
        f"{'recover (GLV ladder)':<24}{rates['recover']:>12.1f}",
        f"{'recover_batch /sig':<24}{rates['recover_batch']:>12.1f}",
        f"{'recovers_to /sig':<24}{rates['recovers_to']:>12.1f}",
        f"{'prepare_point /key':<24}{rates['prepare_point']:>12.1f}",
        f"{'token check, warm key':<24}{rates['token_check']:>12.1f}",
        f"{'cold senders /tx':<24}{rates['cold_senders']:>12.1f}",
        f"{'  recover == sender /tx':<24}{rates['cold_senders_parent']:>12.1f}",
        f"{'keccak 80B datagram':<24}{rates['keccak_short']:>12.1f}",
        f"{'keccak256_many /msg':<24}{rates['keccak_many_short']:>12.1f}",
        f"{'ragged pair /msg':<24}{rates['keccak_ragged_pair']:>12.1f}",
        f"{'  two keccak256 /msg':<24}{rates['keccak_pair_apart']:>12.1f}",
        f"{'session rider /envelope':<24}{rates['session_rider']:>12.1f}",
        f"{'  session, then 32 /env':<24}{rates['session_prelude']:>12.1f}",
        f"{'block hash, 64 txs':<24}{rates['block_hash_64']:>12.1f}",
        f"{'  flat header, 64 txs':<24}{rates['block_hash_64_flat']:>12.1f}",
        f"keccak 1KiB payloads: {rates['keccak_mb_per_sec']:.2f} MB/s",
        f"sign_batch ({BLOCK} digests) vs sign: {sign_batch_speedup:.2f}x",
        f"sign_batch on two digests vs two signs: {pair_relative:.2f}x",
        f"recover speedup vs reference: {recover_speedup:.2f}x",
        f"recover_batch ({BLOCK} sigs) vs looped recover, the same loop: {batch_speedup:.2f}x",
        f"known-key check vs recover: {known_key_speedup:.2f}x",
        f"token check against a warm trusted key vs recover: {token_check_speedup:.2f}x",
        f"table build + one check: {second_sight_cost:.2f}x one recover",
        f"cold senders vs recover == sender: {cold_relative:.2f}x",
        f"ragged pair (two one-block messages) vs two keccak256: {ragged_pair_speedup:.2f}x",
        f"session rider (8 blocks + 32 x 2) vs separate calls: {session_rider_speedup:.2f}x",
        f"block hash (transactions root, 64 txs) vs flat header: {block_hash_speedup:.2f}x",
    ]
    report(
        "crypto_hotpath",
        lines,
        data={
            "ops": OPS,
            "block_size": BLOCK,
            "sign_ops_per_sec": round(rates["sign"], 1),
            "sign_batch_ops_per_sec": round(rates["sign_batch"], 1),
            "generator_multiply_batch_ops_per_sec": round(
                rates["generator_multiply_batch"], 1
            ),
            "sign_batch_speedup_vs_sign": round(sign_batch_speedup, 2),
            "sign_pair_vs_two_signs": round(pair_relative, 3),
            "verify_ops_per_sec": round(rates["verify"], 1),
            "recover_ops_per_sec": round(rates["recover"], 1),
            "recover_reference_ops_per_sec": round(
                rates["recover_reference"], 1
            ),
            "recover_batch_ops_per_sec": round(rates["recover_batch"], 1),
            "recover_speedup_vs_reference": round(recover_speedup, 2),
            "recovers_to_ops_per_sec": round(rates["recovers_to"], 1),
            "prepare_point_ops_per_sec": round(rates["prepare_point"], 1),
            "token_check_ops_per_sec": round(rates["token_check"], 1),
            "token_check_speedup_vs_recover": round(token_check_speedup, 2),
            "cold_senders_ops_per_sec": round(rates["cold_senders"], 1),
            "known_key_speedup_vs_recover": round(known_key_speedup, 2),
            "second_sight_cost_vs_recover": round(second_sight_cost, 2),
            "cold_senders_vs_parent": round(cold_relative, 3),
            "keccak_mb_per_sec": round(rates["keccak_mb_per_sec"], 3),
            "keccak_short_ops_per_sec": round(rates["keccak_short"], 1),
            "keccak_many_short_ops_per_sec": round(rates["keccak_many_short"], 1),
            "keccak_ragged_pair_ops_per_sec": round(rates["keccak_ragged_pair"], 1),
            "ragged_pair_speedup_vs_two_hashes": round(ragged_pair_speedup, 2),
            "session_rider_speedup_vs_separate": round(session_rider_speedup, 3),
            "block_hash_64_ops_per_sec": round(rates["block_hash_64"], 1),
            "block_hash_tree_speedup_vs_flat": round(block_hash_speedup, 2),
        },
    )
    benchmark.extra_info.update(
        {"recover_speedup_vs_reference": round(recover_speedup, 2)}
    )

    # Acceptance: the GLV ladder must decisively beat the seed's
    # three-multiplication recovery on the single-signature path.
    assert recover_speedup >= 2.9, f"recover only {recover_speedup:.2f}x the reference"
    # The affine tree: what a block saves per signature, and that the
    # crossover sits where the code says (two digests already share enough).
    assert sign_batch_speedup >= 1.4, f"sign_batch only {sign_batch_speedup:.2f}x sign"
    assert pair_relative >= 0.97, f"a block of two at {pair_relative:.3f}x two signs"
    # ... and the three prices of the known-sender memo, as ratios within
    # this run: a returning sender, one that returns once, one that never does.
    assert known_key_speedup >= 1.6, f"recovers_to only {known_key_speedup:.2f}x recover"
    assert token_check_speedup >= 1.6, f"token check only {token_check_speedup:.2f}x recover"
    assert second_sight_cost <= 1.25, f"build + check is {second_sight_cost:.2f}x a recover"
    assert cold_relative >= 0.97, f"cold senders at {cold_relative:.3f}x the parent expression"
    # Ragged lanes: a lone submission's two messages, and the session message
    # riding an envelope's datagrams.
    assert ragged_pair_speedup >= 1.5, f"ragged pair only {ragged_pair_speedup:.2f}x two hashes"
    assert session_rider_speedup >= 1.1, f"session rider only {session_rider_speedup:.3f}x"
    # The header commits to a lane-hashed root, not to a 2 KB concatenation.
    assert block_hash_speedup >= 2.3, f"block hash only {block_hash_speedup:.2f}x the flat header"


def test_batch_recovery_matches_looped(benchmark):
    """Same block, same recovered keys -- speed must not change results."""
    digests = [keccak256(b"equiv-%d" % i) for i in range(BLOCK)]
    pairs = [(d, KEYPAIR.sign(d)) for d in digests]

    def run():
        return recover_batch(pairs), [recover(d, s) for d, s in pairs]

    batched, looped = benchmark.pedantic(run, rounds=1, iterations=1)
    assert batched == looped
