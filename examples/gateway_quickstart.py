#!/usr/bin/env python3
"""The unified issuance API: one protocol, composable stacks, a wire gateway.

The script tours ``repro.api``, the layer that puts every issuer behind one
surface:

1. ``build_service(profile=...)`` assembles serial / replicated issuance
   stacks from one factory -- all satisfying the ``TokenIssuer``
   protocol, so the calling code never changes;
2. the two edge policies (rate limiting, fail-over retries)
   are middleware layers, not forked classes;
3. a ``ServiceGateway`` exposes any stack behind versioned wire envelopes;
   the ``GatewayClient`` speaks the same protocol back, so wallets work
   unchanged across the wire;
4. failures carry stable error codes (``DENIED``, ``RATE_LIMITED``,
   ``COUNTER_TIMEOUT``, ...) inside the results -- batch submissions never
   abort mid-batch;
5. rule updates flow through the protocol, and over the wire they are
   epoch-guarded read-modify-write;
6. the same gateway goes onto *real* sockets with ``serve``/``connect``:
   an asyncio TCP server with length-prefixed frames, and a pooled client
   transport negotiating the compact binary codec lane per envelope.

Run with:  python examples/gateway_quickstart.py
"""

from repro.api import (
    CODEC_BINARY,
    PROFILES,
    ErrorCode,
    ServiceGateway,
    build_service,
    connect,
    serve,
    unwrap,
)
from repro.chain import Blockchain
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import ClientWallet, OwnerWallet, TokenType
from repro.core.acr import WhitelistRule
from repro.core.token_request import TokenRequest
from repro.crypto.keys import KeyPair

TS_URL = "https://ts.gateway.example"


def main() -> None:
    chain = Blockchain()
    owner = chain.create_account("owner", seed="gw-owner")
    alice = chain.create_account("alice", seed="gw-alice")
    eve = chain.create_account("eve", seed="gw-eve")

    # --- 1. one factory, every deployment shape -------------------------------
    keypair = KeyPair.from_seed("gw-ts")
    for profile in PROFILES:
        stack = build_service(profile, keypair=keypair, clock=chain.clock)
        print(f"build_service({profile!r:12}) -> {type(stack).__name__:16} "
              f"base={type(unwrap(stack)).__name__}")

    # --- 2. a replicated stack with rate limiting layered on -----------------
    service = build_service(
        "replicated",
        keypair=keypair,
        clock=chain.clock,
        replica_count=3,
        rate_limit=(50, 64),   # 50 tokens/s, bursts of 64
    )
    service.update_rules(lambda rules: rules.add_rule(
        WhitelistRule([alice.address], name="partners")
    ))

    # --- 3. publish it behind the gateway, talk to it over the wire ----------
    gateway = ServiceGateway()
    gateway.register(TS_URL, service)
    client = gateway.client_for(TS_URL)
    print(f"\ngateway routes: {client.describe()['routes']}")
    print(f"pkTS over the wire: {client.address_hex}")

    recorder = OwnerWallet(owner, client).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=1024, ts_url=TS_URL
    ).return_value

    # The wallet only sees the TokenIssuer protocol -- the wire is invisible.
    wallet = ClientWallet(alice, {recorder.this: client})
    receipt = wallet.call_with_token(recorder, "submit", amount=42,
                                     token_type=TokenType.METHOD, one_time=True)
    print(f"alice.submit(42) through the gateway: success={receipt.success}, "
          f"gas={receipt.gas_used:,}")

    # --- 4. batch submissions carry errors, they never raise mid-batch --------
    batch = [
        TokenRequest.method_token(recorder.this, alice.address, "submit"),
        TokenRequest.method_token(recorder.this, eve.address, "submit"),
        TokenRequest.method_token(recorder.this, alice.address, "submit",
                                  one_time=True),
    ]
    results = client.submit(batch)
    for request, result in zip(batch, results):
        outcome = "issued" if result.issued else result.code.value
        print(f"  {request.describe():<60} -> {outcome}")

    # --- 5. stats fold every layer; the transport counts the wire -------------
    stats = client.stats()
    print(f"\nissued={stats['issued']} denied={stats['denied']} "
          f"failovers={stats['retry_failover']['failovers']} "
          f"rate-limited={stats['rate_limiter']['limited']}")
    print(f"wire traffic: {stats['transport']['requests']} envelopes, "
          f"{stats['transport']['bytes_sent']}B out / "
          f"{stats['transport']['bytes_received']}B back")
    assert results[1].code is ErrorCode.DENIED

    # --- 6. the same gateway over real TCP sockets ----------------------------
    with serve(gateway) as server:          # port 0 -> a free port, read back
        print(f"\ngateway listening on {server.url}")
        tcp_client = connect(server.url, wire_codec=CODEC_BINARY)
        try:
            result = tcp_client.submit(TokenRequest.method_token(
                recorder.this, alice.address, "submit", one_time=True
            ))[0]
            wire = tcp_client.stats()["transport"]
            print(f"issued over TCP (binary lane): {result.issued}; "
                  f"{wire['kind']} transport dialled {wire['dials']}x, "
                  f"{wire['bytes_sent']}B out / {wire['bytes_received']}B back")
        finally:
            tcp_client.close()
    print(f"server saw {server.stats()['frames_served']} frames; "
          "closed cleanly")


if __name__ == "__main__":
    main()
