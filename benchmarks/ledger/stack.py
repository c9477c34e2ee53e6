"""The system under test, assembled from its public constructors.

``build_node`` is the deployment recipe (chain, funded accounts, the
SMACS-protected recorder, the execution pipeline); recovery needs it twice,
because contract code is live Python and is not stored.  ``build_stack`` adds
the issuance side (``build_service`` behind a ``ServiceGateway`` served over
loopback TCP, one pooled client connection) and the ``DurableStore``.

One ``SignatureCache()`` at its default size is shared by issuer, mempool
and executor: the ledger measures the program's own default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.api import GatewayClient, GatewayServer, ServiceGateway, build_service, connect, serve
from repro.api.middleware import unwrap
from repro.chain import Blockchain
from repro.chain.account import ExternallyOwnedAccount
from repro.contracts.protected_target import ProtectedRecorder
from repro.core.acr import RuleSet
from repro.core.bitmap import required_bitmap_bits
from repro.core.token_service import build_fig6_ruleset
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.pipeline import ExecutionPipeline
from repro.storage import DurableStore

ROUTE = "https://ts.ledger.example"
CLIENTS = 64
#: the paper's sizing rule (section IV-C) at its own lifetime and peak rate
BITMAP_BITS = required_bitmap_bits(3_600, 48.0)
#: Fig. 6 rule-set dimensions for ``argument_batch32``
FIG6_WHITELIST = 1_024
FIG6_BLACKLIST = 64
FIG6_AMOUNTS = 1_024


@dataclass
class Node:
    chain: Blockchain
    clients: "list[ExternallyOwnedAccount]"
    recorder: ProtectedRecorder
    pipeline: ExecutionPipeline
    cache: SignatureCache


@dataclass
class Stack:
    node: Node
    issuer: Any            # outermost layer of the build_service stack
    service: Any           # the ReplicatedTokenService underneath
    gateway: ServiceGateway
    server: GatewayServer
    client: GatewayClient
    store: DurableStore
    ts_keypair: KeyPair

    def close(self) -> None:
        self.client.close()
        self.server.close()
        self.store.close()


def ts_keypair() -> KeyPair:
    return KeyPair.from_seed("ledger-ts")


def build_node() -> Node:
    cache = SignatureCache()
    chain = Blockchain(auto_mine=True)
    chain.evm.signature_cache = cache
    owner = chain.create_account("owner", seed="ledger-owner")
    clients = [
        chain.create_account(f"client-{i}", seed=f"ledger-client-{i}") for i in range(CLIENTS)
    ]
    recorder = owner.deploy(
        ProtectedRecorder,
        ts_address=ts_keypair().address,
        one_time_bitmap_bits=BITMAP_BITS,
        ts_url=ROUTE,
        gas_limit=30_000_000,
    ).return_value
    chain.auto_mine = False
    pipeline = ExecutionPipeline(chain, signature_cache=cache)
    return Node(chain, clients, recorder, pipeline, cache)


def fig6_rules(node: Node) -> RuleSet:
    """Fig. 6: sender whitelist, a method blacklist, an ``amount`` whitelist."""
    padding = [
        keccak256(b"ledger-listed-%d" % i)[-20:]
        for i in range(FIG6_WHITELIST - len(node.clients) + FIG6_BLACKLIST)
    ]
    whitelist = [client.address for client in node.clients] + padding[FIG6_BLACKLIST:]
    return build_fig6_ruleset(
        whitelist,
        method_blacklists={"submit": padding[:FIG6_BLACKLIST]},
        argument_whitelists={"amount": range(1, FIG6_AMOUNTS + 1)},
    )


def build_stack(workdir: str, *, ruleset: str, wire_codec: str) -> Stack:
    node = build_node()
    keypair = ts_keypair()
    rules = fig6_rules(node) if ruleset == "fig6" else RuleSet()
    issuer = build_service(
        "replicated",
        replica_count=3,
        keypair=keypair,
        rules=rules,
        clock=node.chain.clock,
        signature_cache=node.cache,
    )
    gateway = ServiceGateway()
    gateway.register(ROUTE, issuer)
    store = DurableStore(os.path.join(workdir, "store"), "sqlite")
    store.attach(node.pipeline)
    server = serve(gateway)
    client = connect(server.url, ROUTE, wire_codec=wire_codec, pool_size=1)
    return Stack(node, issuer, unwrap(issuer), gateway, server, client, store, keypair)
