"""Token-request workload generation.

Besides the plain request stream behind the Fig. 9 throughput sweep, this
module builds the named scenario mixes the pipeline benchmarks exercise:

* :func:`flash_sale_bursts` -- a sale opens and closed-loop buyers hammer one
  method in bursts of one-time argument tokens, with zipf-like client skew;
* :func:`replay_storm` -- an adversarial mix where a handful of distinct
  requests is replayed over and over (the worst case for naive issuance, the
  best case for deterministic-signature memoisation, and on-chain the replay
  pressure the Alg. 2 bitmap exists to absorb);
* :func:`multi_contract_fanout` -- one client population spread across many
  SMACS-enabled contracts, stressing per-contract state separation.

All generators are deterministic in their ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence, TYPE_CHECKING

from repro.chain.address import Address
from repro.core.token import TokenType
from repro.core.token_request import TokenRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.protocol import TokenIssuer
    from repro.core.token_service import IssuanceResult


@dataclass
class WorkloadConfig:
    """Parameters of a token-request workload."""

    contract: Address
    clients: Sequence[Address]
    token_type: TokenType = TokenType.METHOD
    method: str = "submit"
    argument_space: dict[str, Sequence[Any]] = field(default_factory=dict)
    one_time: bool = False
    seed: int = 0


class TokenRequestWorkload:
    """Deterministic stream of token requests drawn from a configuration."""

    def __init__(self, config: WorkloadConfig):
        self.config = config
        self.random = random.Random(config.seed)

    def _arguments(self) -> dict[str, Any]:
        if self.config.token_type is not TokenType.ARGUMENT:
            return {}
        if self.config.argument_space:
            return {
                name: self.random.choice(list(values))
                for name, values in self.config.argument_space.items()
            }
        return {"amount": self.random.randint(1, 1000)}

    def next_request(self) -> TokenRequest:
        client = self.random.choice(list(self.config.clients))
        token_type = self.config.token_type
        return TokenRequest(
            token_type=token_type,
            contract=self.config.contract,
            client=client,
            method=None if token_type is TokenType.SUPER else self.config.method,
            arguments=self._arguments(),
            one_time=self.config.one_time,
        )

    def batch(self, size: int) -> list[TokenRequest]:
        return [self.next_request() for _ in range(size)]

    def stream(self, total: int) -> Iterator[TokenRequest]:
        for _ in range(total):
            yield self.next_request()


def batch_size_sweep(max_exponent: int = 5, base: int = 10) -> list[int]:
    """The 10^0 .. 10^max_exponent batch sizes of Fig. 9."""
    return [base**i for i in range(max_exponent + 1)]


# --- named scenario mixes -----------------------------------------------------


@dataclass
class ScenarioMix:
    """A named, pre-materialised workload: batches of token requests."""

    name: str
    batches: list[list[TokenRequest]]
    description: str = ""

    @property
    def total_requests(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def flattened(self) -> list[TokenRequest]:
        """The whole mix as one request list (for serial/batched baselines)."""
        return [request for batch in self.batches for request in batch]


def submit_mix(issuer: "TokenIssuer", mix: ScenarioMix) -> "list[IssuanceResult]":
    """Drive a scenario mix through any issuer stack, batch by batch.

    Each pre-materialised batch becomes one protocol submission (one
    front-end session overhead per batch), against whatever
    :class:`~repro.api.protocol.TokenIssuer` is supplied -- a serial service,
    a replicated stack from ``build_service`` or a gateway client.
    Results come back flattened, in request order, failures carried inside.
    """
    results: "list[IssuanceResult]" = []
    for batch in mix.batches:
        results.extend(issuer.submit(list(batch)))
    return results


def _skewed_choice(rng: random.Random, population: Sequence[Any]) -> Any:
    """Zipf-like pick: a few population members receive most of the traffic."""
    rank = min(int(rng.paretovariate(1.2)) - 1, len(population) - 1)
    return population[rank]


def flash_sale_bursts(
    contract: Address,
    clients: Sequence[Address],
    bursts: int = 8,
    burst_size: int = 64,
    method: str = "buy",
    price_points: Sequence[int] = (10, 25, 50, 100),
    seed: int = 0,
) -> ScenarioMix:
    """A flash sale: bursts of one-time argument tokens against one method.

    Client popularity is zipf-skewed (a few bots dominate) and every request
    carries the one-time property, so each burst drives the on-chain bitmap
    window forward exactly like a sale-opening stampede would.
    """
    rng = random.Random(seed)
    clients = list(clients)
    batches = []
    for _ in range(bursts):
        batch = [
            TokenRequest.argument_token(
                contract,
                _skewed_choice(rng, clients),
                method,
                {"amount": rng.choice(list(price_points))},
                one_time=True,
            )
            for _ in range(burst_size)
        ]
        batches.append(batch)
    return ScenarioMix(
        name="flash-sale",
        batches=batches,
        description=f"{bursts} bursts x {burst_size} one-time argument tokens",
    )


def replay_storm(
    contract: Address,
    clients: Sequence[Address],
    unique_requests: int = 16,
    replays_per_request: int = 16,
    method: str = "submit",
    batch_size: int = 64,
    seed: int = 0,
) -> ScenarioMix:
    """An adversarial storm replaying a small set of identical requests.

    The storm is issued *without* the one-time property: every replayed
    request is legitimate to re-issue (same digest, same signature), which is
    precisely the traffic shape a deterministic-signature cache collapses.
    """
    rng = random.Random(seed)
    clients = list(clients)
    distinct = [
        TokenRequest.method_token(contract, rng.choice(clients), method)
        for _ in range(unique_requests)
    ]
    stream = [rng.choice(distinct) for _ in range(unique_requests * replays_per_request)]
    batches = [stream[i:i + batch_size] for i in range(0, len(stream), batch_size)]
    return ScenarioMix(
        name="replay-storm",
        batches=batches,
        description=(
            f"{unique_requests} distinct method-token requests replayed "
            f"{replays_per_request}x"
        ),
    )


def multi_contract_fanout(
    contracts: Sequence[Address],
    clients: Sequence[Address],
    requests_per_contract: int = 32,
    method: str = "submit",
    batch_size: int = 64,
    one_time: bool = False,
    seed: int = 0,
) -> ScenarioMix:
    """One client population fanning out over many SMACS-enabled contracts."""
    rng = random.Random(seed)
    contracts = list(contracts)
    clients = list(clients)
    stream = [
        TokenRequest.method_token(
            contract, rng.choice(clients), method, one_time=one_time
        )
        for contract in contracts
        for _ in range(requests_per_contract)
    ]
    rng.shuffle(stream)
    batches = [stream[i:i + batch_size] for i in range(0, len(stream), batch_size)]
    return ScenarioMix(
        name="multi-contract-fanout",
        batches=batches,
        description=(
            f"{len(contracts)} contracts x {requests_per_contract} method tokens"
        ),
    )
