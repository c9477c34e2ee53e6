"""Token Service discovery (§VII-B "Service Discovery").

The paper proposes publishing the TS address as contract instance metadata.
SMACS-enabled contracts store their TS URL in a well-known storage slot
(written by :meth:`repro.core.smacs_contract.SMACSContract.init_smacs`); the
discovery registry resolves a contract address to a live issuer by reading
that slot and looking the URL up in its directory of known services.

The directory holds :class:`~repro.api.protocol.TokenIssuer` stacks, not a
concrete service class: a serial ``TokenService``, a replicated stack
from :func:`repro.api.factory.build_service`, or a wire-level
:class:`~repro.api.gateway.GatewayClient` all publish and resolve the same
way (the URL a gateway client was built for is naturally the route it
answers under).

URLs that name a *remote* endpoint resolve through the optional ``dialer``
hook -- a ``Callable[[str], TokenIssuer | None]`` consulted when the local
directory misses.  :func:`repro.api.transport.dial` is the stock dialer: it
turns ``tcp://host:port`` metadata into a live, pooled
:class:`~repro.api.gateway.GatewayClient`.  The hook keeps the layering rule
intact (``core`` never imports ``api``) while letting a wallet follow a
contract's published TS URL across the real wire; dialled issuers are cached
in the directory so each endpoint is dialled once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.chain.address import Address
from repro.chain.chain import Blockchain
from repro.core.smacs_contract import TS_URL_SLOT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.protocol import TokenIssuer


class ServiceDiscovery:
    """Resolves contract addresses to token-issuer stacks."""

    def __init__(
        self,
        chain: Blockchain,
        dialer: "Optional[Callable[[str], Optional[TokenIssuer]]]" = None,
    ):
        self.chain = chain
        self.dialer = dialer
        self._directory: "dict[str, TokenIssuer]" = {}

    def publish(self, url: str, service: "TokenIssuer") -> None:
        """Register a running issuer stack under its URL."""
        self._directory[url] = service

    def url_for(self, contract: Address) -> str | None:
        """Read the TS URL published in the contract's metadata slot."""
        return self.chain.state.storage_get(contract, TS_URL_SLOT, None)

    def resolve(self, contract: Address) -> "TokenIssuer | None":
        """Find the issuer serving ``contract`` (None when unknown).

        Local directory entries win; otherwise the ``dialer`` may turn the
        published URL into a live issuer (e.g. a wire-level gateway client),
        which is cached for subsequent resolutions.
        """
        url = self.url_for(contract)
        if url is None:
            return None
        issuer = self._directory.get(url)
        if issuer is None and self.dialer is not None:
            issuer = self.dialer(url)
            if issuer is not None:
                self._directory[url] = issuer
        return issuer

    def known_urls(self) -> list[str]:
        return sorted(self._directory)
