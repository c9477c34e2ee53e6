"""Differential tests for the argument binder of SMACS-protected methods.

``smacs_protected`` reads a method's signature once and hangs a binder on
the wrapper (``_smacs_bind``); the wrapper and the node's
``reconstruct_datagram`` both bind a call's arguments through it.  The
reference is what Python itself does: ``inspect.signature(method)
.bind_partial(self, *args, **kwargs)`` minus ``self``, in the same order,
or a ``TypeError`` on both sides.
"""

import importlib
import inspect
import pkgutil
import string
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.contracts
from repro.chain import Blockchain
from repro.chain.contract import Contract, external
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import ClientWallet, OwnerWallet, TokenService, TokenType
from repro.core import token as token_mod
from repro.core.acr import RuleSet
from repro.core.smacs_contract import SMACSContract
from repro.core.transformer import make_smacs_enabled
from repro.core.verifier import reconstruct_datagram
from repro.crypto.keys import KeyPair
from test_core_wallet_discovery_transformer import LegacyVault

pytestmark = pytest.mark.slow  # hypothesis-heavy: the CI slow lane


class EveryKind(Contract):
    """A legacy contract whose one method has every kind of parameter."""

    @external
    def mixed(self, a, b=2, /, c=3, *rest, d, e=5, **extra):
        return a


def _protected_methods():
    classes = [make_smacs_enabled(LegacyVault), make_smacs_enabled(EveryKind)]
    for info in pkgutil.iter_modules(repro.contracts.__path__):
        module = importlib.import_module(f"repro.contracts.{info.name}")
        classes += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, SMACSContract)
            and value.__module__ == module.__name__
        ]
    return {
        f"{cls.__name__}.{name}": getattr(cls, name)
        for cls in classes
        for name in dir(cls)
        if getattr(getattr(cls, name, None), "_smacs_protected", False)
    }


PROTECTED = _protected_methods()


def test_the_scope_covers_every_protected_contract_method():
    assert {
        "ProtectedRecorder.submit",
        "ProtectedRecorder.sensitive_reset",
        "SMACSTokenSale.buy",
        "ChainContract.invoke",
        "SMACSLegacyVault.f",
        "SMACSLegacyVault.h",
        "SMACSLegacyVault.read",
        "SMACSEveryKind.mixed",
    } <= set(PROTECTED)
    assert all(hasattr(wrapper, "_smacs_bind") for wrapper in PROTECTED.values())


@st.composite
def calls(draw):
    wrapper = PROTECTED[draw(st.sampled_from(sorted(PROTECTED)))]
    names = list(inspect.signature(wrapper._smacs_wrapped).parameters)[1:]
    # Half the calls are the common shape -- keywords only, each a parameter.
    if names and draw(st.booleans()):
        return wrapper, (), draw(st.dictionaries(st.sampled_from(names), st.integers()))
    pool = names + ["self", "unknown", "amount", "memo"]
    args = tuple(draw(st.lists(st.integers(), max_size=4)))
    kwargs = draw(st.dictionaries(st.sampled_from(pool), st.integers(), max_size=4))
    return wrapper, args, kwargs


@given(call=calls())
@settings(max_examples=400, deadline=None)
def test_the_binder_is_bind_partial_without_self(call):
    wrapper, args, kwargs = call
    instance = object()
    try:
        bound = inspect.signature(wrapper._smacs_wrapped).bind_partial(
            instance, *args, **kwargs
        )
    except TypeError:
        with pytest.raises(TypeError):
            wrapper._smacs_bind(instance, args, kwargs)
        return
    expected = [(name, value) for name, value in bound.arguments.items() if name != "self"]
    assert list(wrapper._smacs_bind(instance, args, kwargs).items()) == expected


def _node():
    chain = Blockchain()
    owner = chain.create_account("owner", seed="binder-owner")
    client = chain.create_account("client", seed="binder-client")
    service = TokenService(
        keypair=KeyPair.from_seed("binder-ts"), rules=RuleSet(), clock=chain.clock
    )
    recorder = OwnerWallet(owner, service).deploy_protected(ProtectedRecorder).return_value
    wallet = ClientWallet(client)
    wallet.register_service(recorder, service)
    return chain, client, wallet, recorder


NODE = _node()


@given(
    amount=st.integers(1, 10**9),
    memo=st.none() | st.text(string.printable, max_size=12),
    shape=st.sampled_from(["positional", "mixed", "keywords"]),
)
@settings(max_examples=40, deadline=None)
def test_the_node_rebuilds_the_datagram_alg1_builds(amount, memo, shape):
    chain, client, wallet, recorder = NODE
    arguments = {"amount": amount} if memo is None else {"amount": amount, "memo": memo}
    token = wallet.request_token(recorder, TokenType.ARGUMENT, "submit", arguments)
    if shape == "keywords":
        args, kwargs = (), dict(arguments)
    elif shape == "mixed":
        args, kwargs = (amount,), {k: v for k, v in arguments.items() if k != "amount"}
    else:
        args, kwargs = tuple(arguments.values()), {}
    tx = client.build_transaction(
        recorder.this, "submit", args=args, kwargs={**kwargs, "token": token.to_bytes()}
    )
    rebuilt = reconstruct_datagram(tx, recorder, token)

    built = []
    signing_datagram = token_mod.signing_datagram
    with mock.patch.object(
        token_mod,
        "signing_datagram",
        lambda *a, **k: built.append(signing_datagram(*a, **k)) or built[-1],
    ):
        receipt = chain.send_transaction(tx)
    assert receipt.success, receipt.error
    assert built == [rebuilt]
