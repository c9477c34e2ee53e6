"""Access Control Rules (ACRs, §IV-E).

Rules live entirely off-chain inside the Token Service.  Every token type has
a set of rules associated with it; a token request is checked against the
rules of its type and a token is issued only when every rule allows it.

The building blocks mirror the paper's examples:

* :class:`WhitelistRule` / :class:`BlacklistRule` -- sender (or per-method
  sender) allow/deny lists, the Fig. 6 structure;
* :class:`ArgumentRule` -- allow/deny specific argument values of a method
  (e.g. blacklisting dangerous payloads);
* :class:`PredicateRule` -- arbitrary owner-supplied predicates;
* :class:`RuntimeVerificationRule` -- wraps a runtime-verification tool
  (Hydra uniformity, ECFChecker) that simulates the requested call off-chain
  and denies the token when it observes abnormal behaviour (§V).

Rules are plain objects that can be added, removed or replaced at runtime
through :class:`RuleSet`, without touching the deployed contract -- the
flexibility/extensibility goal of §III-B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, TYPE_CHECKING

from repro.chain.address import Address, to_address
from repro.core.token import TokenType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.token_request import TokenRequest


@dataclass(frozen=True)
class AccessDecision:
    """The outcome of evaluating one rule (or a whole rule set)."""

    allowed: bool
    reason: str = ""

    @classmethod
    def allow(cls, reason: str = "allowed") -> "AccessDecision":
        return cls(True, reason)

    @classmethod
    def deny(cls, reason: str) -> "AccessDecision":
        return cls(False, reason)

    def __bool__(self) -> bool:
        return self.allowed


class Rule:
    """Base class for ACRs.  Subclasses implement :meth:`evaluate`."""

    #: human-readable name used in decisions and rule management
    name: str = "rule"

    def evaluate(self, request: "TokenRequest") -> AccessDecision:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


def _normalise_addresses(addresses: Iterable[Any]) -> frozenset[Address]:
    return frozenset(to_address(addr) for addr in addresses)


class WhitelistRule(Rule):
    """Allow only listed client addresses (optionally scoped to a method)."""

    def __init__(self, addresses: Iterable[Any], method: str | None = None,
                 name: str = "whitelist"):
        self.addresses = _normalise_addresses(addresses)
        self.method = method
        self.name = name if method is None else f"{name}:{method}"

    def add(self, address: Any) -> None:
        self.addresses = self.addresses | {to_address(address)}

    def remove(self, address: Any) -> None:
        self.addresses = self.addresses - {to_address(address)}

    def evaluate(self, request: "TokenRequest") -> AccessDecision:
        if self.method is not None and request.method != self.method:
            return AccessDecision.allow("rule not applicable to this method")
        if request.client in self.addresses:
            return AccessDecision.allow("client is whitelisted")
        return AccessDecision.deny(f"client not on {self.name}")


class BlacklistRule(Rule):
    """Deny listed client addresses (optionally scoped to a method)."""

    def __init__(self, addresses: Iterable[Any], method: str | None = None,
                 name: str = "blacklist"):
        self.addresses = _normalise_addresses(addresses)
        self.method = method
        self.name = name if method is None else f"{name}:{method}"

    def add(self, address: Any) -> None:
        self.addresses = self.addresses | {to_address(address)}

    def remove(self, address: Any) -> None:
        self.addresses = self.addresses - {to_address(address)}

    def evaluate(self, request: "TokenRequest") -> AccessDecision:
        if self.method is not None and request.method != self.method:
            return AccessDecision.allow("rule not applicable to this method")
        if request.client in self.addresses:
            return AccessDecision.deny(f"client is on {self.name}")
        return AccessDecision.allow("client not blacklisted")


class ArgumentRule(Rule):
    """Constrain the values an argument may take in an argument-token request.

    ``allowed`` whitelists values, ``denied`` blacklists them; either may be
    omitted.  The rule only applies to argument tokens for ``method`` (or any
    method when ``method`` is None).
    """

    def __init__(
        self,
        argument: str,
        allowed: Iterable[Any] | None = None,
        denied: Iterable[Any] | None = None,
        method: str | None = None,
    ):
        self.argument = argument
        self.allowed = set(allowed) if allowed is not None else None
        self.denied = set(denied) if denied is not None else None
        self.method = method
        self.name = f"argument:{argument}"

    def evaluate(self, request: "TokenRequest") -> AccessDecision:
        if request.token_type is not TokenType.ARGUMENT:
            return AccessDecision.allow("not an argument token")
        if self.method is not None and request.method != self.method:
            return AccessDecision.allow("rule not applicable to this method")
        if self.argument not in request.arguments:
            return AccessDecision.allow("argument not present in request")
        value = request.arguments[self.argument]
        if self.denied is not None and value in self.denied:
            return AccessDecision.deny(f"value {value!r} for '{self.argument}' is blacklisted")
        if self.allowed is not None and value not in self.allowed:
            return AccessDecision.deny(f"value {value!r} for '{self.argument}' is not whitelisted")
        return AccessDecision.allow("argument value acceptable")


class PredicateRule(Rule):
    """An arbitrary owner-supplied predicate over the token request."""

    def __init__(self, predicate: Callable[["TokenRequest"], bool], name: str = "predicate"):
        self.predicate = predicate
        self.name = name

    def evaluate(self, request: "TokenRequest") -> AccessDecision:
        if self.predicate(request):
            return AccessDecision.allow(f"{self.name} satisfied")
        return AccessDecision.deny(f"{self.name} rejected the request")


class RuntimeVerificationRule(Rule):
    """Delegate the decision to a runtime-verification tool (§V).

    The tool must expose ``check(request) -> AccessDecision | bool``; Hydra
    uniformity and the ECFChecker integration in
    :mod:`repro.verification` follow this protocol.
    """

    def __init__(self, tool: Any, name: str | None = None):
        self.tool = tool
        self.name = name or f"runtime:{type(tool).__name__}"

    def evaluate(self, request: "TokenRequest") -> AccessDecision:
        verdict = self.tool.check(request)
        if isinstance(verdict, AccessDecision):
            return verdict
        if verdict:
            return AccessDecision.allow(f"{self.name} accepted the call")
        return AccessDecision.deny(f"{self.name} flagged the call")


class RuleSet:
    """The per-token-type rule collections maintained by a Token Service.

    Rules can be managed dynamically (added, removed, replaced) by the owner
    without any change to the deployed contract.
    """

    def __init__(self) -> None:
        self._rules: dict[TokenType, list[Rule]] = {t: [] for t in TokenType}
        self._global_rules: list[Rule] = []

    # -- management -----------------------------------------------------------

    def add_rule(self, rule: Rule, token_type: TokenType | None = None) -> None:
        """Attach a rule to one token type, or to all types when None."""
        if token_type is None:
            self._global_rules.append(rule)
        else:
            self._rules[token_type].append(rule)

    def remove_rule(self, rule_name: str) -> int:
        """Remove every rule whose name matches; returns how many were removed."""
        removed = 0
        for bucket in list(self._rules.values()) + [self._global_rules]:
            keep = [r for r in bucket if r.name != rule_name]
            removed += len(bucket) - len(keep)
            bucket[:] = keep
        return removed

    def rules_for(self, token_type: TokenType) -> list[Rule]:
        return list(self._global_rules) + list(self._rules[token_type])

    def rule_names(self) -> list[str]:
        names = [rule.name for rule in self._global_rules]
        for token_type in TokenType:
            names.extend(rule.name for rule in self._rules[token_type])
        return names

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, request: "TokenRequest") -> AccessDecision:
        """Evaluate a request against every applicable rule (all must allow)."""
        applicable = self.rules_for(request.token_type)
        if not applicable:
            return AccessDecision.allow("no rules configured for this token type")
        for rule in applicable:
            decision = rule.evaluate(request)
            if not decision.allowed:
                return decision
        return AccessDecision.allow("all rules satisfied")

    # -- Fig. 6 style configuration -----------------------------------------------------

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "RuleSet":
        """Build a rule set from the JSON-like structure of Fig. 6.

        Example::

            {
              "sender": {"whitelist": ["0x366c...", ...]},
              "method": {"methodA": {"blacklist": ["0xBa7F...", ...]}},
              "argument": {"argA": {"whitelist": [ ... values ... ]}},
            }

        ``sender`` rules apply to every token type; ``method`` rules apply to
        method and argument tokens for the named method; ``argument`` rules
        apply to argument tokens.
        """
        ruleset = cls()
        sender_cfg = config.get("sender", {})
        if "whitelist" in sender_cfg:
            ruleset.add_rule(WhitelistRule(sender_cfg["whitelist"], name="sender-whitelist"))
        if "blacklist" in sender_cfg:
            ruleset.add_rule(BlacklistRule(sender_cfg["blacklist"], name="sender-blacklist"))

        for method_name, method_cfg in config.get("method", {}).items():
            for token_type in (TokenType.METHOD, TokenType.ARGUMENT):
                if "whitelist" in method_cfg:
                    ruleset.add_rule(
                        WhitelistRule(method_cfg["whitelist"], method=method_name),
                        token_type,
                    )
                if "blacklist" in method_cfg:
                    ruleset.add_rule(
                        BlacklistRule(method_cfg["blacklist"], method=method_name),
                        token_type,
                    )

        for arg_name, arg_cfg in config.get("argument", {}).items():
            ruleset.add_rule(
                ArgumentRule(
                    arg_name,
                    allowed=arg_cfg.get("whitelist"),
                    denied=arg_cfg.get("blacklist"),
                    method=arg_cfg.get("method"),
                ),
                TokenType.ARGUMENT,
            )
        return ruleset

    #: rule classes the Fig. 6 config can express (and so the wire can carry)
    CONFIG_RULE_TYPES: "tuple[type, ...]" = (WhitelistRule, BlacklistRule, ArgumentRule)

    def load_config(self, config: Mapping[str, Any]) -> None:
        """Replace the config-expressible rules in place from a Fig. 6 config.

        In place, not by swapping the object: a replicated front end's
        replicas share one ``RuleSet`` by reference, so the wire-level rule
        replacement of the service gateway must mutate the shared instance
        for every replica to observe the update.

        Only the whitelist/blacklist/argument rules the config can express
        are replaced; programmatic rules (:class:`PredicateRule`,
        :class:`RuntimeVerificationRule`, custom subclasses) survive the
        reload untouched -- a wire-level update must never silently turn a
        fail-closed in-process policy fail-open.
        """
        fresh = RuleSet.from_config(config)

        def kept(bucket: list[Rule]) -> list[Rule]:
            return [r for r in bucket if not isinstance(r, RuleSet.CONFIG_RULE_TYPES)]

        self._global_rules[:] = fresh._global_rules + kept(self._global_rules)
        for token_type in TokenType:
            self._rules[token_type][:] = (
                fresh._rules[token_type] + kept(self._rules[token_type])
            )

    def to_config(self) -> dict[str, Any]:
        """Best-effort inverse of :meth:`from_config` (used for persistence)."""
        config: dict[str, Any] = {"sender": {}, "method": {}, "argument": {}}
        for rule in self._global_rules:
            if isinstance(rule, WhitelistRule) and rule.method is None:
                config["sender"]["whitelist"] = sorted(
                    "0x" + a.hex() for a in rule.addresses
                )
            elif isinstance(rule, BlacklistRule) and rule.method is None:
                config["sender"]["blacklist"] = sorted(
                    "0x" + a.hex() for a in rule.addresses
                )
        for token_type in TokenType:
            for rule in self._rules[token_type]:
                if isinstance(rule, (WhitelistRule, BlacklistRule)) and rule.method:
                    entry = config["method"].setdefault(rule.method, {})
                    key = "whitelist" if isinstance(rule, WhitelistRule) else "blacklist"
                    entry[key] = sorted("0x" + a.hex() for a in rule.addresses)
                elif isinstance(rule, ArgumentRule):
                    entry = config["argument"].setdefault(rule.argument, {})
                    if rule.allowed is not None:
                        entry["whitelist"] = sorted(rule.allowed, key=repr)
                    if rule.denied is not None:
                        entry["blacklist"] = sorted(rule.denied, key=repr)
                    if rule.method:
                        entry["method"] = rule.method
        return config
