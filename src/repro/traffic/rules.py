"""Regex ruleset model (L7-filter substitute).

The paper compiles the L7-filter application-protocol patterns for the
BlueField-2 RXP engine. We model a ruleset as a set of literal trigger
tokens with per-rule complexity weights: payload generation plants
tokens to hit a target match-to-byte ratio, and scanning counts planted
token occurrences. This preserves what matters for the performance
model — the number of matches per byte of payload — without shipping a
full regex engine onto the accelerator model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.numeric import left_sum


@dataclass(frozen=True)
class RegexRule:
    """One pattern in a ruleset."""

    name: str
    token: bytes
    complexity: float = 1.0  # relative match-processing cost

    def __post_init__(self) -> None:
        if not self.token:
            raise ConfigurationError(f"rule {self.name!r} has an empty token")
        if self.complexity <= 0:
            raise ConfigurationError(f"rule {self.name!r}: complexity must be > 0")


class RuleSet:
    """A collection of rules that payloads are scanned against."""

    def __init__(self, rules: list[RegexRule]) -> None:
        if not rules:
            raise ConfigurationError("a ruleset needs at least one rule")
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate rule names in ruleset")
        tokens = [r.token for r in rules]
        if len(set(tokens)) != len(tokens):
            raise ConfigurationError("duplicate rule tokens in ruleset")
        self._rules = tuple(rules)

    @property
    def rules(self) -> tuple[RegexRule, ...]:
        return self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def scan(self, payload: bytes) -> dict[str, int]:
        """Count occurrences of each rule token in ``payload``."""
        counts = {}
        for rule in self._rules:
            count = 0
            start = 0
            while True:
                hit = payload.find(rule.token, start)
                if hit < 0:
                    break
                count += 1
                start = hit + len(rule.token)
            counts[rule.name] = count
        return counts

    def total_matches(self, payload: bytes) -> int:
        """Total matches of all rules in ``payload``."""
        return sum(self.scan(payload).values())

    def average_complexity(self) -> float:
        """Mean per-match processing weight across rules."""
        return left_sum(r.complexity for r in self._rules) / len(self._rules)


def l7_filter_ruleset() -> RuleSet:
    """A small stand-in for the L7-filter protocol patterns [5].

    Tokens are drawn from the protocol signatures the real ruleset keys
    on (HTTP verbs, TLS handshake bytes, protocol banners).
    """
    return RuleSet(
        [
            RegexRule("http-get", b"GET /", 1.0),
            RegexRule("http-post", b"POST /", 1.0),
            RegexRule("ssh-banner", b"SSH-2.0", 0.8),
            RegexRule("tls-hello", b"\x16\x03\x01", 1.2),
            RegexRule("smtp-helo", b"HELO ", 0.9),
            RegexRule("dns-ptr", b"in-addr.arpa", 1.1),
            RegexRule("ftp-user", b"USER ", 0.7),
            RegexRule("sip-invite", b"INVITE sip:", 1.3),
            RegexRule("rtsp-setup", b"SETUP rtsp://", 1.2),
            RegexRule("bittorrent", b"\x13BitTorrent", 1.5),
        ]
    )
