"""The NF catalog — paper Table 1 plus the Pensando Firewall (Table 9).

Every entry records the accelerators the NF uses, the framework the
paper implements it in, whether its performance depends on traffic
attributes (the "T" column of Table 1) and *which* attributes those are.
Demands are calibrated so solo throughputs land in the ranges the
paper's figures show (roughly 0.4 - 2.5 Mpps on two BlueField-2 cores).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.nf.elements import (
    CompressStage,
    FixedTable,
    HashTable,
    HeaderParse,
    PacketCopy,
    PacketIo,
    RegexScan,
)
from repro.nf.framework import NetworkFunction
from repro.nic.workload import ExecutionPattern

_PIPELINE = ExecutionPattern.PIPELINE
_RTC = ExecutionPattern.RUN_TO_COMPLETION


@dataclass(frozen=True)
class NfDescriptor:
    """Catalog metadata for one NF (the paper's Table 1 row)."""

    name: str
    display_name: str
    framework: str
    accelerators: tuple[str, ...]
    traffic_sensitive: bool
    sensitive_attributes: tuple[str, ...]
    builder: Callable[[], NetworkFunction] = field(repr=False)

    def build(self) -> NetworkFunction:
        """Instantiate the NF."""
        return self.builder()


def _flowstats() -> NetworkFunction:
    """Per-flow packet/byte statistics (header-only, flow-count bound)."""
    return NetworkFunction(
        name="flowstats",
        framework="click",
        pattern=_RTC,
        elements=(
            PacketIo(cycles=1100.0),
            HeaderParse(cycles=600.0),
            HashTable(
                "flow-stats-table",
                entry_bytes=128.0,
                reads_pp=16.0,
                writes_pp=6.0,
                base_bytes=128 * 1024,
                cycles=500.0,
                mlp=3.0,
            ),
        ),
    )


def _iprouter() -> NetworkFunction:
    """IPv4 longest-prefix-match forwarding over a fixed FIB."""
    return NetworkFunction(
        name="iprouter",
        framework="click",
        pattern=_RTC,
        elements=(
            PacketIo(cycles=1000.0),
            HeaderParse(cycles=450.0),
            FixedTable(
                "lpm-fib",
                wss_bytes=2 * 1024 * 1024,
                reads_pp=7.0,
                cycles=400.0,
                mlp=2.5,
            ),
        ),
    )


def _iptunnel() -> NetworkFunction:
    """IP-in-IP encapsulation: copies payload, packet-size sensitive."""
    return NetworkFunction(
        name="iptunnel",
        framework="click",
        pattern=_PIPELINE,
        elements=(
            PacketIo(cycles=900.0),
            HeaderParse(cycles=400.0),
            PacketCopy(
                "encapsulate",
                bytes_fraction=2.0,
                wss_bytes=3 * 1024 * 1024,
                cycles=250.0,
                mlp=4.0,
            ),
        ),
    )


def _nat() -> NetworkFunction:
    """Stateful source NAT with a per-flow mapping table."""
    return NetworkFunction(
        name="nat",
        framework="click",
        pattern=_RTC,
        elements=(
            PacketIo(cycles=1000.0),
            HeaderParse(cycles=550.0),
            HashTable(
                "nat-mapping",
                entry_bytes=160.0,
                reads_pp=12.0,
                writes_pp=8.0,
                base_bytes=256 * 1024,
                cycles=600.0,
                mlp=3.0,
            ),
        ),
    )


def _flowmonitor() -> NetworkFunction:
    """Per-flow monitoring + payload inspection (regex accelerator)."""
    return NetworkFunction(
        name="flowmonitor",
        framework="click",
        pattern=_PIPELINE,
        elements=(
            PacketIo(cycles=900.0),
            HeaderParse(cycles=400.0),
            HashTable(
                "monitor-table",
                entry_bytes=96.0,
                reads_pp=18.0,
                writes_pp=6.0,
                base_bytes=128 * 1024,
                cycles=400.0,
                mlp=2.5,
            ),
            RegexScan("payload-inspect", payload_fraction=0.5),
        ),
    )


def _nids() -> NetworkFunction:
    """Signature-based intrusion detection (regex accelerator)."""
    return NetworkFunction(
        name="nids",
        framework="click",
        pattern=_RTC,
        elements=(
            PacketIo(cycles=900.0),
            HeaderParse(cycles=600.0),
            FixedTable(
                "signature-index",
                wss_bytes=1024 * 1024,
                reads_pp=6.0,
                cycles=350.0,
                mlp=2.5,
            ),
            HashTable(
                "connection-state",
                entry_bytes=64.0,
                reads_pp=5.0,
                writes_pp=2.0,
                base_bytes=128 * 1024,
                cycles=250.0,
                mlp=3.0,
            ),
            RegexScan("signature-scan", payload_fraction=0.6),
        ),
    )


def _ipcomp_gateway() -> NetworkFunction:
    """IPComp gateway: inspect then compress (regex + compression)."""
    return NetworkFunction(
        name="ipcomp",
        framework="click",
        pattern=_PIPELINE,
        elements=(
            PacketIo(cycles=900.0),
            HeaderParse(cycles=400.0),
            PacketCopy(
                "staging-buffer",
                bytes_fraction=0.5,
                wss_bytes=512 * 1024,
                cycles=200.0,
                mlp=8.0,
            ),
            RegexScan("policy-scan", payload_fraction=0.4),
            CompressStage("ipcomp-deflate", payload_fraction=1.0),
        ),
    )


def _acl() -> NetworkFunction:
    """Stateless access control list (lightweight, traffic-insensitive)."""
    return NetworkFunction(
        name="acl",
        framework="dpdk",
        pattern=_RTC,
        elements=(
            PacketIo(cycles=800.0),
            HeaderParse(cycles=450.0),
            FixedTable(
                "acl-trie",
                wss_bytes=512 * 1024,
                reads_pp=4.0,
                cycles=300.0,
                mlp=2.5,
            ),
        ),
    )


def _flowclassifier() -> NetworkFunction:
    """Flow classification into service classes (per-flow table)."""
    return NetworkFunction(
        name="flowclassifier",
        framework="dpdk",
        pattern=_PIPELINE,
        elements=(
            PacketIo(cycles=800.0),
            HeaderParse(cycles=500.0),
            HashTable(
                "class-table",
                entry_bytes=64.0,
                reads_pp=10.0,
                writes_pp=3.0,
                base_bytes=128 * 1024,
                cycles=400.0,
                mlp=3.0,
            ),
        ),
    )


def _flowtracker() -> NetworkFunction:
    """Connection tracking with per-flow timestamps/state."""
    return NetworkFunction(
        name="flowtracker",
        framework="doca",
        pattern=_RTC,
        elements=(
            PacketIo(cycles=900.0),
            HeaderParse(cycles=450.0),
            HashTable(
                "tracker-table",
                entry_bytes=128.0,
                reads_pp=12.0,
                writes_pp=6.0,
                base_bytes=128 * 1024,
                cycles=450.0,
                mlp=3.0,
            ),
        ),
    )


def _packetfilter() -> NetworkFunction:
    """DOCA packet filter with payload pattern matching (regex)."""
    return NetworkFunction(
        name="packetfilter",
        framework="doca",
        pattern=_RTC,
        elements=(
            PacketIo(cycles=800.0),
            HeaderParse(cycles=350.0),
            FixedTable(
                "filter-rules",
                wss_bytes=128 * 1024,
                reads_pp=3.0,
                cycles=200.0,
                mlp=2.5,
            ),
            RegexScan("filter-scan", payload_fraction=0.5),
        ),
    )


def _firewall() -> NetworkFunction:
    """Pensando firewall: hardware flow-table walk + metadata update.

    The Table 9 generalisation NF; runs on the Pensando NIC profile.
    """
    return NetworkFunction(
        name="firewall",
        framework="pensando",
        pattern=_RTC,
        elements=(
            PacketIo(cycles=700.0),
            HeaderParse(cycles=400.0),
            HashTable(
                "flow-walk-table",
                entry_bytes=128.0,
                reads_pp=14.0,
                writes_pp=5.0,
                base_bytes=256 * 1024,
                cycles=500.0,
                mlp=3.0,
            ),
        ),
    )


#: All catalogued NFs by name.
NF_CATALOG: dict[str, NfDescriptor] = {
    d.name: d
    for d in (
        NfDescriptor(
            "flowstats", "FlowStats", "click", (), True, ("flow_count",), _flowstats
        ),
        NfDescriptor("iprouter", "IPRouter", "click", (), False, (), _iprouter),
        NfDescriptor(
            "iptunnel", "IPTunnel", "click", (), True, ("packet_size",), _iptunnel
        ),
        NfDescriptor("nat", "NAT", "click", (), True, ("flow_count",), _nat),
        NfDescriptor(
            "flowmonitor",
            "FlowMonitor",
            "click",
            ("regex",),
            True,
            ("flow_count", "mtbr"),
            _flowmonitor,
        ),
        NfDescriptor(
            "nids", "NIDS", "click", ("regex",), True, ("mtbr",), _nids
        ),
        NfDescriptor(
            "ipcomp",
            "IPComp Gateway",
            "click",
            ("regex", "compression"),
            True,
            ("packet_size", "mtbr"),
            _ipcomp_gateway,
        ),
        NfDescriptor("acl", "ACL", "dpdk", (), False, (), _acl),
        NfDescriptor(
            "flowclassifier",
            "FlowClassifier",
            "dpdk",
            (),
            True,
            ("flow_count",),
            _flowclassifier,
        ),
        NfDescriptor(
            "flowtracker",
            "FlowTracker",
            "doca",
            (),
            True,
            ("flow_count",),
            _flowtracker,
        ),
        NfDescriptor(
            "packetfilter",
            "PacketFilter",
            "doca",
            ("regex",),
            True,
            ("mtbr",),
            _packetfilter,
        ),
        NfDescriptor(
            "firewall",
            "Firewall",
            "pensando",
            (),
            True,
            ("flow_count",),
            _firewall,
        ),
    )
}

#: The nine NFs of the BlueField-2 evaluation (Table 2 rows).
EVALUATION_NF_NAMES: tuple[str, ...] = (
    "acl",
    "nids",
    "iptunnel",
    "iprouter",
    "flowclassifier",
    "flowtracker",
    "flowstats",
    "flowmonitor",
    "nat",
)


def make_nf(name: str) -> NetworkFunction:
    """Instantiate a catalogued NF by name."""
    try:
        return NF_CATALOG[name].build()
    except KeyError:
        raise ConfigurationError(
            f"unknown NF {name!r}; known: {sorted(NF_CATALOG)}"
        ) from None


@functools.cache
def shared_nf(name: str) -> NetworkFunction:
    """The catalogued NF ``name``, built once per process.

    NF objects are frozen, so loops that only read them (the fleet's
    per-resident solo lookups and mix rebuilds) share one instance
    instead of building a fresh one with :func:`make_nf` per use.
    """
    return make_nf(name)


def all_nf_names(include_pensando: bool = False) -> list[str]:
    """Names of all catalogued NFs (BlueField-2 ones by default)."""
    names = [n for n in NF_CATALOG if n != "firewall"]
    if include_pensando:
        names.append("firewall")
    return names


def traffic_sensitive_nf_names() -> list[str]:
    """NFs whose performance depends on traffic attributes (Table 5/8)."""
    return [
        d.name
        for d in NF_CATALOG.values()
        if d.traffic_sensitive and d.name != "firewall"
    ]
