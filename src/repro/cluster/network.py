"""The interconnect cost model: cross-machine handoffs, priced.

A cluster routes requests between machine *pools* over a real network,
and a request served away from its tenant's home pool must ship its
input arrays over and its results back.  This module prices that
handoff with the same stance :func:`repro.graphs.compose.edge_transfer`
takes for PCIe copies inside one machine: bytes over bandwidth plus a
per-message latency, the two directions serializing through the link
(the request cannot start remotely before its inputs land, and the
answer cannot return before the remote run finishes), and a zero-byte
handoff costing nothing — data already resident where it is needed is
free, exactly like a resident PCIe buffer.

Energy follows the PCIe model too: the link draws ``link_watts`` while
a transfer is in flight, so cross-pool joules are watts × seconds just
as PCIe dynamic joules are ``transfer_power_w() ×`` copy seconds.

The spec is deliberately tiny and declarative — like
:class:`~repro.faults.FaultSpec`, it is data the cluster scenario is
reproducible from, not behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["NetworkSpec"]


@dataclass(frozen=True)
class NetworkSpec:
    """One cluster interconnect: bandwidth, latency, link power.

    Attributes:
        bandwidth_gbs: sustained link bandwidth in GB/s per direction
            (10 is a 100 GbE-class fabric after protocol overhead).
        latency_s: per-message latency one transfer pays regardless of
            size (switch hops + protocol round-trip).
        link_watts: draw attributed to the link while a transfer is in
            flight; joules = watts × transfer seconds, mirroring the
            PCIe ``transfer_power_w`` accounting.
    """

    bandwidth_gbs: float = 10.0
    latency_s: float = 50e-6
    link_watts: float = 8.0

    def __post_init__(self) -> None:
        if not self.bandwidth_gbs > 0:
            raise ValueError("bandwidth_gbs must be positive")
        if not 0.0 <= self.latency_s < math.inf:
            raise ValueError("latency_s must be non-negative and finite")
        if not 0.0 <= self.link_watts < math.inf:
            raise ValueError("link_watts must be non-negative and finite")

    def transfer_time_s(self, nbytes: int) -> float:
        """Seconds one directed transfer of ``nbytes`` occupies the link.

        Zero bytes cost zero — resident data never pays, exactly like a
        host-resident device in the PCIe model.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return nbytes / (self.bandwidth_gbs * 1e9) + self.latency_s

    def handoff(self, nbytes_in: int, nbytes_out: int = 0) -> tuple[float, float]:
        """Price one cross-pool round trip; returns (seconds, joules).

        The ingress (request inputs to the remote pool) and the egress
        (results back) serialize — the remote run sits between them —
        so the seconds add, exactly as the D2H and H2D phases of a PCIe
        edge transfer serialize through host memory.
        """
        seconds = self.transfer_time_s(nbytes_in) + self.transfer_time_s(nbytes_out)
        return seconds, seconds * self.link_watts
