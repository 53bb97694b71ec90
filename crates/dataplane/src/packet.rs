//! Probe and response packet types.

use bdrmap_types::Addr;

/// What kind of probe packet is sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// ICMP echo request (traceroute probes, pings, Ally-icmp).
    IcmpEcho,
    /// UDP datagram to an unused high port (Mercator, Ally-udp).
    Udp,
    /// TCP ACK to port 80 (Ally-tcp).
    TcpAck,
}

/// A probe packet leaving a vantage point.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Source address — must be a VP address known to the data plane.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Initial TTL. Traceroute uses 1..n; alias probes use 64.
    pub ttl: u8,
    /// Paris flow identifier: the fields load balancers hash. Keeping it
    /// constant across a traceroute keeps the path stable.
    pub flow: u16,
    /// Probe type.
    pub kind: ProbeKind,
    /// Simulated send time in milliseconds (drives IPID velocity).
    pub time_ms: u64,
}

/// Why a destination was unreachable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnreachReason {
    /// No host at the probed address (ICMP host unreachable).
    Host,
    /// Administratively filtered at a network edge (the signal behind
    /// heuristic 8.2).
    AdminFiltered,
    /// UDP port unreachable (the Mercator signal).
    Port,
}

/// What kind of response came back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RespKind {
    /// ICMP time exceeded — the traceroute workhorse.
    TimeExceeded,
    /// ICMP echo reply.
    EchoReply,
    /// ICMP destination unreachable.
    DestUnreach(UnreachReason),
    /// TCP RST.
    TcpRst,
}

/// A response received at the vantage point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Response {
    /// Source address of the response — the only router identity
    /// bdrmap ever sees.
    pub src: Addr,
    /// Response type.
    pub kind: RespKind,
    /// IP-ID of the response packet (alias-resolution signal).
    pub ipid: u16,
    /// Round-trip time in microseconds: propagation along the forward
    /// path (doubled for the return) plus any queuing delay on
    /// congested links — the signal time-series latency probing (TSLP)
    /// consumes.
    pub rtt_us: u32,
}
