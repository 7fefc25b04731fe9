//! Pluggable transport under the protocol engines.
//!
//! The engines publish modifications into shared master copies; a
//! [`Transport`] decides what *else* happens at each publish.  The default
//! [`TransportKind::Simulated`] backend does nothing — messages remain pure
//! cost accounting, exactly as before, and the hot path stays branch-only.
//! The real backends replicate every publish as a [`WireFrame`] to a set of
//! replica holders and verify, at the end of the run, that every replica's
//! contents are byte-identical (FNV-fingerprint equal) to the engines'
//! master copies:
//!
//! * [`TransportKind::Channel`] — every simulated processor is a
//!   message-passing OS thread; frames travel as `Arc`'d flat payloads over
//!   `std::sync::mpsc` channels with zero copies, one full replica per node.
//! * [`TransportKind::SocketLocal`] / [`TransportKind::SocketRemote`] —
//!   frames are serialized with the dependency-free codec of
//!   [`dsm_mem::wire`] and streamed over length-prefixed TCP connections to
//!   replica peers: in-process listener threads (`SocketLocal`) or separate
//!   processes started by a driver (`SocketRemote`, see
//!   [`serve_transport_peer`]).
//!
//! Both real backends buffer per peer and move data at **epoch boundaries**:
//! an endpoint accumulates the interval's frames and the engines call
//! [`WireEndpoint::flush`] once per publish event, after the region locks
//! are released — one channel send (or one `write_all` syscall, with
//! `TCP_NODELAY` set) per peer per epoch instead of one per frame.  On the
//! wire the frames travel in v2 form (see [`dsm_mem::wire::encode_frame_v2`]):
//! vector clocks are [`CompactClock`] delta records against the stream's
//! previous clock, so ordering metadata scales with what changed, not with
//! nprocs.
//!
//! Beside the frames travel the out-of-band kinds of
//! [`WireMsgKind::OOB`] — engine control broadcasts, checkpoint images and
//! rollback notices — sent immediately by [`WireEndpoint::send_oob`] and
//! tagged with their kind on both backends, so a replica has exactly one
//! entry point per message kind.
//!
//! Cost accounting is transport-independent: the simulated clocks and
//! statistics are charged identically under every backend, so simulated
//! times and all goldens stay byte-identical; the backends differ only in
//! what moves on the host.  See `DESIGN.md` §6 for the backend contract and
//! the wire format.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};

use dsm_mem::wire::{
    self, begin_batch, encode_frame_v2, finish_batch, fnv64_regions, frame_v2_meta_len, read_msg,
    write_msg, BatchReader, FrameV2, OobTally, WireFrame, WireInit, WireMsgKind, WireReport,
};
use dsm_mem::{put_varint, varint_len, BufferPool, CompactClock};
use dsm_sim::NodeId;

use crate::config::DsmConfig;

/// Which transport carries publish frames during a run.
///
/// The simulated backend is the default and the only one that keeps the
/// publish hot path allocation-free; the real backends trade that for actual
/// bytes moving between threads or processes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// No replication: messages are cost accounting only (the default).
    #[default]
    Simulated,
    /// One replica per simulated processor; frames are `Arc`-shared over
    /// in-process `std::sync::mpsc` channels between the worker threads.
    Channel,
    /// This many replica peers served by in-process listener threads;
    /// frames are serialized and streamed over loopback TCP.
    SocketLocal(usize),
    /// Replica peers already running (separate processes, see
    /// [`serve_transport_peer`]) at these `host:port` addresses.
    SocketRemote(Vec<String>),
}

impl TransportKind {
    /// Short backend label used in reports and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Simulated => "sim",
            TransportKind::Channel => "channel",
            TransportKind::SocketLocal(_) | TransportKind::SocketRemote(_) => "socket",
        }
    }
}

/// End-of-run transport summary attached to every
/// [`RunResult`](crate::RunResult).
///
/// Under the simulated backend everything except `master_fnv` is zero.  The
/// real backends verify each replica's final contents against the engines'
/// master copies before returning, so a returned report certifies
/// `replicas_verified` byte-identical replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportReport {
    /// Backend label (`"sim"`, `"channel"`, `"socket"`).
    pub backend: &'static str,
    /// [`fnv64_regions`] fingerprint of the engines' final master copies —
    /// comparable across backends and across processes.
    pub master_fnv: u64,
    /// Replicas whose final contents were verified fingerprint-equal to the
    /// master copies.
    pub replicas_verified: usize,
    /// Publish frames sent (each counted once, however many receivers).
    pub frames_sent: u64,
    /// Bytes delivered, summed over receivers (for the channel backend: the
    /// bytes that *would* be on a wire in v2 batch form; the `Arc` handoff
    /// itself copies nothing).  Always `wire_bytes_payload + wire_bytes_meta`.
    pub wire_bytes: u64,
    /// The changed-bytes part of `wire_bytes`: run payloads, summed over
    /// receivers.
    pub wire_bytes_payload: u64,
    /// The ordering-metadata part of `wire_bytes`: frame headers, delta
    /// clock records, run tables and batch framing, summed over receivers.
    pub wire_bytes_meta: u64,
    /// Sends saved by epoch coalescing: frames that rode in an already-open
    /// batch instead of paying their own send (`frames_sent` minus batches).
    pub frames_coalesced: u64,
    /// Frames applied across all replicas.
    pub frames_applied: u64,
    /// Engine control broadcasts sent (adaptive LRC's migration commits;
    /// zero for every static policy).  Each replica's received count and
    /// XOR-FNV fingerprint are verified against the senders' totals.
    pub ctrl_frames: u64,
    /// Checkpoint images shipped to the replicas (zero unless a
    /// [`FaultPlan`](crate::FaultPlan) is armed); verified like control
    /// broadcasts.
    pub ckpt_frames: u64,
    /// Rollback notices shipped to the replicas (zero unless an injected
    /// crash actually fired); verified like control broadcasts.
    pub rollback_frames: u64,
}

/// One replica of the shared regions, rebuilt purely from publish frames.
///
/// Frames of a region are applied strictly in `seq` order; out-of-order
/// arrivals wait in a per-region reorder buffer.  The per-region sequence
/// numbers are dense (the engines draw them from the same counter the
/// publish bumps), so a replica that has seen every frame always drains.
///
/// Both real backends feed a replica through the same two entry points:
/// [`Replica::offer`] for each publish frame and [`Replica::take_oob`] for
/// each out-of-band message.  Both refuse a message that cannot be valid with
/// an `InvalidData` error: a socket peer returns it, while on the channel
/// backend, whose messages never leave the process, it is an engine bug and
/// panics.
#[derive(Debug)]
struct Replica {
    regions: Vec<Vec<u8>>,
    /// Per region: the last applied sequence number (0 = none yet).
    applied_seq: Vec<u64>,
    /// Per region: frames that arrived ahead of their turn, keyed by seq.
    pending: Vec<BTreeMap<u64, Arc<WireFrame>>>,
    frames_applied: u64,
    bytes_received: u64,
    /// Out-of-band messages received.
    oob: OobTally,
    /// Recycles applied frames' payload buffers back to the decode path, so
    /// a socket peer's read loop stops allocating per frame in steady state.
    pool: BufferPool,
}

impl Replica {
    fn new(init: &[Vec<u8>]) -> Self {
        Replica {
            regions: init.to_vec(),
            applied_seq: vec![0; init.len()],
            pending: init.iter().map(|_| BTreeMap::new()).collect(),
            frames_applied: 0,
            bytes_received: 0,
            oob: OobTally::default(),
            pool: BufferPool::new(),
        }
    }

    /// Tallies one out-of-band message; the body is not applied.  A
    /// checkpoint image must at least decode — a replica is the
    /// crash-recovery escrow, so a malformed image is refused.
    fn take_oob(&mut self, kind: WireMsgKind, body: &[u8]) -> io::Result<()> {
        if kind == WireMsgKind::Ckpt && dsm_mem::CkptImage::decode(body).is_none() {
            return Err(bad("malformed checkpoint image reached a replica"));
        }
        self.oob.add(kind, body);
        Ok(())
    }

    /// Takes every message waiting in a channel inbox, without blocking.
    fn drain_inbox(&mut self, inbox: &mpsc::Receiver<ChannelMsg>) {
        while let Ok(msg) = inbox.try_recv() {
            match msg {
                ChannelMsg::Batch(frames) => {
                    for f in frames {
                        self.offer(f).expect(IN_PROCESS);
                    }
                }
                ChannelMsg::Oob(kind, body) => self.take_oob(kind, &body).expect(IN_PROCESS),
            }
        }
    }

    /// Accepts a frame, applying it — and any unblocked successors — as soon
    /// as its region's sequence reaches it.  Uniquely-owned applied frames
    /// donate their payload buffer back to the pool.  A frame for an unknown
    /// region, or with a run outside its region, is refused.
    fn offer(&mut self, frame: Arc<WireFrame>) -> io::Result<()> {
        let r = frame.region as usize;
        if r >= self.regions.len() {
            return Err(bad(format!("frame for unknown region {r}")));
        }
        self.pending[r].insert(frame.seq, frame);
        while let Some(f) = self.pending[r].remove(&(self.applied_seq[r] + 1)) {
            if !f.apply(&mut self.regions[r]) {
                return Err(bad(format!("frame run outside region {r}")));
            }
            self.applied_seq[r] += 1;
            self.frames_applied += 1;
            if let Ok(owned) = Arc::try_unwrap(f) {
                self.pool.put(owned.payload);
            }
        }
        Ok(())
    }

    /// Counts framed bytes (message headers included) received on node
    /// streams; the socket peer loop calls it once per message.
    fn note_received(&mut self, bytes: u64) {
        self.bytes_received += bytes;
    }

    /// True once no frame is waiting on a missing predecessor.
    fn drained(&self) -> bool {
        self.pending.iter().all(BTreeMap::is_empty)
    }

    fn fnv(&self) -> u64 {
        fnv64_regions(self.regions.iter().map(|r| r.as_slice()))
    }

    fn report(&self) -> WireReport {
        WireReport {
            contents_fnv: self.fnv(),
            frames_applied: self.frames_applied,
            bytes_received: self.bytes_received,
            oob: self.oob,
        }
    }
}

/// Why a channel replica may not refuse a message: its messages come from
/// this process's engines, never from a wire.
const IN_PROCESS: &str = "a channel replica refused an in-process message";

/// An `InvalidData` error: bytes from a peer that no valid stream contains.
fn bad(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One send into a channel-backend inbox: the in-process form of a
/// [`WireMsgKind::Batch`] message or of one out-of-band message.
#[derive(Debug)]
enum ChannelMsg {
    /// An epoch's frames, shared with every other receiver.
    Batch(Vec<Arc<WireFrame>>),
    /// One message of a kind in [`WireMsgKind::OOB`], body shared likewise.
    Oob(WireMsgKind, Arc<[u8]>),
}

/// Flush the socket batch buffer early if it outgrows this (pathological
/// epochs only; normal epochs are a few KiB).
const SOCKET_BATCH_LIMIT: usize = 4 << 20;

/// A worker thread's handle onto the transport: where its publish frames go.
///
/// Owned by the worker's `NodeLocal` for the duration of the run (`None`
/// under the simulated backend), handed back to the transport's
/// [`Transport::finish`] afterwards.  Publishes accumulate in a per-peer
/// send buffer; the engines call [`WireEndpoint::flush`] at each epoch
/// boundary (end of a publish event, after region locks are released).
#[derive(Debug)]
pub(crate) struct WireEndpoint {
    /// Frames this endpoint published.
    pub frames_sent: u64,
    /// Payload bytes delivered (changed-byte runs), summed over receivers.
    pub wire_bytes_payload: u64,
    /// Ordering-metadata bytes delivered (headers, delta clocks, run tables,
    /// batch framing), summed over receivers.
    pub wire_bytes_meta: u64,
    /// Sends saved by coalescing: frames beyond the first in each batch.
    pub frames_coalesced: u64,
    /// Out-of-band messages this endpoint sent (see
    /// [`WireEndpoint::send_oob`]).
    pub oob_sent: OobTally,
    /// Scratch run table the engines fill while collecting a publish
    /// (borrowed out with `std::mem::take`, handed back after the frame is
    /// built, so steady-state publishes reuse its capacity).
    pub scratch_runs: Vec<(u32, u32)>,
    /// Delta codec for this endpoint's outgoing clock stream.  Every peer
    /// receives the identical stream, so one sender baseline serves all.
    enc: CompactClock,
    /// False until the first publish: the first frame of a stream carries
    /// its clock in full mode to seed the receivers' baselines.
    started: bool,
    inner: EndpointInner,
}

#[derive(Debug)]
enum EndpointInner {
    /// Channel backend: senders to every other node's inbox, this node's own
    /// inbox, and this node's own replica.
    Channel {
        peers: Vec<mpsc::Sender<ChannelMsg>>,
        inbox: mpsc::Receiver<ChannelMsg>,
        replica: Replica,
        /// Frames published since the last flush.
        pending: Vec<Arc<WireFrame>>,
        /// Scratch for sizing the would-be-on-wire delta clock record.
        clock_scratch: Vec<u8>,
    },
    /// Socket backend: one raw TCP stream per replica peer (`TCP_NODELAY`
    /// set; batching makes the writes large, so Nagle only adds latency).
    Socket {
        conns: Vec<TcpStream>,
        /// The open batch message: header placeholder + encoded v2 frames.
        batch: Vec<u8>,
        batch_frames: u32,
        batch_payload: u64,
        /// Scratch one frame is encoded into before the length-prefixed
        /// append to `batch`.
        frame_buf: Vec<u8>,
    },
}

impl WireEndpoint {
    fn new(inner: EndpointInner) -> Box<Self> {
        Box::new(WireEndpoint {
            frames_sent: 0,
            wire_bytes_payload: 0,
            wire_bytes_meta: 0,
            frames_coalesced: 0,
            oob_sent: OobTally::default(),
            scratch_runs: Vec::new(),
            enc: CompactClock::new(),
            started: false,
            inner,
        })
    }

    /// Total bytes this endpoint delivered, summed over receivers.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes_payload + self.wire_bytes_meta
    }

    /// Buffers one publish for replication: region-absolute changed-byte
    /// `runs` of `data`, totally ordered within the region by `seq` (dense,
    /// 1-based).  `clock` is the publisher's vector-clock entries (empty
    /// under EC).  Nothing moves until [`WireEndpoint::flush`].
    pub fn publish(
        &mut self,
        region: u32,
        seq: u64,
        clock: &[u32],
        runs: &[(u32, u32)],
        data: &[u8],
    ) {
        self.frames_sent += 1;
        let full = !self.started;
        self.started = true;
        let mut overflow = false;
        match &mut self.inner {
            EndpointInner::Channel {
                peers,
                pending,
                clock_scratch,
                ..
            } => {
                // Account the exact v2 wire form (the Arc handoff itself
                // moves no bytes): delta clock record + frame meta + payload,
                // per receiver, plus this frame's batch length prefix.
                clock_scratch.clear();
                let clock_rec = self.enc.encode_next(clock, full, clock_scratch);
                let payload_len: usize = runs.iter().map(|&(_, len)| len as usize).sum();
                let meta = frame_v2_meta_len(region, seq, clock_rec, runs);
                let receivers = peers.len() as u64 + 1;
                let framed_meta = (varint_len((meta + payload_len) as u64) + meta) as u64;
                self.wire_bytes_meta += framed_meta * receivers;
                self.wire_bytes_payload += payload_len as u64 * receivers;
                let mut payload = Vec::with_capacity(payload_len);
                for &(off, len) in runs {
                    payload.extend_from_slice(&data[off as usize..(off + len) as usize]);
                }
                pending.push(Arc::new(WireFrame {
                    region,
                    seq,
                    runs: runs.to_vec(),
                    payload,
                }));
            }
            EndpointInner::Socket {
                batch,
                batch_frames,
                batch_payload,
                frame_buf,
                ..
            } => {
                frame_buf.clear();
                let (_, payload) = encode_frame_v2(
                    &FrameV2 {
                        region,
                        seq,
                        clock,
                        full,
                        runs,
                        data,
                    },
                    &mut self.enc,
                    frame_buf,
                );
                if batch.is_empty() {
                    begin_batch(batch);
                }
                put_varint(batch, frame_buf.len() as u64);
                batch.extend_from_slice(frame_buf);
                *batch_frames += 1;
                *batch_payload += payload as u64;
                overflow = batch.len() >= SOCKET_BATCH_LIMIT;
            }
        }
        if overflow {
            self.flush();
        }
    }

    /// Sends one out-of-band message — an engine control broadcast, an
    /// encoded [`dsm_mem::CkptImage`] or a rollback notice — to every
    /// replica, immediately: it bypasses the epoch batch, so it never waits
    /// behind it or perturbs the coalescing accounting, and costs one
    /// message per receiver (u32 length prefix + kind byte + body).
    /// Replicas tally it instead of applying it; [`Transport::finish`]
    /// checks every replica's tally against the senders'.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in [`WireMsgKind::OOB`].
    pub fn send_oob(&mut self, kind: WireMsgKind, payload: &[u8]) {
        self.oob_sent.add(kind, payload);
        match &mut self.inner {
            EndpointInner::Channel { peers, replica, .. } => {
                self.wire_bytes_meta += (payload.len() as u64 + 5) * (peers.len() as u64 + 1);
                let body: Arc<[u8]> = payload.into();
                for peer in peers.iter() {
                    peer.send(ChannelMsg::Oob(kind, Arc::clone(&body)))
                        .expect("peer inbox closed mid-run");
                }
                replica.take_oob(kind, &body).expect(IN_PROCESS);
            }
            EndpointInner::Socket { conns, .. } => {
                // Written directly to each stream; the open data batch (if
                // any) is still unsent, so the message simply precedes it on
                // the wire — replicas treat out-of-band frames as order-free.
                for conn in conns.iter_mut() {
                    write_msg(conn, kind, payload).expect("replica peer connection lost mid-run");
                }
                self.wire_bytes_meta += (payload.len() as u64 + 5) * conns.len() as u64;
            }
        }
    }

    /// Delivers everything buffered since the last flush: one batch message
    /// per peer (one channel send, or one `write_all` per socket).  The
    /// engines call this at each epoch boundary; a flush with nothing
    /// pending only drains the inbox (channel) or is a no-op (socket).
    pub fn flush(&mut self) {
        match &mut self.inner {
            EndpointInner::Channel {
                peers,
                inbox,
                replica,
                pending,
                ..
            } => {
                if !pending.is_empty() {
                    self.frames_coalesced += pending.len() as u64 - 1;
                    self.wire_bytes_meta +=
                        wire::BATCH_HEADER_LEN as u64 * (peers.len() as u64 + 1);
                    for peer in peers.iter() {
                        peer.send(ChannelMsg::Batch(pending.clone()))
                            .expect("peer inbox closed mid-run");
                    }
                    for f in pending.drain(..) {
                        replica.offer(f).expect(IN_PROCESS);
                    }
                }
                // Absorb whatever peers have sent so far; the rest is
                // drained after the run, when every send is join-ordered
                // before the drain.
                replica.drain_inbox(inbox);
            }
            EndpointInner::Socket {
                conns,
                batch,
                batch_frames,
                batch_payload,
                ..
            } => {
                if *batch_frames == 0 {
                    return;
                }
                finish_batch(batch, *batch_frames);
                for conn in conns.iter_mut() {
                    conn.write_all(batch)
                        .expect("replica peer connection lost mid-run");
                }
                let nconns = conns.len() as u64;
                self.wire_bytes_meta += (batch.len() as u64 - *batch_payload) * nconns;
                self.wire_bytes_payload += *batch_payload * nconns;
                self.frames_coalesced += *batch_frames as u64 - 1;
                batch.clear();
                *batch_frames = 0;
                *batch_payload = 0;
            }
        }
    }
}

/// The backend contract: hand one endpoint to each worker before the run,
/// collect them and verify every replica afterwards.
pub(crate) trait Transport: Send {
    /// Backend label for the report.
    fn label(&self) -> &'static str;

    /// The endpoint worker `node` publishes through, or `None` if this
    /// backend replicates nothing (simulated).
    fn take_endpoint(&mut self, node: NodeId) -> Option<Box<WireEndpoint>>;

    /// Completes the run: flushes every endpoint, drains and verifies every
    /// replica against the engines' final `master` copies and summarizes the
    /// traffic.
    ///
    /// Panics if any replica's contents diverge from the master — that is a
    /// transport bug, never a legal outcome.
    fn finish(&mut self, endpoints: Vec<WireEndpoint>, master: &[Vec<u8>]) -> TransportReport;
}

/// Builds the transport for a run.  The single place [`TransportKind`] is
/// dispatched on.
pub(crate) fn build_transport(cfg: &DsmConfig, init: &[Vec<u8>]) -> Box<dyn Transport> {
    match &cfg.transport {
        TransportKind::Simulated => Box::new(SimulatedTransport),
        TransportKind::Channel => Box::new(ChannelTransport::new(cfg.nprocs, init)),
        TransportKind::SocketLocal(npeers) => {
            Box::new(SocketTransport::new_local(cfg.nprocs, *npeers, init))
        }
        TransportKind::SocketRemote(addrs) => {
            Box::new(SocketTransport::new_remote(cfg.nprocs, addrs, init))
        }
    }
}

fn empty_report(backend: &'static str, master: &[Vec<u8>]) -> TransportReport {
    TransportReport {
        backend,
        master_fnv: fnv64_regions(master.iter().map(|r| r.as_slice())),
        replicas_verified: 0,
        frames_sent: 0,
        wire_bytes: 0,
        wire_bytes_payload: 0,
        wire_bytes_meta: 0,
        frames_coalesced: 0,
        frames_applied: 0,
        ctrl_frames: 0,
        ckpt_frames: 0,
        rollback_frames: 0,
    }
}

/// Folds one finished endpoint's counters into the report.
fn absorb_endpoint(report: &mut TransportReport, ep: &WireEndpoint) {
    report.frames_sent += ep.frames_sent;
    report.wire_bytes_payload += ep.wire_bytes_payload;
    report.wire_bytes_meta += ep.wire_bytes_meta;
    report.wire_bytes += ep.wire_bytes();
    report.frames_coalesced += ep.frames_coalesced;
    report.ctrl_frames += ep.oob_sent.count(WireMsgKind::Ctrl);
    report.ckpt_frames += ep.oob_sent.count(WireMsgKind::Ckpt);
    report.rollback_frames += ep.oob_sent.count(WireMsgKind::Rollback);
}

/// The out-of-band tally every replica must match: the finished endpoints'
/// tallies merged.  Which endpoint sent each message is timing-dependent,
/// but the totals are not.
fn expected_oob(endpoints: &[WireEndpoint]) -> OobTally {
    endpoints.iter().fold(OobTally::default(), |mut acc, ep| {
        acc.merge(&ep.oob_sent);
        acc
    })
}

/// Verifies one replica's end-of-run report and folds it into the report.
///
/// Panics if the replica's contents diverge from the master copies or it
/// missed an out-of-band message.
fn absorb_replica(report: &mut TransportReport, replica: &WireReport, oob: &OobTally) {
    let backend = report.backend;
    assert_eq!(
        replica.contents_fnv, report.master_fnv,
        "{backend} replica diverged from the engines' master copies"
    );
    assert_eq!(
        replica.oob, *oob,
        "{backend} replica missed an out-of-band message"
    );
    report.frames_applied += replica.frames_applied;
    report.replicas_verified += 1;
}

/// The default backend: no endpoints, no replication, no bytes.  Publishes
/// stay exactly the branch-free accounting they were before the transport
/// layer existed.
#[derive(Debug)]
struct SimulatedTransport;

impl Transport for SimulatedTransport {
    fn label(&self) -> &'static str {
        "sim"
    }

    fn take_endpoint(&mut self, _node: NodeId) -> Option<Box<WireEndpoint>> {
        None
    }

    fn finish(&mut self, _endpoints: Vec<WireEndpoint>, master: &[Vec<u8>]) -> TransportReport {
        empty_report(self.label(), master)
    }
}

/// In-process channel backend: every node owns a full replica and an inbox;
/// a flush `Arc`-clones the epoch's frames into every other node's inbox in
/// one send.
#[derive(Debug)]
struct ChannelTransport {
    endpoints: Vec<Option<Box<WireEndpoint>>>,
}

impl ChannelTransport {
    fn new(nprocs: usize, init: &[Vec<u8>]) -> Self {
        let channels: Vec<(mpsc::Sender<ChannelMsg>, mpsc::Receiver<ChannelMsg>)> =
            (0..nprocs).map(|_| mpsc::channel()).collect();
        let senders: Vec<mpsc::Sender<ChannelMsg>> =
            channels.iter().map(|(tx, _)| tx.clone()).collect();
        let endpoints = channels
            .into_iter()
            .enumerate()
            .map(|(p, (_, inbox))| {
                let peers = senders
                    .iter()
                    .enumerate()
                    .filter(|&(q, _)| q != p)
                    .map(|(_, tx)| tx.clone())
                    .collect();
                Some(WireEndpoint::new(EndpointInner::Channel {
                    peers,
                    inbox,
                    replica: Replica::new(init),
                    pending: Vec::new(),
                    clock_scratch: Vec::new(),
                }))
            })
            .collect();
        ChannelTransport { endpoints }
    }
}

impl Transport for ChannelTransport {
    fn label(&self) -> &'static str {
        "channel"
    }

    fn take_endpoint(&mut self, node: NodeId) -> Option<Box<WireEndpoint>> {
        self.endpoints[node.index()].take()
    }

    fn finish(&mut self, mut endpoints: Vec<WireEndpoint>, master: &[Vec<u8>]) -> TransportReport {
        // Flush every endpoint before draining any replica: a replica's
        // inbox is complete only once all of its peers have flushed.
        for ep in endpoints.iter_mut() {
            ep.flush();
        }
        let oob = expected_oob(&endpoints);
        let mut report = empty_report(self.label(), master);
        for ep in endpoints {
            absorb_endpoint(&mut report, &ep);
            let EndpointInner::Channel {
                inbox, mut replica, ..
            } = ep.inner
            else {
                unreachable!("channel transport only hands out channel endpoints");
            };
            // Every worker thread has been joined, so every send
            // happens-before this drain: the inbox holds the complete
            // remainder of the run's messages.
            replica.drain_inbox(&inbox);
            assert!(replica.drained(), "replica is missing publish frames");
            absorb_replica(&mut report, &replica.report(), &oob);
        }
        report
    }
}

/// Socket backend: replica peers behind loopback TCP, either served by
/// in-process listener threads or by already-running remote processes.
#[derive(Debug)]
struct SocketTransport {
    endpoints: Vec<Option<Box<WireEndpoint>>>,
    /// Control connection to each peer; the end-of-run [`WireReport`] comes
    /// back on it.
    controls: Vec<TcpStream>,
    /// In-process peer threads (`SocketLocal` only), joined at finish.
    servers: Vec<std::thread::JoinHandle<io::Result<()>>>,
}

impl SocketTransport {
    /// Spawns `npeers` in-process replica peers and connects to them.
    fn new_local(nprocs: usize, npeers: usize, init: &[Vec<u8>]) -> Self {
        assert!(npeers >= 1, "socket transport needs at least one peer");
        let mut addrs = Vec::with_capacity(npeers);
        let mut servers = Vec::with_capacity(npeers);
        for _ in 0..npeers {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            addrs.push(listener.local_addr().expect("listener address").to_string());
            servers.push(std::thread::spawn(move || serve_transport_peer(listener)));
        }
        let mut transport = Self::connect(nprocs, &addrs, init);
        transport.servers = servers;
        transport
    }

    /// Connects to replica peers already running at `addrs`.
    fn new_remote(nprocs: usize, addrs: &[String], init: &[Vec<u8>]) -> Self {
        assert!(
            !addrs.is_empty(),
            "socket transport needs at least one peer"
        );
        Self::connect(nprocs, addrs, init)
    }

    fn connect(nprocs: usize, addrs: &[String], init: &[Vec<u8>]) -> Self {
        // Control connection first: it carries the bootstrap Init (cluster
        // shape, initial region images) the peer needs before it can accept
        // node streams.
        let mut init_body = Vec::new();
        WireInit {
            nprocs: nprocs as u32,
            regions: init.to_vec(),
        }
        .encode_into(&mut init_body);
        let mut controls = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut conn = TcpStream::connect(addr).expect("connect to replica peer");
            conn.set_nodelay(true).expect("set TCP_NODELAY");
            conn.write_all(b"C").expect("send control role");
            write_msg(&mut conn, WireMsgKind::Init, &init_body).expect("send init");
            controls.push(conn);
        }
        let endpoints = (0..nprocs)
            .map(|_| {
                let conns = addrs
                    .iter()
                    .map(|addr| {
                        let mut conn = TcpStream::connect(addr).expect("connect to replica peer");
                        conn.set_nodelay(true).expect("set TCP_NODELAY");
                        conn.write_all(b"N").expect("send node role");
                        conn
                    })
                    .collect();
                Some(WireEndpoint::new(EndpointInner::Socket {
                    conns,
                    batch: Vec::new(),
                    batch_frames: 0,
                    batch_payload: 0,
                    frame_buf: Vec::new(),
                }))
            })
            .collect();
        SocketTransport {
            endpoints,
            controls,
            servers: Vec::new(),
        }
    }
}

impl Transport for SocketTransport {
    fn label(&self) -> &'static str {
        "socket"
    }

    fn take_endpoint(&mut self, node: NodeId) -> Option<Box<WireEndpoint>> {
        self.endpoints[node.index()].take()
    }

    fn finish(&mut self, mut endpoints: Vec<WireEndpoint>, master: &[Vec<u8>]) -> TransportReport {
        let mut report = empty_report(self.label(), master);
        // Flush any leftover batch, then close every node stream cleanly:
        // Fin, drop.
        for ep in endpoints.iter_mut() {
            ep.flush();
        }
        let oob = expected_oob(&endpoints);
        for ep in endpoints {
            absorb_endpoint(&mut report, &ep);
            let EndpointInner::Socket { mut conns, .. } = ep.inner else {
                unreachable!("socket transport only hands out socket endpoints");
            };
            for conn in conns.iter_mut() {
                write_msg(conn, WireMsgKind::Fin, &[]).expect("send fin");
            }
        }
        // Every peer now sees nprocs Fins and reports back.  Every peer
        // receives every message, so each one's byte count times the peer
        // count is exactly what the endpoints accounted.
        let npeers = self.controls.len() as u64;
        let mut body = Vec::new();
        for mut control in self.controls.drain(..) {
            let kind = read_msg(&mut control, &mut body).expect("read peer report");
            assert_eq!(kind, Some(WireMsgKind::Report), "peer sent a non-report");
            let peer = WireReport::decode(&body).expect("malformed peer report");
            absorb_replica(&mut report, &peer, &oob);
            assert_eq!(
                peer.bytes_received.checked_mul(npeers),
                Some(report.wire_bytes),
                "socket replica received other bytes than the endpoints sent"
            );
        }
        for server in self.servers.drain(..) {
            server
                .join()
                .expect("replica peer thread panicked")
                .expect("replica peer failed");
        }
        report
    }
}

/// Serves one replica peer on `listener` until the run completes, then
/// returns.  This is the *entire* peer: the in-process `SocketLocal` threads
/// and the separate `SocketRemote` processes both run exactly this function.
///
/// Protocol: every inbound connection announces its role with one byte —
/// `C` for the single control connection, which immediately carries an
/// `Init` message (number of node streams to expect, initial region
/// images), or `N` for a node stream carrying `Batch` and out-of-band
/// messages and a final `Fin`.  One reader thread serves each node stream
/// end to end: it owns the stream's receive-side [`CompactClock`] baseline
/// (the delta clock records of a stream replay against it in order) and a
/// reusable message buffer, reads through a [`io::BufReader`], and hands
/// decoded frames and out-of-band messages straight to the shared replica
/// under a mutex — no cross-thread handoff, no per-message allocation
/// (payload buffers come from the replica's [`BufferPool`], which recycles
/// applied frames).  Once every node stream has finished, the peer writes
/// its [`WireReport`] (contents fingerprint, frames applied, bytes
/// received, out-of-band tally) back on the control connection.
///
/// # Errors
///
/// Returns an error if a connection misbehaves (unknown role byte, corrupt
/// message, unexpected disconnect) or a frame arrives for an unknown
/// region's sequence that never completes.  Bytes that no valid stream
/// contains — including a frame for an unknown region, a run outside its
/// region and a checkpoint image that does not decode — are an
/// [`io::ErrorKind::InvalidData`] error, never a panic.
pub fn serve_transport_peer(listener: TcpListener) -> io::Result<()> {
    // Accept the control connection (with its Init) and the node streams, in
    // whatever order they arrive.
    let mut control: Option<TcpStream> = None;
    let mut init: Option<WireInit> = None;
    let mut nodes: Vec<TcpStream> = Vec::new();
    let mut body = Vec::new();
    loop {
        if let Some(i) = &init {
            if nodes.len() as u32 >= i.nprocs {
                break;
            }
        }
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        let mut role = [0u8; 1];
        conn.read_exact(&mut role)?;
        match role[0] {
            b'C' => {
                if read_msg(&mut conn, &mut body)? != Some(WireMsgKind::Init) {
                    return Err(bad("expected an init message on the control connection"));
                }
                init = Some(WireInit::decode(&body).ok_or_else(|| bad("malformed init"))?);
                control = Some(conn);
            }
            b'N' => nodes.push(conn),
            _ => return Err(bad("unknown connection role byte")),
        }
    }
    let init = init.expect("loop exits only with init");
    let mut control = control.expect("init arrived on the control connection");

    // One reader thread per node stream, each decoding and applying its own
    // stream directly (the reorder buffer restores per-region publish
    // order, so streams can interleave freely under the replica mutex).
    let replica = std::sync::Mutex::new(Replica::new(&init.regions));
    std::thread::scope(|scope| -> io::Result<()> {
        let handles: Vec<_> = nodes
            .into_iter()
            .map(|conn| {
                let replica = &replica;
                scope.spawn(move || -> io::Result<()> {
                    // Receive side of this stream's delta clock codec, and a
                    // message buffer reused across the whole stream.
                    let mut codec = CompactClock::new();
                    let mut body = Vec::new();
                    let mut conn = io::BufReader::new(conn);
                    loop {
                        let kind = match read_msg(&mut conn, &mut body)? {
                            Some(WireMsgKind::Fin) | None => return Ok(()),
                            Some(kind) => kind,
                        };
                        let mut r = sync_lock(replica);
                        r.note_received(body.len() as u64 + 5);
                        match kind {
                            WireMsgKind::Batch => {
                                let mut frames = BatchReader::new(&body)
                                    .ok_or_else(|| bad("batch lacks a frame count"))?;
                                while frames.remaining() > 0 {
                                    let frame = frames
                                        .next(&mut codec, &mut r.pool)
                                        .ok_or_else(|| bad("malformed frame in batch"))?;
                                    r.offer(Arc::new(frame))?;
                                }
                                if !frames.finished() {
                                    return Err(bad("trailing bytes after the last batch frame"));
                                }
                            }
                            kind if WireMsgKind::OOB.contains(&kind) => r.take_oob(kind, &body)?,
                            _ => return Err(bad("unexpected message on a node stream")),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("node stream reader panicked")?;
        }
        Ok(())
    })?;

    let replica = replica.into_inner().expect("readers joined cleanly");
    if !replica.drained() {
        return Err(bad("stream ended with frames waiting on missing sequences"));
    }
    body.clear();
    replica.report().encode_into(&mut body);
    write_msg(&mut control, WireMsgKind::Report, &body)?;
    Ok(())
}

/// Locks a mutex, propagating a poisoned-lock panic (a reader thread died
/// mid-apply; the replica is unusable anyway).
fn sync_lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("replica mutex poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(region: u32, seq: u64, off: u32, byte: u8) -> Arc<WireFrame> {
        Arc::new(WireFrame {
            region,
            seq,
            runs: vec![(off, 1)],
            payload: vec![byte],
        })
    }

    #[test]
    fn replica_reorders_frames_per_region() {
        let init = vec![vec![0u8; 8], vec![0u8; 4]];
        let mut r = Replica::new(&init);
        // Region 0's seq 2 must wait for seq 1; region 1 is independent.
        r.offer(frame(0, 2, 1, 22)).unwrap();
        assert_eq!(r.frames_applied, 0);
        assert!(!r.drained());
        r.offer(frame(1, 1, 0, 9)).unwrap();
        assert_eq!(r.frames_applied, 1);
        r.offer(frame(0, 1, 0, 11)).unwrap();
        assert_eq!(r.frames_applied, 3);
        assert!(r.drained());
        assert_eq!(r.regions[0][..2], [11, 22]);
        assert_eq!(r.regions[1][0], 9);
        let expect = {
            let mut m = init.clone();
            m[0][0] = 11;
            m[0][1] = 22;
            m[1][0] = 9;
            fnv64_regions(m.iter().map(|x| x.as_slice()))
        };
        assert_eq!(r.fnv(), expect);
    }

    #[test]
    fn replica_recycles_applied_payload_buffers() {
        let mut r = Replica::new(&[vec![0u8; 8]]);
        // Uniquely-owned frames donate their payloads back to the pool.
        r.offer(frame(0, 1, 0, 1)).unwrap();
        r.offer(frame(0, 2, 1, 2)).unwrap();
        assert_eq!(r.pool.idle(), 2);
    }

    #[test]
    fn replica_rejects_out_of_range_runs() {
        let mut r = Replica::new(&[vec![0u8; 4]]);
        let err = r.offer(frame(0, 1, 100, 5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("outside region"), "{err}");
    }

    /// Serves a one-node replica peer over loopback, sends it `msg` (a whole
    /// framed message) and `Fin` on the node stream, and returns what the
    /// peer returned.
    fn serve_one_message(msg: &[u8]) -> io::Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let server = std::thread::spawn(move || serve_transport_peer(listener));
        let mut init = Vec::new();
        WireInit {
            nprocs: 1,
            regions: vec![vec![0u8; 8]],
        }
        .encode_into(&mut init);
        let mut control = TcpStream::connect(addr).expect("connect control");
        control.write_all(b"C").expect("send control role");
        write_msg(&mut control, WireMsgKind::Init, &init).expect("send init");
        let mut node = TcpStream::connect(addr).expect("connect node stream");
        node.write_all(b"N").expect("send node role");
        node.write_all(msg).expect("send message");
        // The peer may already have hung up on a corrupt message.
        let _ = write_msg(&mut node, WireMsgKind::Fin, &[]);
        server.join().expect("the peer must return, not panic")
    }

    /// A one-frame batch message: `runs` of `data` for `region`, seq 1.
    fn one_frame_batch(region: u32, runs: &[(u32, u32)], data: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        let f = FrameV2 {
            region,
            seq: 1,
            clock: &[],
            full: true,
            runs,
            data,
        };
        encode_frame_v2(&f, &mut CompactClock::new(), &mut frame);
        let mut batch = Vec::new();
        begin_batch(&mut batch);
        put_varint(&mut batch, frame.len() as u64);
        batch.extend_from_slice(&frame);
        finish_batch(&mut batch, 1);
        batch
    }

    #[test]
    fn corrupt_node_streams_end_in_invalid_data() {
        let valid = one_frame_batch(0, &[(0, 1)], &[7; 8]);
        serve_one_message(&valid).expect("a valid frame is applied");
        let mut ckpt = Vec::new();
        write_msg(&mut ckpt, WireMsgKind::Ckpt, b"not an image").unwrap();
        for (what, msg) in [
            ("unknown region", one_frame_batch(5, &[(0, 1)], &[7; 8])),
            (
                "run past the region end",
                one_frame_batch(0, &[(100, 1)], &[7; 101]),
            ),
            ("malformed checkpoint image", ckpt),
        ] {
            let err = serve_one_message(&msg).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn channel_endpoints_replicate_and_verify() {
        let init = vec![vec![0u8; 16]];
        let mut t = ChannelTransport::new(2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0..4].copy_from_slice(&[1, 2, 3, 4]);
        a.publish(0, 1, &[1, 0], &[(0, 4)], &master[0]);
        master[0][8] = 9;
        b.publish(0, 2, &[1, 1], &[(8, 1)], &master[0]);
        assert_eq!(a.frames_sent, 1);
        assert!(a.wire_bytes() > 0, "accounted at publish");
        assert_eq!(a.wire_bytes_payload, 4 * 2, "4 payload bytes × 2 receivers");
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.backend, "channel");
        assert_eq!(report.replicas_verified, 2);
        assert_eq!(report.frames_sent, 2);
        // Both replicas applied both frames.
        assert_eq!(report.frames_applied, 4);
        assert_eq!(
            report.wire_bytes,
            report.wire_bytes_payload + report.wire_bytes_meta
        );
        assert_eq!(
            report.master_fnv,
            fnv64_regions(master.iter().map(|r| r.as_slice()))
        );
    }

    #[test]
    fn channel_flush_coalesces_an_epochs_frames() {
        let init = vec![vec![0u8; 16], vec![0u8; 16]];
        let mut t = ChannelTransport::new(2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0] = 1;
        master[1][0] = 2;
        // Two frames in one epoch ride one batch: one send per peer.
        a.publish(0, 1, &[1, 0], &[(0, 1)], &master[0]);
        a.publish(1, 1, &[1, 0], &[(0, 1)], &master[1]);
        assert_eq!(a.frames_coalesced, 0, "nothing moved before the flush");
        a.flush();
        assert_eq!(a.frames_coalesced, 1);
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.frames_sent, 2);
        assert_eq!(report.frames_coalesced, 1);
        assert_eq!(report.frames_applied, 4);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn channel_divergence_is_caught() {
        let init = vec![vec![0u8; 8]];
        let mut t = ChannelTransport::new(1, &init);
        let a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        // The master claims a write the endpoint never published.
        let mut master = init.clone();
        master[0][0] = 7;
        t.finish(vec![*a], &master);
    }

    #[test]
    fn socket_local_round_trip_over_loopback() {
        let init = vec![vec![0u8; 32], vec![5u8; 8]];
        let mut t = SocketTransport::new_local(2, 2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][4..8].copy_from_slice(&[9, 9, 9, 9]);
        a.publish(0, 1, &[], &[(4, 4)], &master[0]);
        master[1][0] = 0;
        b.publish(1, 1, &[], &[(0, 1)], &master[1]);
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.backend, "socket");
        assert_eq!(report.replicas_verified, 2);
        assert_eq!(report.frames_sent, 2);
        assert_eq!(report.frames_applied, 4);
        assert!(report.wire_bytes > 0);
        assert_eq!(
            report.wire_bytes_payload,
            5 * 2,
            "5 payload bytes × 2 peers"
        );
        assert_eq!(
            report.wire_bytes,
            report.wire_bytes_payload + report.wire_bytes_meta
        );
    }

    #[test]
    fn socket_batches_with_vector_clocks_round_trip() {
        let init = vec![vec![0u8; 64]];
        let mut t = SocketTransport::new_local(1, 1, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut master = init.clone();
        // Three epochs of two frames each, with advancing clocks: exercises
        // the delta codec (full first record, deltas after) and coalescing.
        for epoch in 1..=3u64 {
            let clock = [epoch as u32, epoch as u32 * 2];
            master[0][epoch as usize] = epoch as u8;
            a.publish(0, epoch * 2 - 1, &clock, &[(epoch as u32, 1)], &master[0]);
            master[0][32 + epoch as usize] = epoch as u8;
            a.publish(0, epoch * 2, &clock, &[(32 + epoch as u32, 1)], &master[0]);
            a.flush();
        }
        assert_eq!(a.frames_coalesced, 3, "one per two-frame epoch");
        let report = t.finish(vec![*a], &master);
        assert_eq!(report.replicas_verified, 1);
        assert_eq!(report.frames_sent, 6);
        assert_eq!(report.frames_applied, 6);
        assert_eq!(report.frames_coalesced, 3);
    }

    #[test]
    fn channel_ctrl_broadcasts_reach_every_replica() {
        let init = vec![vec![0u8; 16]];
        let mut t = ChannelTransport::new(2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0] = 1;
        a.publish(0, 1, &[1, 0], &[(0, 1)], &master[0]);
        // Control broadcasts from both sides, interleaved with data.
        a.send_oob(WireMsgKind::Ctrl, &[1, 2, 3]);
        b.send_oob(WireMsgKind::Ctrl, &[4, 5]);
        assert_eq!(a.oob_sent.count(WireMsgKind::Ctrl), 1);
        assert_eq!(a.frames_sent, 1, "ctrl frames are not data frames");
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.ctrl_frames, 2);
        assert_eq!(report.replicas_verified, 2);
        assert_eq!(report.frames_applied, 2, "one data frame × two replicas");
    }

    #[test]
    #[should_panic(expected = "out-of-band")]
    fn channel_ctrl_divergence_is_caught() {
        let init = vec![vec![0u8; 8]];
        let mut t = ChannelTransport::new(1, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        // Claim a broadcast that never went out: the replica's tally can't
        // match.
        a.oob_sent.add(WireMsgKind::Ctrl, b"never sent");
        t.finish(vec![*a], &init);
    }

    #[test]
    #[should_panic(expected = "other bytes")]
    fn socket_byte_miscount_is_caught() {
        let init = vec![vec![0u8; 8]];
        let mut t = SocketTransport::new_local(1, 1, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut master = init.clone();
        master[0][0] = 3;
        a.publish(0, 1, &[], &[(0, 1)], &master[0]);
        // Account one byte that never went out: the peer's count can't
        // match.
        a.wire_bytes_meta += 1;
        t.finish(vec![*a], &master);
    }

    #[test]
    fn socket_ctrl_broadcasts_reach_every_peer() {
        let init = vec![vec![0u8; 32]];
        let mut t = SocketTransport::new_local(2, 2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0] = 7;
        // A ctrl broadcast while a's data batch is still open: the peer must
        // account both, in any order.
        a.publish(0, 1, &[], &[(0, 1)], &master[0]);
        a.send_oob(WireMsgKind::Ctrl, &[9, 9, 9, 9]);
        b.send_oob(WireMsgKind::Ctrl, &[8]);
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.ctrl_frames, 2);
        assert_eq!(report.replicas_verified, 2);
        assert_eq!(report.frames_applied, 2);
    }

    #[test]
    fn simulated_transport_hands_out_nothing() {
        let mut t = SimulatedTransport;
        assert!(t.take_endpoint(NodeId::new(0)).is_none());
        let master = vec![vec![3u8; 4]];
        let report = t.finish(Vec::new(), &master);
        assert_eq!(report.backend, "sim");
        assert_eq!(report.replicas_verified, 0);
        assert_eq!(
            report.master_fnv,
            fnv64_regions(master.iter().map(|r| r.as_slice()))
        );
    }

    #[test]
    fn transport_kind_labels() {
        assert_eq!(TransportKind::default(), TransportKind::Simulated);
        assert_eq!(TransportKind::Simulated.label(), "sim");
        assert_eq!(TransportKind::Channel.label(), "channel");
        assert_eq!(TransportKind::SocketLocal(2).label(), "socket");
        assert_eq!(TransportKind::SocketRemote(vec![]).label(), "socket");
    }
}
