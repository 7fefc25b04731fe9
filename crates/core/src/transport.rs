//! Real transports under the protocol engines.
//!
//! The engines publish modifications into shared master copies; the
//! [`Transport`] decides what *else* happens at each publish.  The default
//! [`TransportKind::Simulated`] backend hands out no endpoints — messages
//! remain pure cost accounting, and the hot path stays branch-only.  The real
//! backends replicate every publish as a frame to a set of replica holders
//! and verify, at the end of the run, that every replica's contents are
//! byte-identical (FNV-fingerprint equal) to the engines' master copies.
//!
//! Both real backends move the same bytes.  A [`WireEndpoint`] encodes its
//! epoch's frames in v2 form (see [`dsm_mem::wire::encode_frame_v2`]) into
//! one batch message — vector clocks travel as [`CompactClock`] delta
//! records against the stream's previous clock, so ordering metadata scales
//! with what changed, not with nprocs — and the engines call
//! [`WireEndpoint::flush`] once per publish event, after the region locks are
//! released, to deliver it:
//!
//! * [`TransportKind::Channel`] — every simulated processor is a
//!   message-passing OS thread with a full replica; a flush hands the
//!   batch's body, as one shared `Arc<[u8]>`, to every node's
//!   `std::sync::mpsc` inbox.
//! * [`TransportKind::SocketLocal`] / [`TransportKind::SocketRemote`] — a
//!   flush writes the batch message with one `write_all` to each
//!   length-prefixed TCP connection (`TCP_NODELAY` set) to a replica peer:
//!   in-process listener threads (`SocketLocal`) or separate peer
//!   processes (`SocketRemote`, see [`serve_transport_peer`]).
//!
//! Beside the batches travel the out-of-band kinds of [`WireMsgKind::OOB`] —
//! engine control broadcasts, checkpoint images and rollback notices — sent
//! immediately by [`WireEndpoint::send_oob`].  Every replica takes every
//! message through [`Replica::receive`], and the endpoints account each
//! message's encoded length once per receiver, so `finish` can require every
//! replica to have received exactly the accounted bytes.
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
    begin_batch, encode_frame_v2, finish_batch, fnv64_regions, read_msg, write_msg, BatchReader,
    FrameV2, OobTally, WireFrame, WireInit, WireMsgKind, WireReport, MSG_HEADER_LEN,
};
use dsm_mem::{put_varint, BufferPool, CompactClock};
use dsm_sim::NodeId;

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
    /// One replica per simulated processor; each epoch's encoded batch is
    /// shared, as one `Arc`'d body, over in-process `std::sync::mpsc`
    /// channels between the worker threads.
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
    /// Bytes of encoded messages delivered, summed over receivers; every
    /// replica's received count is verified against it on both real
    /// backends.  Always `wire_bytes_payload + wire_bytes_meta`.
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
/// Both real backends feed a replica through one entry point,
/// [`Replica::receive`], which refuses a message that cannot be valid with
/// an `InvalidData` error: a socket peer returns it, while on the channel
/// backend, whose messages never leave the process, it is an engine bug and
/// panics.
#[derive(Debug)]
struct Replica {
    regions: Vec<Vec<u8>>,
    /// Per region: the last applied sequence number (0 = none yet).
    applied_seq: Vec<u64>,
    /// Per region: frames that arrived ahead of their turn, keyed by seq.
    pending: Vec<BTreeMap<u64, WireFrame>>,
    frames_applied: u64,
    /// Framed bytes (message headers included) received.
    bytes_received: u64,
    /// Out-of-band messages received.
    oob: OobTally,
    /// Recycles applied frames' payload buffers back to the decoder, so a
    /// replica stops allocating per frame in steady state.
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

    /// Takes one message of a node's stream and counts its framed bytes.  A
    /// batch's frames are decoded against the stream's clock `codec` and
    /// offered in turn; an out-of-band body is tallied, not applied — only a
    /// checkpoint image must decode, because a replica is the
    /// crash-recovery escrow.
    fn receive(
        &mut self,
        codec: &mut CompactClock,
        kind: WireMsgKind,
        body: &[u8],
    ) -> io::Result<()> {
        self.bytes_received += (MSG_HEADER_LEN + body.len()) as u64;
        match kind {
            WireMsgKind::Batch => {
                let mut frames =
                    BatchReader::new(body).ok_or_else(|| bad("batch lacks a frame count"))?;
                while frames.remaining() > 0 {
                    let frame = frames
                        .next(codec, &mut self.pool)
                        .ok_or_else(|| bad("malformed frame in batch"))?;
                    self.offer(frame)?;
                }
                if !frames.finished() {
                    return Err(bad("trailing bytes after the last batch frame"));
                }
            }
            WireMsgKind::Ckpt if dsm_mem::CkptImage::decode(body).is_none() => {
                return Err(bad("malformed checkpoint image reached a replica"));
            }
            kind if WireMsgKind::OOB.contains(&kind) => self.oob.add(kind, body),
            _ => return Err(bad("unexpected message on a node stream")),
        }
        Ok(())
    }

    /// Accepts a frame, applying it — and any unblocked successors — as soon
    /// as its region's sequence reaches it; applied payload buffers go back
    /// to the pool.  A frame for an unknown region, or with a run outside its
    /// region, is refused.
    fn offer(&mut self, frame: WireFrame) -> io::Result<()> {
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
            self.pool.put(f.payload);
        }
        Ok(())
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

/// One send into a channel-backend inbox: a wire message's kind and body,
/// tagged with the index of the node that sent it.
type ChannelMsg = (usize, WireMsgKind, Arc<[u8]>);

/// Flush the batch early if it outgrows this (pathological epochs only;
/// normal epochs are a few KiB to a few hundred KiB).
const BATCH_LIMIT: usize = 4 << 20;

/// Where an endpoint's encoded messages go.
#[derive(Debug)]
enum Sink {
    /// Channel backend: a sender into every node's inbox, this node's own
    /// included, and this node's inbox with the replica it feeds and one
    /// clock codec per sending node.
    Channel {
        node: usize,
        inboxes: Vec<mpsc::Sender<ChannelMsg>>,
        inbox: mpsc::Receiver<ChannelMsg>,
        codecs: Vec<CompactClock>,
        replica: Box<Replica>,
    },
    /// Socket backend: one raw TCP stream per replica peer (`TCP_NODELAY`
    /// set; batching makes the writes large, so Nagle only adds latency).
    Socket(Vec<TcpStream>),
}

impl Sink {
    /// Replicas every message reaches.
    fn receivers(&self) -> u64 {
        match self {
            Sink::Channel { inboxes, .. } => inboxes.len() as u64,
            Sink::Socket(conns) => conns.len() as u64,
        }
    }

    /// Delivers one framed message (header included) to every replica: one
    /// `write_all` per socket, or its body as one shared `Arc<[u8]>` into
    /// every inbox.
    fn deliver(&mut self, kind: WireMsgKind, msg: &[u8]) {
        match self {
            Sink::Channel { node, inboxes, .. } => {
                let body: Arc<[u8]> = msg[MSG_HEADER_LEN..].into();
                for inbox in inboxes.iter() {
                    inbox
                        .send((*node, kind, Arc::clone(&body)))
                        .expect("peer inbox closed mid-run");
                }
            }
            Sink::Socket(conns) => {
                for conn in conns.iter_mut() {
                    conn.write_all(msg)
                        .expect("replica peer connection lost mid-run");
                }
            }
        }
    }

    /// Channel backend: takes every message waiting in this node's inbox,
    /// without blocking.  A no-op for sockets, whose peers read on their own.
    fn drain(&mut self) {
        if let Sink::Channel {
            inbox,
            codecs,
            replica,
            ..
        } = self
        {
            while let Ok((sender, kind, body)) = inbox.try_recv() {
                replica
                    .receive(&mut codecs[sender], kind, &body)
                    .expect(IN_PROCESS);
            }
        }
    }
}

/// A worker thread's handle onto the transport: where its publish frames go.
///
/// Owned by the worker's `NodeLocal` for the duration of the run (`None`
/// under the simulated backend), handed back to [`Transport::finish`]
/// afterwards.  Publishes accumulate in one encoded batch message; the
/// engines call [`WireEndpoint::flush`] at each epoch boundary (end of a
/// publish event, after region locks are released) to deliver it.
#[derive(Debug)]
pub(crate) struct WireEndpoint {
    /// Frames this endpoint published.
    pub frames_sent: u64,
    /// Payload bytes delivered (changed-byte runs), summed over receivers.
    pub wire_bytes_payload: u64,
    /// Ordering-metadata bytes delivered (headers, delta clocks, run tables,
    /// batch framing, out-of-band messages), summed over receivers.
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
    /// Delta codec for this endpoint's outgoing clock stream.  Every
    /// receiver gets the identical stream, so one sender baseline serves
    /// all.
    enc: CompactClock,
    /// False until the first publish: the first frame of a stream carries
    /// its clock in full mode to seed the receivers' baselines.
    started: bool,
    /// The open batch message: header placeholder + encoded v2 frames.
    batch: Vec<u8>,
    batch_frames: u32,
    batch_payload: u64,
    /// Scratch one frame is encoded into before its length-prefixed append
    /// to `batch`, or one out-of-band message is framed in.
    scratch: Vec<u8>,
    sink: Sink,
}

impl WireEndpoint {
    fn new(sink: Sink) -> Box<Self> {
        Box::new(WireEndpoint {
            frames_sent: 0,
            wire_bytes_payload: 0,
            wire_bytes_meta: 0,
            frames_coalesced: 0,
            oob_sent: OobTally::default(),
            scratch_runs: Vec::new(),
            enc: CompactClock::new(),
            started: false,
            batch: Vec::new(),
            batch_frames: 0,
            batch_payload: 0,
            scratch: Vec::new(),
            sink,
        })
    }

    /// Encodes one publish into the open batch: region-absolute
    /// changed-byte `runs` of `data`, totally ordered within the region by
    /// `seq` (dense, 1-based).  `clock` is the publisher's vector-clock
    /// entries (empty under EC).  Nothing moves until
    /// [`WireEndpoint::flush`], unless the batch outgrows its limit.
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
        self.scratch.clear();
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
            &mut self.scratch,
        );
        if self.batch.is_empty() {
            begin_batch(&mut self.batch);
        }
        put_varint(&mut self.batch, self.scratch.len() as u64);
        self.batch.extend_from_slice(&self.scratch);
        self.batch_frames += 1;
        self.batch_payload += payload as u64;
        if self.batch.len() >= BATCH_LIMIT {
            self.flush();
        }
    }

    /// Sends one out-of-band message — an engine control broadcast, an
    /// encoded [`dsm_mem::CkptImage`] or a rollback notice — to every
    /// replica, immediately: it bypasses the epoch batch, so it never waits
    /// behind it or perturbs the coalescing accounting.  Replicas tally it
    /// instead of applying it; [`Transport::finish`] checks every replica's
    /// tally against the senders'.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in [`WireMsgKind::OOB`].
    pub fn send_oob(&mut self, kind: WireMsgKind, payload: &[u8]) {
        self.oob_sent.add(kind, payload);
        self.scratch.clear();
        write_msg(&mut self.scratch, kind, payload).expect("out-of-band message too large");
        self.sink.deliver(kind, &self.scratch);
        self.wire_bytes_meta += self.scratch.len() as u64 * self.sink.receivers();
    }

    /// Delivers the open batch, if any, as one message per receiver, then
    /// (channel backend) applies whatever this node's inbox holds.  The
    /// engines call this at each epoch boundary.
    pub fn flush(&mut self) {
        if self.batch_frames > 0 {
            finish_batch(&mut self.batch, self.batch_frames);
            self.sink.deliver(WireMsgKind::Batch, &self.batch);
            let receivers = self.sink.receivers();
            self.wire_bytes_meta += (self.batch.len() as u64 - self.batch_payload) * receivers;
            self.wire_bytes_payload += self.batch_payload * receivers;
            self.frames_coalesced += self.batch_frames as u64 - 1;
            self.batch.clear();
            self.batch_frames = 0;
            self.batch_payload = 0;
        }
        // Absorb what has arrived so far (channel backend); the rest is
        // drained after the run, when every send is join-ordered before the
        // drain.
        self.sink.drain();
    }
}

/// The run's transport: one endpoint per worker before the run, and every
/// replica verified afterwards.
#[derive(Debug, Default)]
pub(crate) struct Transport {
    /// Backend label for the report.
    backend: &'static str,
    /// One per node until taken; empty under the simulated backend.
    endpoints: Vec<Option<Box<WireEndpoint>>>,
    /// Socket backend: the control connection to each peer; the end-of-run
    /// [`WireReport`] comes back on it.
    controls: Vec<TcpStream>,
    /// `SocketLocal` only: the in-process peer threads, joined at finish.
    servers: Vec<std::thread::JoinHandle<io::Result<()>>>,
}

impl Transport {
    /// Builds the transport `kind` names for `nprocs` nodes whose regions
    /// start as `init`.
    pub(crate) fn new(kind: &TransportKind, nprocs: usize, init: &[Vec<u8>]) -> Self {
        let transport = match kind {
            TransportKind::Simulated => Transport::default(),
            TransportKind::Channel => Transport::channel(nprocs, init),
            TransportKind::SocketLocal(npeers) => Transport::socket_local(nprocs, *npeers, init),
            TransportKind::SocketRemote(addrs) => Transport::socket(nprocs, addrs, init),
        };
        Transport {
            backend: kind.label(),
            ..transport
        }
    }

    /// Every node owns a full replica and an inbox, and sends into every
    /// inbox, its own included.
    fn channel(nprocs: usize, init: &[Vec<u8>]) -> Self {
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| mpsc::channel()).unzip();
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(node, inbox)| {
                Some(WireEndpoint::new(Sink::Channel {
                    node,
                    inboxes: inboxes.clone(),
                    inbox,
                    codecs: (0..nprocs).map(|_| CompactClock::new()).collect(),
                    replica: Box::new(Replica::new(init)),
                }))
            })
            .collect();
        Transport {
            endpoints,
            ..Transport::default()
        }
    }

    /// Spawns `npeers` in-process replica peers and connects to them.
    fn socket_local(nprocs: usize, npeers: usize, init: &[Vec<u8>]) -> Self {
        let (addrs, servers): (Vec<String>, Vec<_>) = (0..npeers)
            .map(|_| {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
                let addr = listener.local_addr().expect("listener address").to_string();
                let server = std::thread::spawn(move || serve_transport_peer(listener));
                (addr, server)
            })
            .unzip();
        Transport {
            servers,
            ..Transport::socket(nprocs, &addrs, init)
        }
    }

    /// Connects to replica peers already serving at `addrs`.
    fn socket(nprocs: usize, addrs: &[String], init: &[Vec<u8>]) -> Self {
        // Control connection first: it carries the bootstrap Init (cluster
        // shape, initial region images) the peer needs before it can accept
        // node streams.
        let mut init_body = Vec::new();
        WireInit {
            nprocs: nprocs as u32,
            regions: init.to_vec(),
        }
        .encode_into(&mut init_body);
        let connect = |role: &[u8]| {
            addrs
                .iter()
                .map(|addr| {
                    let mut conn = TcpStream::connect(addr).expect("connect to replica peer");
                    conn.set_nodelay(true).expect("set TCP_NODELAY");
                    conn.write_all(role).expect("send connection role");
                    conn
                })
                .collect::<Vec<_>>()
        };
        let mut controls = connect(b"C");
        for conn in controls.iter_mut() {
            write_msg(conn, WireMsgKind::Init, &init_body).expect("send init");
        }
        let endpoints = (0..nprocs)
            .map(|_| Some(WireEndpoint::new(Sink::Socket(connect(b"N")))))
            .collect();
        Transport {
            endpoints,
            controls,
            ..Transport::default()
        }
    }

    /// The endpoint worker `node` publishes through, or `None` if this
    /// backend replicates nothing (simulated).
    pub(crate) fn take_endpoint(&mut self, node: NodeId) -> Option<Box<WireEndpoint>> {
        self.endpoints.get_mut(node.index())?.take()
    }

    /// Completes the run: flushes every endpoint, drains and verifies every
    /// replica against the engines' final `master` copies and summarizes the
    /// traffic.
    ///
    /// Panics if a replica's contents diverge from the master, it missed an
    /// out-of-band message, or it received other bytes than the endpoints
    /// accounted — a transport bug, never a legal outcome.
    pub(crate) fn finish(
        &mut self,
        mut endpoints: Vec<WireEndpoint>,
        master: &[Vec<u8>],
    ) -> TransportReport {
        let backend = self.backend;
        let mut report = TransportReport {
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
        };
        // Flush every endpoint before draining any replica: a channel inbox
        // is complete only once all of its senders have flushed.  Which
        // endpoint sent each out-of-band message is timing-dependent, but
        // the merged tally every replica must match is not.
        let mut oob = OobTally::default();
        for ep in endpoints.iter_mut() {
            ep.flush();
            report.frames_sent += ep.frames_sent;
            report.wire_bytes_payload += ep.wire_bytes_payload;
            report.wire_bytes_meta += ep.wire_bytes_meta;
            report.frames_coalesced += ep.frames_coalesced;
            oob.merge(&ep.oob_sent);
        }
        report.wire_bytes = report.wire_bytes_payload + report.wire_bytes_meta;
        report.ctrl_frames = oob.count(WireMsgKind::Ctrl);
        report.ckpt_frames = oob.count(WireMsgKind::Ckpt);
        report.rollback_frames = oob.count(WireMsgKind::Rollback);

        let mut replicas = Vec::new();
        for ep in endpoints {
            let mut sink = ep.sink;
            // Every worker thread has been joined and every endpoint
            // flushed, so a channel inbox now holds the complete remainder
            // of the run's messages.
            sink.drain();
            match sink {
                Sink::Channel { replica, .. } => {
                    assert!(replica.drained(), "replica is missing publish frames");
                    replicas.push(replica.report());
                }
                // Close every node stream cleanly: Fin, drop.
                Sink::Socket(mut conns) => {
                    for conn in conns.iter_mut() {
                        write_msg(conn, WireMsgKind::Fin, &[]).expect("send fin");
                    }
                }
            }
        }
        // Every socket peer now sees nprocs Fins and reports back.
        let mut body = Vec::new();
        for mut control in self.controls.drain(..) {
            let kind = read_msg(&mut control, &mut body).expect("read peer report");
            assert_eq!(kind, Some(WireMsgKind::Report), "peer sent a non-report");
            replicas.push(WireReport::decode(&body).expect("malformed peer report"));
        }
        for server in self.servers.drain(..) {
            server
                .join()
                .expect("replica peer thread panicked")
                .expect("replica peer failed");
        }
        // Every replica receives every message, so each one's byte count
        // times the replica count is exactly what the endpoints accounted.
        let nreplicas = replicas.len() as u64;
        for replica in &replicas {
            assert_eq!(
                replica.contents_fnv, report.master_fnv,
                "{backend} replica diverged from the engines' master copies"
            );
            assert_eq!(
                replica.oob, oob,
                "{backend} replica missed an out-of-band message"
            );
            assert_eq!(
                replica.bytes_received.checked_mul(nreplicas),
                Some(report.wire_bytes),
                "{backend} replica received other bytes than the endpoints sent"
            );
            report.frames_applied += replica.frames_applied;
        }
        report.replicas_verified = replicas.len();
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
/// each message straight to the shared replica under a mutex — no
/// cross-thread handoff, no per-message allocation (payload buffers come
/// from the replica's [`BufferPool`], which recycles applied frames).  Once
/// every node stream has finished, the peer writes its [`WireReport`]
/// (contents fingerprint, frames applied, bytes received, out-of-band tally)
/// back on the control connection.
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
                        match read_msg(&mut conn, &mut body)? {
                            Some(WireMsgKind::Fin) | None => return Ok(()),
                            Some(kind) => sync_lock(replica).receive(&mut codec, kind, &body)?,
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

    fn frame(region: u32, seq: u64, off: u32, byte: u8) -> WireFrame {
        WireFrame {
            region,
            seq,
            runs: vec![(off, 1)],
            payload: vec![byte],
        }
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
        // Every applied frame donates its payload back to the pool.
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
        let mut t = Transport::new(&TransportKind::Channel, 2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0..4].copy_from_slice(&[1, 2, 3, 4]);
        a.publish(0, 1, &[1, 0], &[(0, 4)], &master[0]);
        master[0][8] = 9;
        b.publish(0, 2, &[1, 1], &[(8, 1)], &master[0]);
        assert_eq!(a.frames_sent, 1);
        assert_eq!(
            a.wire_bytes_payload + a.wire_bytes_meta,
            0,
            "nothing is accounted before the flush"
        );
        a.flush();
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
        let mut t = Transport::new(&TransportKind::Channel, 2, &init);
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
        let mut t = Transport::new(&TransportKind::Channel, 1, &init);
        let a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        // The master claims a write the endpoint never published.
        let mut master = init.clone();
        master[0][0] = 7;
        t.finish(vec![*a], &master);
    }

    #[test]
    fn socket_local_round_trip_over_loopback() {
        let init = vec![vec![0u8; 32], vec![5u8; 8]];
        let mut t = Transport::new(&TransportKind::SocketLocal(2), 2, &init);
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
        let mut t = Transport::new(&TransportKind::SocketLocal(1), 1, &init);
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
        let mut t = Transport::new(&TransportKind::Channel, 2, &init);
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
        let mut t = Transport::new(&TransportKind::Channel, 1, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        // Claim a broadcast that never went out: the replica's tally can't
        // match.
        a.oob_sent.add(WireMsgKind::Ctrl, b"never sent");
        t.finish(vec![*a], &init);
    }

    /// Publishes one frame on a one-node run over `kind`, accounts one byte
    /// that never went out, and finishes: the replica's count can't match.
    fn finish_with_a_miscounted_byte(kind: TransportKind) {
        let init = vec![vec![0u8; 8]];
        let mut t = Transport::new(&kind, 1, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut master = init.clone();
        master[0][0] = 3;
        a.publish(0, 1, &[], &[(0, 1)], &master[0]);
        a.wire_bytes_meta += 1;
        t.finish(vec![*a], &master);
    }

    #[test]
    #[should_panic(expected = "other bytes")]
    fn socket_byte_miscount_is_caught() {
        finish_with_a_miscounted_byte(TransportKind::SocketLocal(1));
    }

    #[test]
    #[should_panic(expected = "other bytes")]
    fn channel_byte_miscount_is_caught() {
        finish_with_a_miscounted_byte(TransportKind::Channel);
    }

    #[test]
    fn socket_ctrl_broadcasts_reach_every_peer() {
        let init = vec![vec![0u8; 32]];
        let mut t = Transport::new(&TransportKind::SocketLocal(2), 2, &init);
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
        let mut t = Transport::new(&TransportKind::Simulated, 1, &[]);
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
