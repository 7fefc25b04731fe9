//! Scaling sweep of the transport backends: a synthetic epoch workload
//! (touch one element per page, then rewrite your slice under a bound lock,
//! so every release publishes), driven over real OS threads (channel
//! backend, 8 → 256 nodes) and real loopback sockets (socket backend, with
//! the replica peers either in-process threads or separate child processes
//! that this binary launches).
//!
//! Host wall-clock, publish rate and bytes-on-wire are emitted as one JSON
//! object per line; `BENCH_transport.json` at the repo root records the
//! trajectory across commits.  Each row carries the workload knobs that
//! produced it (`elems`, `words_per_page`, `epochs`) so points from
//! different sweeps are self-describing.  `wire_bytes` is split into its
//! payload (changed bytes) and metadata (frame headers, delta vector-clock
//! records, run tables, batch framing) parts: the v1 wire sent each frame —
//! with a full O(nodes) vector clock — as its own message, while the v2 wire
//! delta-encodes the clocks against a per-stream baseline and coalesces each
//! epoch's frames into one batch per peer (`frames_coalesced` counts the
//! sends saved), so metadata grows with what changed rather than with the
//! node count.
//!
//! It takes the shared `--scale` and `--impls` flags (`--impls` replaces the
//! default LRC-diff/EC-time pair; `--procs` is accepted and ignored, because
//! node count is the sweep axis).  With `--peer` it instead becomes a replica
//! peer process: it binds a loopback listener, prints the port on stdout and
//! serves one run's replication (the mode the sweep launches as child
//! processes).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use dsm_apps::Scale;
use dsm_core::{
    BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode, RunResult,
    TransportKind,
};

/// Elements (u32) in the shared region: 16 pages.
const ELEMS: usize = 16 * 1024;

/// Words per page of the region (u32 elements, 4 KiB pages).
const WORDS_PER_PAGE: usize = 1024;

/// One synthetic epoch run over the given transport.  Returns the run result
/// and the host wall-clock in milliseconds.
fn epoch_run(
    kind: ImplKind,
    nprocs: usize,
    iters: usize,
    transport: TransportKind,
) -> (RunResult, f64) {
    let mut cfg = DsmConfig::with_procs(kind, nprocs);
    cfg.transport = transport;
    let mut dsm = Dsm::new(cfg).expect("valid config");
    let region = dsm.alloc_array::<u32>("wire-hot", ELEMS, BlockGranularity::Word);
    dsm.init_array(region, |i| i as u32);
    dsm.bind(LockId::new(0), [region.whole()]);
    let per = (ELEMS / nprocs).max(1);
    let start = Instant::now();
    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let mut mine = vec![0u32; per];
        let mut sink = 0u64;
        for it in 0..iters {
            let mut g = ctx.lock(LockId::new(0), LockMode::Exclusive);
            for page in 0..ELEMS / WORDS_PER_PAGE {
                sink = sink.wrapping_add(g.get(region, page * WORDS_PER_PAGE) as u64);
            }
            for (e, slot) in mine.iter_mut().enumerate() {
                *slot = (it + e) as u32;
            }
            g.write_from(region, (me * per).min(ELEMS - per), &mine);
            drop(g);
        }
        std::hint::black_box(sink);
        ctx.barrier(BarrierId::new(0));
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (result, wall_ms)
}

/// One point of the sweep: which implementation ran over which backend at
/// what node and replica-peer count.
struct Point<'a> {
    kind: ImplKind,
    backend: &'a str,
    nodes: usize,
    peers: usize,
}

fn print_row(p: &Point<'_>, scale_name: &str, iters: usize, result: &RunResult, wall_ms: f64) {
    let publishes = result.wire.frames_sent;
    println!(
        "{{\"bench\":\"scaling_transport\",\"impl\":\"{}\",\"backend\":\"{}\",\
         \"scale\":\"{}\",\"nodes\":{},\"peers\":{},\"epochs\":{},\
         \"elems\":{},\"words_per_page\":{},\
         \"frames_sent\":{},\"frames_coalesced\":{},\"wire_bytes\":{},\
         \"wire_bytes_payload\":{},\"wire_bytes_meta\":{},\"replicas_verified\":{},\
         \"wall_ms\":{:.3},\"frames_per_sec\":{:.0},\"contents_fnv\":\"{:016x}\"}}",
        p.kind.name(),
        p.backend,
        scale_name,
        p.nodes,
        p.peers,
        iters,
        ELEMS,
        WORDS_PER_PAGE,
        publishes,
        result.wire.frames_coalesced,
        result.wire.wire_bytes,
        result.wire.wire_bytes_payload,
        result.wire.wire_bytes_meta,
        result.wire.replicas_verified,
        wall_ms,
        publishes as f64 / (wall_ms / 1e3).max(1e-9),
        result.wire.master_fnv,
    );
}

/// Launches one replica peer as a child process (this same binary with
/// `--peer`) and reads the port it bound from its stdout.
fn spawn_peer() -> (Child, String) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .arg("--peer")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn peer process");
    let stdout = child.stdout.take().expect("peer stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("peer prints its port");
    let port: u16 = line.trim().parse().expect("peer port line");
    (child, format!("127.0.0.1:{port}"))
}

/// Peer-process mode: bind a loopback listener, announce the port and serve
/// one replication session.
fn run_peer() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let port = listener.local_addr().expect("local addr").port();
    println!("{port}");
    std::io::stdout().flush().expect("flush port line");
    dsm_core::serve_transport_peer(listener).expect("peer session");
}

fn main() {
    if std::env::args().any(|a| a == "--peer") {
        run_peer();
        return;
    }
    let opts = dsm_bench::HarnessOpts::from_args();
    let (scale_name, iters, node_counts, peer_counts): (_, usize, &[usize], &[usize]) =
        match opts.scale {
            Scale::Tiny => ("tiny", 3, &[8, 16], &[2]),
            Scale::Small => ("small", 8, &[8, 16, 32, 64, 128, 256], &[2, 4, 8]),
            Scale::Paper => ("paper", 16, &[8, 16, 32, 64, 128, 256], &[2, 4, 8]),
        };
    // `--impls` replaces the default pair outright (any implementation can
    // drive this synthetic workload, including the adaptive ones, whose
    // control frames then ride the measured wire).
    let kinds = opts
        .impls
        .unwrap_or_else(|| vec![ImplKind::lrc_diff(), ImplKind::ec_time()]);
    dsm_bench::print_json_header(
        "scaling_transport",
        "synthetic publish epochs over real threads (channel) and loopback sockets",
    );

    // Threaded sweep: every simulated processor is an OS thread, and every
    // epoch's flush hands one Arc'd encoded batch to every node's inbox.
    for &kind in &kinds {
        for &nprocs in node_counts {
            let (result, wall_ms) = epoch_run(kind, nprocs, iters, TransportKind::Channel);
            let p = Point {
                kind,
                backend: "channel",
                nodes: nprocs,
                peers: nprocs,
            };
            print_row(&p, scale_name, iters, &result, wall_ms);
        }
    }

    // Socket sweep, in-process peers: 8 worker nodes publishing to 2-8
    // replica peers over real loopback connections served by threads.
    const SOCKET_NODES: usize = 8;
    for &kind in &kinds {
        for &npeers in peer_counts {
            let (result, wall_ms) = epoch_run(
                kind,
                SOCKET_NODES,
                iters,
                TransportKind::SocketLocal(npeers),
            );
            let p = Point {
                kind,
                backend: "socket-thread",
                nodes: SOCKET_NODES,
                peers: npeers,
            };
            print_row(&p, scale_name, iters, &result, wall_ms);
        }
    }

    // Socket sweep, process peers: the same sweep with every replica peer a
    // separate OS process launched by this driver.
    for &kind in &kinds {
        for &npeers in peer_counts {
            let (children, addrs): (Vec<Child>, Vec<String>) =
                (0..npeers).map(|_| spawn_peer()).unzip();
            let (result, wall_ms) = epoch_run(
                kind,
                SOCKET_NODES,
                iters,
                TransportKind::SocketRemote(addrs),
            );
            for mut child in children {
                let status = child.wait().expect("peer process exit");
                assert!(status.success(), "peer process failed: {status}");
            }
            let p = Point {
                kind,
                backend: "socket-process",
                nodes: SOCKET_NODES,
                peers: npeers,
            };
            print_row(&p, scale_name, iters, &result, wall_ms);
        }
    }
}
