//! fenrir-stream load generator: sequenced submissions fired at a real
//! streaming server over loopback TCP, with a live subscriber timing
//! the push path.
//!
//! Two phases, each against its own fresh server and journal:
//!
//! 1. **submit throughput** — closed-loop: one connection pipelines
//!    batches of `Submit` frames (submissions are sequenced, so one
//!    stream cannot fan out across connections) and drains the acks.
//!    Every ack covers a durable, fsynced journal append plus the full
//!    incremental re-derivation, so this is end-to-end ingest
//!    throughput, not wire throughput.
//! 2. **transition-notification latency** — open-loop on the event
//!    path: the feed alternates between two routing regimes so every
//!    accepted frame (after the warm-up, while nascent modes clear the
//!    minimum-cluster-size guard) reveals exactly one new mode
//!    boundary. A subscriber timestamps each pushed `ModeTransition`;
//!    reported as p50/p99 from just-before-submit to event receipt.
//!
//! Emits `BENCH_stream.json` at the workspace root (hand-formatted;
//! the workspace has no serializer dependency).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use fenrir_bench::timing::percentile;
use fenrir_core::health::CampaignHealth;
use fenrir_core::ids::SiteTable;
use fenrir_core::time::Timestamp;
use fenrir_serve::protocol::Request;
use fenrir_serve::{Reply, ServeConfig, StreamEvent, SubmitOutcome};
use fenrir_stream::{StreamConfig, StreamServer, SubmitClient, Subscriber};

const NETWORKS: usize = 64;
const SITES: usize = 4;
const DAY: i64 = 86_400;

const THROUGHPUT_ROWS: usize = 256;
const THROUGHPUT_BATCH: usize = 32;
const LATENCY_ROWS: usize = 256;
/// The first frames carry no transition: a nascent mode is credited
/// once it clears the minimum-cluster-size guard (two members a side).
const LATENCY_WARMUP: usize = 4;

/// End-to-end ingest must clear this. Each accepted submit is a real
/// `fsync` before its ack, but the fold's analysis dominates its cost:
/// traced in the repository benchmark's `ingest-recurring` workload,
/// Φ extend plus the divergence guard take
/// 92–95 % of a fold, journal append 3–6 %, and threshold choice, HAC
/// extend and compaction together about 2 %. The floor asserts
/// liveness, not hardware.
const SUBMIT_PER_SEC_FLOOR: f64 = 5.0;
/// Push-path p99 from submit to event receipt, generous for CI noise.
const NOTIFY_P99_FLOOR_US: f64 = 250_000.0;

fn sites() -> SiteTable {
    SiteTable::from_names((0..SITES).map(|s| format!("S{s:02}")))
}

/// Alternating two-regime feed: even days route `n % SITES`, odd days
/// the rotation of it, so consecutive observations always land in
/// different modes and each accepted frame opens one new boundary.
fn codes_for(day: usize) -> Vec<u16> {
    (0..NETWORKS)
        .map(|n| ((n + day % 2) % SITES) as u16)
        .collect()
}

fn row(day: usize) -> (u64, i64, Vec<u16>, CampaignHealth) {
    let t = Timestamp::from_secs(day as i64 * DAY);
    let mut h = CampaignHealth::new(t, NETWORKS);
    h.responses = NETWORKS;
    (day as u64, t.as_secs(), codes_for(day), h)
}

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("fenrir-bench-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn start_server(tag: &str) -> (StreamServer, std::path::PathBuf) {
    let path = temp_journal(tag);
    let server = StreamServer::start(
        &path,
        sites(),
        NETWORKS,
        StreamConfig::new(NETWORKS),
        ServeConfig::default(),
    )
    .expect("start stream server");
    (server, path)
}

/// Closed-loop pipelined submission of `THROUGHPUT_ROWS` frames.
fn throughput_phase() -> (f64, u64) {
    let (server, path) = start_server("tput");
    let mut client = SubmitClient::connect(server.addr()).expect("connect");
    let mut accepted = 0u64;
    let start = Instant::now();
    let mut seq = 0usize;
    while seq < THROUGHPUT_ROWS {
        let batch = THROUGHPUT_BATCH.min(THROUGHPUT_ROWS - seq);
        for day in seq..seq + batch {
            let (s, t, codes, health) = row(day);
            client
                .inner()
                .send(&Request::Submit {
                    seq: s,
                    time: t,
                    codes,
                    health,
                })
                .expect("send");
        }
        client.inner().flush().expect("flush");
        for _ in 0..batch {
            match client.inner().recv().expect("recv") {
                Reply::SubmitAck {
                    outcome: SubmitOutcome::Accepted { .. },
                    ..
                } => accepted += 1,
                other => panic!("submission refused: {other:?}"),
            }
        }
        seq += batch;
    }
    let elapsed = start.elapsed();
    let fold_mean_us = {
        let h = &server.ingestor().metrics().fold_latency;
        h.sum() as f64 / h.count().max(1) as f64
    };
    server.shutdown();
    let _ = std::fs::remove_file(&path);
    println!(
        "submit throughput: {accepted} rows in {elapsed:.2?} -> {:.1}/s (mean fold {fold_mean_us:.0} us)",
        accepted as f64 / elapsed.as_secs_f64()
    );
    (accepted as f64 / elapsed.as_secs_f64(), accepted)
}

/// One submit at a time with a subscriber timing each pushed event.
fn latency_phase() -> (Vec<Duration>, u64) {
    let (server, path) = start_server("lat");
    let addr = server.addr();

    // After the warm-up reveals its backlog at once, every frame pushes
    // exactly one transition; total = LATENCY_ROWS - 1.
    let expected = (LATENCY_ROWS - 1) as u64;
    let (tx, rx) = mpsc::channel::<(u64, Instant)>();
    let sub_thread = std::thread::spawn(move || {
        let mut sub = Subscriber::connect(addr).expect("subscribe");
        sub.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut seen = 0u64;
        while seen < expected {
            match sub.next_event().expect("event") {
                StreamEvent::ModeTransition { seq, .. } => {
                    tx.send((seq, Instant::now())).expect("record");
                    seen += 1;
                }
                StreamEvent::Lagged { missed } => seen += missed,
                StreamEvent::Closed => break,
            }
        }
        seen
    });

    let mut client = SubmitClient::connect(addr).expect("connect");
    let mut sent_at = Vec::with_capacity(LATENCY_ROWS);
    for day in 0..LATENCY_ROWS {
        let (s, t, codes, health) = row(day);
        sent_at.push(Instant::now());
        match client.submit(s, t, codes, health).expect("submit") {
            SubmitOutcome::Accepted { .. } => {}
            other => panic!("submission refused: {other:?}"),
        }
    }
    let delivered = sub_thread.join().expect("subscriber thread");

    // Pair each event's boundary seq with the submit that revealed it:
    // in the alternating feed, frame b itself opens boundary b (both
    // modes already hold two members) — except the warm-up backlog,
    // which frame LATENCY_WARMUP - 1 reveals all at once.
    let mut rtts: Vec<Duration> = Vec::new();
    while let Ok((seq, at)) = rx.try_recv() {
        let revealer = (seq as usize).clamp(LATENCY_WARMUP - 1, LATENCY_ROWS - 1);
        rtts.push(at.duration_since(sent_at[revealer]));
    }
    rtts.sort();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
    (rtts, delivered)
}

fn main() {
    let seed: u64 = std::env::var("FENRIR_STREAM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    println!(
        "stream bench: {NETWORKS} networks x {SITES} sites, seed {seed} \
         ({THROUGHPUT_ROWS} rows closed-loop, {LATENCY_ROWS} rows timed)"
    );

    let (submit_per_sec, accepted) = throughput_phase();
    let (rtts, delivered) = latency_phase();
    assert!(
        !rtts.is_empty(),
        "the alternating feed must produce transitions to time"
    );
    let p50 = percentile(&rtts, 0.50);
    let p99 = percentile(&rtts, 0.99);
    println!(
        "transition notification: {delivered} events, p50 {:.1} us, p99 {:.1} us",
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
    );

    let json = format!(
        "{{\n  \"bench\": \"stream\",\n  \"seed\": {seed},\n  \"networks\": {NETWORKS},\n  \"sites\": {SITES},\n  \"submit\": {{ \"rows\": {accepted}, \"per_sec\": {submit_per_sec:.1} }},\n  \"notify\": {{ \"events\": {delivered}, \"timed\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1} }}\n}}\n",
        rtts.len(),
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(path, &json).expect("write BENCH_stream.json");
    println!("wrote {path}");

    assert_eq!(
        accepted as usize, THROUGHPUT_ROWS,
        "every row must ack Accepted"
    );
    assert_eq!(
        delivered,
        (LATENCY_ROWS - 1) as u64,
        "every transition must reach the subscriber (or be explicitly counted as lagged)"
    );
    assert!(
        submit_per_sec >= SUBMIT_PER_SEC_FLOOR,
        "submit throughput {submit_per_sec:.1}/s is below the {SUBMIT_PER_SEC_FLOOR}/s bar"
    );
    assert!(
        p99.as_secs_f64() * 1e6 <= NOTIFY_P99_FLOOR_US,
        "notification p99 {:.1} us exceeds the {NOTIFY_P99_FLOOR_US:.0} us bar",
        p99.as_secs_f64() * 1e6
    );
}
