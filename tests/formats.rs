//! Golden bytes for every durable and wire format: the lease, the WAL
//! head and observation record, the tier manifest (current version 2
//! and a hand-built version 1), a journal file, and serve request and
//! reply frames.
//!
//! Each test pins the exact encoding of one small value as hex and
//! requires the hex to decode back to that value. A codec refactor that
//! moves a single byte fails here, before any tier, WAL or peer written
//! by an older build is misread. Changing a format on purpose means
//! bumping its version and adding a new golden beside the old one.

use std::io::Cursor;

use fenrir::core::health::CampaignHealth;
use fenrir::core::time::Timestamp;
use fenrir::data::journal::{Frame, Journal};
use fenrir::data::storage::wal::WalHead;
use fenrir::data::storage::{LeaseRecord, Manifest, ObsRecord, SegmentEntry};
use fenrir::serve::protocol::{read_frame, FrameEvent, Reply, Request};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn segment(gen: u64, key: &str, len: u64, sum: u16, frames: u32) -> SegmentEntry {
    SegmentEntry {
        gen,
        key: key.into(),
        len,
        sum,
        frames,
    }
}

#[test]
fn lease_record_bytes_are_pinned() {
    const GOLDEN: &str = "464e524c070000000000000015cd5b070000000007006e6f64652dceb1ed36";
    let lease = LeaseRecord {
        epoch: 7,
        expires_at_ms: 123_456_789,
        holder: "node-α".into(),
    };
    assert_eq!(hex(&lease.encode()), GOLDEN);
    assert_eq!(LeaseRecord::decode(&unhex(GOLDEN)).unwrap(), lease);
}

#[test]
fn wal_head_bytes_are_pinned() {
    const GOLDEN: &str = "464e52570300000000000000290000000000000011000000000000005a2a";
    let head = WalHead {
        fence: 3,
        len: 41,
        floor: 17,
    };
    assert_eq!(hex(&head.encode()), GOLDEN);
    assert_eq!(WalHead::decode(&unhex(GOLDEN)).unwrap(), head);
}

#[test]
fn wal_record_bytes_are_pinned() {
    const GOLDEN: &str = concat!(
        "464e5252090000000000000000d20f0000000000050000000000000000000100",
        "01000200ffff00d20f0000000000050000000000000004000000000000000700",
        "0000000000000200000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "000000000000000000000000000000000000000000000000bb23",
    );
    let mut health = CampaignHealth::new(Timestamp::from_days(12), 5);
    health.responses = 4;
    health.attempts = 7;
    health.retries = 2;
    let rec = ObsRecord {
        time: Timestamp::from_days(12).as_secs(),
        codes: vec![0, 1, 1, 2, 0xFFFF],
        health,
    };
    assert_eq!(hex(&rec.encode(9)), GOLDEN);
    assert_eq!(ObsRecord::decode(&unhex(GOLDEN)).unwrap(), (rec, 9));
}

#[test]
fn manifest_v2_bytes_are_pinned() {
    const GOLDEN: &str = concat!(
        "464e524d020004000000000000000200000001000000000000002c0100000000",
        "000002000000efbe1700742f7365676d656e74732f7365672d30303030303030",
        "31020000000000000000020000000000000300000002012000742f7365676d65",
        "6e74732f7365672d30303030303030322e30303030303030348f07",
    );
    let m = Manifest {
        fence: 4,
        entries: vec![
            segment(1, "t/segments/seg-00000001", 300, 0xBEEF, 2),
            segment(2, "t/segments/seg-00000002.00000004", 512, 0x0102, 3),
        ],
    };
    assert_eq!(hex(&m.encode()), GOLDEN);
    assert_eq!(Manifest::decode(&unhex(GOLDEN)).unwrap(), m);
}

/// Version 1 predates fencing (no fence word) and is never written
/// again, so its golden is decode-only: a tier sealed before failover
/// existed must still open, as never fenced.
#[test]
fn manifest_v1_bytes_still_decode() {
    const GOLDEN: &str = concat!(
        "464e524d01000100000001000000000000002c0100000000000002000000efbe",
        "1700742f7365676d656e74732f7365672d30303030303030312483",
    );
    let m = Manifest {
        fence: 0,
        entries: vec![segment(1, "t/segments/seg-00000001", 300, 0xBEEF, 2)],
    };
    assert_eq!(Manifest::decode(&unhex(GOLDEN)).unwrap(), m);
}

#[test]
fn journal_file_bytes_are_pinned() {
    const GOLDEN: &str = concat!(
        "464e524a02000000080000001000564e63616d706169676e0000000011",
        "00ffee0300000022009b076f6464",
    );
    let frames = [
        (0x10, b"campaign".to_vec()),
        (0x11, Vec::new()),
        (0x22, b"odd".to_vec()),
    ];
    let mut j = Journal::in_memory();
    for (kind, payload) in &frames {
        j.append(*kind, payload).unwrap();
    }
    assert_eq!(hex(j.bytes()), GOLDEN);
    let (decoded, report) = Journal::decode(&unhex(GOLDEN)).unwrap();
    assert!(report.is_clean());
    let expected: Vec<Frame> = frames
        .into_iter()
        .map(|(kind, payload)| Frame { kind, payload })
        .collect();
    assert_eq!(decoded, expected);
}

fn read_one(bytes: &[u8]) -> (u8, Vec<u8>) {
    match read_frame(&mut Cursor::new(bytes)) {
        FrameEvent::Frame { kind, payload } => (kind, payload),
        other => panic!("golden frame did not verify: {other:?}"),
    }
}

#[test]
fn serve_request_frames_are_pinned() {
    const SIMILARITY: &str = "100000000502ac698051010000000000ffffffffffffffff";
    const HEALTH: &str = "000000000506f9fa";
    for (req, golden) in [
        (Request::Similarity { t: 86_400, u: -1 }, SIMILARITY),
        (Request::Health, HEALTH),
    ] {
        assert_eq!(hex(&req.encode()), golden);
        let (kind, payload) = read_one(&unhex(golden));
        assert_eq!(Request::decode(kind, &payload).unwrap(), req);
    }
}

#[test]
fn serve_reply_frame_is_pinned() {
    const GOLDEN: &str = "150000000581ebb98051010000000000030003000000000000004c4158";
    let reply = Reply::Assign {
        time: 86_400,
        code: 3,
        label: "LAX".into(),
    };
    assert_eq!(hex(&reply.encode()), GOLDEN);
    let (kind, payload) = read_one(&unhex(GOLDEN));
    assert_eq!(Reply::decode(kind, &payload).unwrap(), reply);
}
