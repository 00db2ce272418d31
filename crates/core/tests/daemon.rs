//! End-to-end daemon tests over real sockets.
//!
//! The acceptance property: a 4-shard daemon fed over a socket by one
//! ordered client produces a merged estimate **bit-for-bit equal** to
//! the same replay driven through an in-process [`ShardedService`] —
//! the wire adds transport, not nondeterminism.

use std::time::Duration;

use proto::client::Client;
use proto::msg::{ErrorCode, Request, Response, WireEstimate, WireReport};
use proto::net::BindAddr;
use traffic_cs::cs::CsConfig;
use traffic_cs::daemon::{Daemon, DaemonConfig};
use traffic_cs::service::{LiveEstimate, Observation, ServeConfig};
use traffic_cs::sharded::{ShardPlan, ShardedService};

const SLOT_LEN: u64 = 60;
const SEGMENTS: usize = 10;

fn synth_observations(slots: usize) -> Vec<Observation> {
    let mut out = Vec::new();
    for slot in 0..slots {
        for seg in 0..SEGMENTS {
            for probe in 0..3u64 {
                let h = (slot as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seg as u64 * 97 + probe * 131);
                if h % 10 < 7 {
                    let f = (2.0 * std::f64::consts::PI * slot as f64 / 24.0).sin();
                    let speed = 30.0 + 3.0 * (seg % 5) as f64 + 9.0 * f + 0.1 * probe as f64;
                    out.push(Observation {
                        vehicle: 100 * probe + seg as u64,
                        timestamp_s: slot as u64 * SLOT_LEN + 7 + probe,
                        segment: seg,
                        speed_kmh: speed,
                    });
                }
            }
        }
    }
    out
}

fn serve_cfg(shards: usize) -> ServeConfig {
    ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(6)
        .num_segments(SEGMENTS)
        .cs(CsConfig { rank: 2, lambda: 0.1, num_threads: 1, ..CsConfig::default() })
        .queue_capacity(10_000)
        .shards(ShardPlan::with_count(shards))
        .build()
        .unwrap()
}

/// A daemon config tuned for tests: periodic ticks effectively off so
/// `Sync` barriers are the only tick schedule, matching the in-process
/// replay exactly.
fn daemon_cfg(shards: usize) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(BindAddr::parse("tcp:127.0.0.1:0").unwrap(), serve_cfg(shards));
    cfg.tick_interval = Duration::from_secs(3600);
    cfg.frame_deadline = Duration::from_secs(5);
    cfg
}

fn to_wire(o: &Observation) -> WireReport {
    WireReport::new(o.vehicle, o.timestamp_s, o.segment as u64, o.speed_kmh)
}

#[test]
fn four_shard_daemon_over_socket_matches_in_process_replay_bit_for_bit() {
    let observations = synth_observations(12);
    const CHUNK: usize = 23;

    // In-process reference: same shard plan, same chunked tick schedule.
    let mut reference = ShardedService::new(serve_cfg(4)).unwrap();
    for batch in observations.chunks(CHUNK) {
        for &o in batch {
            reference.push(o);
        }
        reference.tick();
    }
    let want = reference.latest().expect("reference solved");
    let want_stats = reference.stats();

    // Daemon under test, driven over a real TCP socket.
    let daemon = Daemon::bind(daemon_cfg(4)).unwrap();
    let handle = daemon.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut synced_pushed = 0;
    for batch in observations.chunks(CHUNK) {
        client.send(&Request::ReportBatch(batch.iter().map(to_wire).collect())).unwrap();
        match client.request(&Request::Sync).unwrap() {
            Response::Synced { pushed, .. } => synced_pushed += pushed,
            other => panic!("expected Synced, got {other:?}"),
        }
    }
    assert_eq!(synced_pushed, observations.len() as u64);

    let got = match client.request(&Request::QueryEstimate).unwrap() {
        Response::Estimate(Some(est)) => est,
        other => panic!("expected an estimate, got {other:?}"),
    };
    assert_eq!(got.head_slot, want.head_slot as u64);
    assert_eq!(got.stale, want.stale);
    assert_eq!(got.rows as usize, want.estimate.rows());
    assert_eq!(got.cols as usize, want.estimate.cols());
    let want_bits: Vec<u64> = (0..want.estimate.rows())
        .flat_map(|r| (0..want.estimate.cols()).map(move |c| (r, c)))
        .map(|(r, c)| want.estimate.get(r, c).to_bits())
        .collect();
    assert_eq!(got.values_bits, want_bits, "socket replay must be bit-identical");

    match client.request(&Request::QueryStats).unwrap() {
        Response::Stats { merged, shards } => {
            assert_eq!(merged.admitted, want_stats.admitted);
            assert_eq!(merged.rejected, want_stats.rejected);
            assert_eq!(merged.solves, want_stats.solves);
            assert_eq!(shards.len(), 4);
            assert_eq!(shards.iter().map(|s| s.admitted).sum::<u64>(), merged.admitted);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    match client.request(&Request::Shutdown).unwrap() {
        Response::Bye => {}
        other => panic!("expected Bye, got {other:?}"),
    }
    let stats = handle.join().unwrap();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.reports, observations.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
}

/// Asserts a wire estimate equals an in-process one bit for bit.
fn assert_same_estimate(got: &WireEstimate, want: &LiveEstimate, what: &str) {
    assert_eq!(got.head_slot, want.head_slot as u64, "{what}: head slot");
    assert_eq!(got.solved_at_s, want.solved_at_s, "{what}: solved_at_s");
    assert_eq!(got.stale, want.stale, "{what}: stale");
    assert_eq!(got.sweeps, want.sweeps as u64, "{what}: sweeps");
    assert_eq!(got.objective_bits, want.objective.to_bits(), "{what}: objective");
    assert_eq!((got.rows as usize, got.cols as usize), want.estimate.shape(), "{what}: shape");
    let want_bits: Vec<u64> = want.estimate.as_slice().iter().map(|v| v.to_bits()).collect();
    assert!(got.values_bits == want_bits, "{what}: cell bits differ");
}

fn query_estimate(client: &mut Client) -> Option<WireEstimate> {
    match client.request(&Request::QueryEstimate).unwrap() {
        Response::Estimate(est) => est,
        other => panic!("expected Estimate, got {other:?}"),
    }
}

#[test]
fn estimate_queries_answer_from_the_last_epoch_during_a_long_tick() {
    // Two shards. The first epoch solves shard 0 only; the second tick
    // brings shard 1's first data, so it runs a cold solve of a full
    // 400-sweep ALS over 6 × 1,500 cells. That keeps the engine inside
    // one tick for far longer than the query below takes.
    const SEGS: usize = 3_000;
    let serve = ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(6)
        .num_segments(SEGS)
        .cs(CsConfig {
            rank: 6,
            lambda: 0.1,
            iterations: 400,
            tol: 0.0,
            num_threads: 1,
            ..CsConfig::default()
        })
        .queue_capacity(100_000)
        .shards(ShardPlan::with_count(2))
        .build()
        .unwrap();
    let report = |seg: usize, slot: u64, probe: u64| {
        let speed = 20.0 + (seg % 13) as f64 + 2.0 * probe as f64 + slot as f64;
        WireReport::new(probe * 10_000 + seg as u64, slot * SLOT_LEN + probe, seg as u64, speed)
    };
    let first: Vec<WireReport> =
        (0..6).flat_map(|slot| (0..40).map(move |seg| report(seg, slot, 0))).collect();
    let second: Vec<WireReport> = (0..6)
        .flat_map(|slot| (SEGS / 2..SEGS).map(move |seg| report(seg, slot, 1)))
        .filter(|r| (r.segment + r.timestamp_s) % 3 != 0)
        .collect();

    let mut cfg = daemon_cfg(2);
    cfg.serve = serve;
    let handle = Daemon::bind(cfg).unwrap().spawn().unwrap();
    let mut ingest = Client::connect(handle.addr()).unwrap();
    let mut reader = Client::connect(handle.addr()).unwrap();

    ingest.send(&Request::ReportBatch(first)).unwrap();
    assert!(matches!(ingest.request(&Request::Sync).unwrap(), Response::Synced { .. }));
    let previous = query_estimate(&mut reader).expect("the first epoch solved shard 0");
    assert!(previous.stale, "shard 1 has no estimate in the first epoch");

    ingest.send(&Request::ReportBatch(second)).unwrap();
    ingest.send(&Request::Sync).unwrap();
    let sync_wait = std::thread::spawn(move || {
        let synced = ingest.recv().unwrap();
        (std::time::Instant::now(), synced, ingest)
    });
    std::thread::sleep(Duration::from_millis(50));
    let during = query_estimate(&mut reader).expect("the first epoch stays published");
    let answered = std::time::Instant::now();
    let (synced_at, synced, ingest) = sync_wait.join().unwrap();
    let Response::Synced { tick_us, .. } = synced else {
        panic!("expected Synced, got {synced:?}")
    };
    assert!(
        answered < synced_at,
        "the query waited for the tick ({tick_us} µs) instead of answering from the last epoch"
    );
    assert!(during == previous, "a query during a tick must read the previous epoch bit for bit");

    let after = query_estimate(&mut reader).expect("the second epoch solved");
    assert!(!after.stale, "both shards contribute after the second tick");
    ingest.close();
    reader.close();
    handle.stop();
    handle.join().unwrap();
}

#[test]
fn queries_on_another_connection_read_each_synced_tick() {
    // Two slots a tick over twelve slots: the 6-slot window slides from
    // the fourth tick on.
    let observations = synth_observations(12);
    let ticks: Vec<Vec<Observation>> = (0..6)
        .map(|t| {
            let slots = 2 * t as u64..2 * t as u64 + 2;
            observations
                .iter()
                .filter(|o| slots.contains(&(o.timestamp_s / SLOT_LEN)))
                .copied()
                .collect()
        })
        .collect();

    let mut reference = ShardedService::new(serve_cfg(4)).unwrap();
    let handle = Daemon::bind(daemon_cfg(4)).unwrap().spawn().unwrap();
    let mut ingest = Client::connect(handle.addr()).unwrap();
    let mut reader = Client::connect(handle.addr()).unwrap();
    let mut heads = Vec::new();
    for (t, batch) in ticks.iter().enumerate() {
        for &o in batch {
            reference.push(o);
        }
        reference.tick();
        let want = reference.latest().expect("every tick carries data");
        heads.push(want.head_slot);

        ingest.send(&Request::ReportBatch(batch.iter().map(to_wire).collect())).unwrap();
        match ingest.request(&Request::Sync).unwrap() {
            Response::Synced { pushed, .. } => assert_eq!(pushed, batch.len() as u64),
            other => panic!("expected Synced, got {other:?}"),
        }
        let got = query_estimate(&mut reader).expect("the tick published an estimate");
        assert_same_estimate(&got, want, &format!("tick {t}"));
    }
    assert_eq!(heads, vec![5, 5, 5, 7, 9, 11], "the window slid");
    ingest.close();
    reader.close();
    handle.stop();
    let stats = handle.join().unwrap();
    assert_eq!(stats.connections, 2);
    // Two handshakes, then a batch, a sync and a query per tick.
    assert_eq!(stats.frames, 2 + 3 * ticks.len() as u64);
}

#[cfg(unix)]
#[test]
fn unix_socket_daemon_serves_concurrent_clients_and_checkpoints() {
    let dir = std::env::temp_dir().join(format!("cs-daemon-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("daemon.sock");
    let ckpt = dir.join("daemon.ckpt");

    let mut cfg = daemon_cfg(2);
    cfg.bind = BindAddr::Unix(sock.clone());
    cfg.checkpoint = Some(ckpt.clone());
    let handle = Daemon::bind(cfg).unwrap().spawn().unwrap();
    let addr = handle.addr().clone();

    // Two clients ingest disjoint halves of the stream concurrently.
    let observations = synth_observations(8);
    let mid = observations.len() / 2;
    let halves = [observations[..mid].to_vec(), observations[mid..].to_vec()];
    let workers: Vec<_> = halves
        .into_iter()
        .map(|half| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                for batch in half.chunks(50) {
                    client
                        .send(&Request::ReportBatch(batch.iter().map(to_wire).collect()))
                        .unwrap();
                }
                match client.request(&Request::Sync).unwrap() {
                    Response::Synced { pushed, .. } => assert_eq!(pushed, half.len() as u64),
                    other => panic!("expected Synced, got {other:?}"),
                }
                client.close();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut client = Client::connect(&addr).unwrap();
    match client.request(&Request::QueryHealth).unwrap() {
        Response::Health { ok, shards, segments, clock_s, .. } => {
            assert!(ok);
            assert_eq!(shards, 2);
            assert_eq!(segments, SEGMENTS as u64);
            assert!(clock_s > 0);
        }
        other => panic!("expected Health, got {other:?}"),
    }
    // The two ingest streams interleave arbitrarily, so the later half
    // may slide the window past some early reports (dropped_late) — the
    // invariant is conservation, not full admission.
    match client.request(&Request::QueryStats).unwrap() {
        Response::Stats { merged, .. } => {
            assert_eq!(
                merged.admitted + merged.dropped_late + merged.rejected + merged.queue_dropped,
                observations.len() as u64,
                "every report must be accounted for"
            );
            assert!(merged.admitted > 0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // Stop via the flag (the CLI's SIGTERM path) rather than Shutdown.
    handle.stop();
    let stats = handle.join().unwrap();
    assert_eq!(stats.connections, 3);

    // The checkpoint restores into a matching engine; the socket file
    // is gone.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    assert!(text.starts_with("cs-serve-shards v1\n"));
    let mut restored = ShardedService::new(serve_cfg(2)).unwrap();
    restored.restore(&text).unwrap();
    let max_ts = observations.iter().map(|o| o.timestamp_s).max().unwrap();
    assert_eq!(restored.clock_s(), max_ts, "checkpoint carries the stream clock");
    assert!(!sock.exists(), "unix socket file must be cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn handshake_violations_get_typed_wire_errors() {
    let handle = Daemon::bind(daemon_cfg(1)).unwrap().spawn().unwrap();

    // First frame is not Hello.
    let mut rude = Client::connect_raw(handle.addr()).unwrap();
    match rude.request(&Request::QueryHealth).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::ExpectedHello),
        other => panic!("expected Error, got {other:?}"),
    }

    // Wrong version.
    let mut wrong = Client::connect_raw(handle.addr()).unwrap();
    match wrong.request(&Request::Hello { version: 999 }).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("expected Error, got {other:?}"),
    }

    // A proper client still works afterwards, and a duplicate Hello is
    // refused without killing the connection.
    let mut good = Client::connect(handle.addr()).unwrap();
    match good.request(&Request::Hello { version: 1 }).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected Error, got {other:?}"),
    }
    match good.request(&Request::QueryEstimate).unwrap() {
        Response::Estimate(None) => {}
        other => panic!("expected empty Estimate, got {other:?}"),
    }

    handle.stop();
    let stats = handle.join().unwrap();
    assert_eq!(stats.connections, 3);
    assert_eq!(stats.protocol_errors, 3);
}
