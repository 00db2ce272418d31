//! The sharded network serve daemon: a long-running `cs-wire/v1` server
//! over TCP or Unix-domain sockets.
//!
//! One **engine thread** owns the [`ShardedService`] and is the only
//! place estimation state mutates, so the wire transport adds zero
//! nondeterminism: a single ordered client driving
//! `ReportBatch…/Sync` over a socket produces bit-for-bit the same
//! estimates and counters as calling `push`/`tick` in process. The
//! **accept loop** polls a nonblocking listener against a shared stop
//! flag, and each connection gets its own handler thread speaking
//! length-prefixed frames ([`proto::frame`]) of typed messages
//! ([`proto::msg`]).
//!
//! # Planes
//!
//! * **Ingest** — [`Request::Report`] / [`Request::ReportBatch`] are
//!   pipelined: no response, the handler forwards them to the engine
//!   and keeps reading. [`Request::Sync`] is the barrier that forces a
//!   tick and reports counters.
//! * **Query** — [`Request::QueryEstimate`] does not go through the
//!   engine. After every tick (a [`Request::Sync`] barrier, the timer
//!   tick, [`Request::Shutdown`] and the final tick) the engine
//!   publishes the merged estimate as a shared snapshot
//!   ([`ShardedService::latest_shared`]), and it does so *before* it
//!   replies [`Response::Synced`]. A connection thread answers an
//!   estimate query by cloning the newest snapshot and encoding it
//!   straight from its `f64` cells, so a query never waits for a tick
//!   in progress: it reads the last published epoch. A client that has
//!   seen `Synced` reads that tick's estimate, on any connection.
//!   [`Request::QueryStats`] and [`Request::QueryHealth`] still
//!   round-trip through the engine, because their answers (queue
//!   length, backpressure drops) change with every push.
//!
//! # Robustness
//!
//! A peer that stalls mid-frame (slow loris) is cut off by the frame
//! deadline: once the first byte of a frame arrives, the rest must
//! follow within [`DaemonConfig::frame_deadline`]. Mid-frame
//! disconnects surface as typed [`FrameError::Truncated`] and only cost
//! that connection. On stop (SIGTERM via the shared flag, or a
//! [`Request::Shutdown`] frame) the daemon drains handler threads,
//! runs a final tick, and writes the checkpoint when configured.

use std::io::{self, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use proto::frame::{write_frame, FrameError, HEADER_LEN, MAX_FRAME_LEN};
use proto::msg::{
    ErrorCode, EstimateHeader, Request, Response, WireReport, WireStats, PROTOCOL, VERSION,
};
use proto::net::{BindAddr, Conn, Listener};

use crate::error::Error;
use crate::service::{LiveEstimate, Observation, ServeConfig, ServeStats};
use crate::sharded::ShardedService;

/// Socket-plane failure the daemon cannot absorb as a counter.
#[derive(Debug)]
pub enum DaemonError {
    /// A socket operation failed; `what` names the phase (`"bind"`,
    /// `"accept"`, `"listener"`).
    Io {
        /// Which operation failed.
        what: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// The engine thread vanished (panicked) — state is gone.
    EngineGone,
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io { what, source } => write!(f, "{what}: {source}"),
            DaemonError::EngineGone => write!(f, "engine thread vanished"),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Io { source, .. } => Some(source),
            DaemonError::EngineGone => None,
        }
    }
}

/// How to run a [`Daemon`]: where to listen and how the engine ticks.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where to listen (`tcp:HOST:PORT` or `unix:/path.sock`).
    pub bind: BindAddr,
    /// The estimation engine's configuration (including the shard plan).
    pub serve: ServeConfig,
    /// Ceiling on a single frame's payload bytes.
    pub max_frame: usize,
    /// How often the engine ticks on its own when reports are queued
    /// but no client forces a [`Request::Sync`] barrier.
    pub tick_interval: Duration,
    /// Slow-loris guard: once a frame's first byte arrives, the whole
    /// frame must arrive within this long or the connection is dropped.
    pub frame_deadline: Duration,
    /// Poll granularity of the accept loop and idle connection reads —
    /// the worst-case latency for noticing the stop flag.
    pub poll_interval: Duration,
    /// Where to write the checkpoint on shutdown (and to warm-restart
    /// from at startup, when the file exists).
    pub checkpoint: Option<PathBuf>,
}

impl DaemonConfig {
    /// A config with conventional timing defaults.
    pub fn new(bind: BindAddr, serve: ServeConfig) -> Self {
        Self {
            bind,
            serve,
            max_frame: MAX_FRAME_LEN,
            tick_interval: Duration::from_millis(250),
            frame_deadline: Duration::from_secs(2),
            poll_interval: Duration::from_millis(20),
            checkpoint: None,
        }
    }
}

/// Transport-plane counters a finished daemon reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonStats {
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Complete frames read across all connections.
    pub frames: u64,
    /// Probe reports received on the ingest plane.
    pub reports: u64,
    /// Protocol violations (handshake faults, undecodable payloads,
    /// truncated frames, slow-loris cutoffs). Each costs at most its
    /// own connection.
    pub protocol_errors: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    frames: AtomicU64,
    reports: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> DaemonStats {
        DaemonStats {
            connections: self.connections.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            reports: self.reports.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// Commands connection handlers forward to the engine thread.
enum Cmd {
    Push(Vec<WireReport>),
    Stats(mpsc::Sender<Response>),
    Health(mpsc::Sender<Response>),
    Sync { pushed: u64, reply: mpsc::Sender<Response> },
    Shutdown { reply: mpsc::Sender<Response> },
}

fn wire_stats(s: &ServeStats) -> WireStats {
    WireStats {
        admitted: s.admitted,
        rejected: s.rejected,
        dropped_late: s.dropped_late,
        duplicates: s.duplicates,
        queue_dropped: s.queue_dropped,
        solves: s.solves,
        degraded: s.degraded,
    }
}

/// The slot holding the engine's newest published estimate.
type Published = Mutex<Option<Arc<LiveEstimate>>>;

/// Locks the slot. It only ever holds a whole `Option<Arc<_>>`, so a
/// panic elsewhere cannot leave it half written and poison is ignored.
fn lock(slot: &Published) -> MutexGuard<'_, Option<Arc<LiveEstimate>>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes the engine's merged estimate. The snapshot it replaces is
/// released after the lock, so no reader waits on that drop.
fn publish(slot: &Published, service: &ShardedService) {
    let replaced = std::mem::replace(&mut *lock(slot), service.latest_shared());
    drop(replaced);
}

/// The `Estimate` payload for a snapshot, encoded straight from the
/// merged matrix's cells. The snapshot is released when this returns,
/// so a slow reader holds its encoded bytes, not the estimate.
fn snapshot_payload(snapshot: Option<Arc<LiveEstimate>>) -> Vec<u8> {
    let Some(e) = snapshot else {
        return Response::Estimate(None).encode();
    };
    let (rows, cols) = e.estimate.shape();
    let header = EstimateHeader {
        head_slot: e.head_slot as u64,
        solved_at_s: e.solved_at_s,
        stale: e.stale,
        sweeps: e.sweeps as u64,
        objective_bits: e.objective.to_bits(),
        rows: rows as u32,
        cols: cols as u32,
    };
    Response::encode_estimate(&header, e.estimate.as_slice())
}

fn to_observation(r: WireReport) -> Observation {
    Observation {
        vehicle: r.vehicle,
        timestamp_s: r.timestamp_s,
        // A segment index beyond usize is out of every range: saturate
        // so the admission rules reject it instead of wrapping it into
        // a valid column.
        segment: usize::try_from(r.segment).unwrap_or(usize::MAX),
        speed_kmh: r.speed_kmh(),
    }
}

fn daemon_io(what: &'static str) -> impl FnOnce(io::Error) -> Error {
    move |source| DaemonError::Io { what, source }.into()
}

/// A bound, not-yet-running daemon. Binding is separate from running so
/// callers learn the real address (ephemeral TCP ports) and see config
/// errors before any thread exists.
pub struct Daemon {
    config: DaemonConfig,
    listener: Listener,
    addr: BindAddr,
    service: ShardedService,
}

/// A daemon running on a background thread.
pub struct DaemonHandle {
    addr: BindAddr,
    stop: Arc<AtomicBool>,
    join: thread::JoinHandle<Result<DaemonStats, Error>>,
}

impl DaemonHandle {
    /// The address clients should dial.
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Requests a graceful stop (idempotent; also set by
    /// [`Request::Shutdown`] and, in the CLI, by SIGTERM).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// The shared stop flag, for wiring external signals.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Waits for the daemon to finish and returns its transport counters.
    ///
    /// # Errors
    ///
    /// Whatever [`Daemon::run`] reports.
    pub fn join(self) -> Result<DaemonStats, Error> {
        self.join.join().map_err(|_| Error::from(DaemonError::EngineGone))?
    }
}

impl Daemon {
    /// Validates the serve config, builds the engine (restoring the
    /// checkpoint when one exists), and binds the listener.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] on a bad serve config, [`Error::Serve`] on an
    /// unreadable checkpoint, [`DaemonError::Io`] on a failed bind.
    pub fn bind(config: DaemonConfig) -> Result<Self, Error> {
        let mut service = ShardedService::new(config.serve.clone())?;
        if let Some(path) = &config.checkpoint {
            if path.exists() {
                service.load_checkpoint(path)?;
            }
        }
        let listener = Listener::bind(&config.bind).map_err(daemon_io("bind"))?;
        let addr = listener.bound_addr().map_err(daemon_io("bind"))?;
        Ok(Self { config, listener, addr, service })
    }

    /// The address clients should dial — for `tcp:…:0` binds this
    /// carries the kernel-assigned port.
    pub fn local_addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Runs until `stop` goes true (or a fatal listener error), then
    /// drains connections, ticks once more, writes the checkpoint when
    /// configured, and returns the transport counters.
    ///
    /// # Errors
    ///
    /// [`DaemonError`] on socket-plane failures, [`Error::Serve`] if
    /// the shutdown checkpoint cannot be written.
    pub fn run(self, stop: Arc<AtomicBool>) -> Result<DaemonStats, Error> {
        let Daemon { config, listener, addr, service } = self;
        listener.set_nonblocking(true).map_err(daemon_io("listener"))?;
        let counters = Arc::new(Counters::default());
        let published: Arc<Published> = Arc::new(Mutex::new(service.latest_shared()));
        let (tx, rx) = mpsc::channel::<Cmd>();

        let (tick_interval, checkpoint) = (config.tick_interval, config.checkpoint.clone());
        let engine_slot = published.clone();
        let engine = thread::Builder::new()
            .name("cs-daemon-engine".into())
            .spawn(move || engine_loop(service, rx, tick_interval, checkpoint, &engine_slot))
            .map_err(daemon_io("engine spawn"))?;

        let mut fatal: Option<Error> = None;
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(conn) => {
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    let tx = tx.clone();
                    let published = published.clone();
                    let counters = counters.clone();
                    let stop = stop.clone();
                    let tuning = ConnTuning {
                        max_frame: config.max_frame,
                        frame_deadline: config.frame_deadline,
                        poll: config.poll_interval,
                    };
                    match thread::Builder::new()
                        .name("cs-daemon-conn".into())
                        .spawn(move || serve_conn(conn, tx, &published, counters, stop, tuning))
                    {
                        Ok(handle) => handlers.push(handle),
                        Err(e) => {
                            fatal = Some(daemon_io("conn spawn")(e));
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(config.poll_interval);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    fatal = Some(daemon_io("accept")(e));
                    break;
                }
            }
            handlers.retain(|h| !h.is_finished());
        }

        // Shutdown: stop accepting, let handlers notice the flag on
        // their next poll, then starve the engine of senders so it runs
        // its final tick + checkpoint.
        stop.store(true, Ordering::Relaxed);
        drop(listener);
        drop(tx);
        for handle in handlers {
            let _ = handle.join();
        }
        let engine_result = engine.join().map_err(|_| Error::from(DaemonError::EngineGone))?;
        if let BindAddr::Unix(path) = &addr {
            let _ = std::fs::remove_file(path);
        }
        if let Some(err) = fatal {
            return Err(err);
        }
        engine_result?;
        Ok(counters.snapshot())
    }

    /// Runs on a background thread with a fresh stop flag.
    pub fn spawn(self) -> io::Result<DaemonHandle> {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.addr.clone();
        let run_stop = stop.clone();
        let join =
            thread::Builder::new().name("cs-daemon".into()).spawn(move || self.run(run_stop))?;
        Ok(DaemonHandle { addr, stop, join })
    }
}

/// The engine loop: the only thread that touches the [`ShardedService`].
/// It publishes the merged estimate to `published` after every tick.
fn engine_loop(
    mut service: ShardedService,
    rx: mpsc::Receiver<Cmd>,
    tick_interval: Duration,
    checkpoint: Option<PathBuf>,
    published: &Published,
) -> Result<(), Error> {
    loop {
        match rx.recv_timeout(tick_interval) {
            Ok(Cmd::Push(batch)) => {
                for report in batch {
                    // Backpressure refusals are counted by the service
                    // itself (`queue_dropped`); nothing to do here.
                    let _ = service.push(to_observation(report));
                }
            }
            Ok(Cmd::Stats(reply)) => {
                let _ = reply.send(Response::Stats {
                    merged: wire_stats(&service.stats()),
                    shards: service.stats_per_shard().iter().map(wire_stats).collect(),
                });
            }
            Ok(Cmd::Health(reply)) => {
                let _ = reply.send(Response::Health {
                    ok: true,
                    shards: service.shard_count() as u32,
                    segments: service.config().num_segments as u64,
                    queue_len: service.queue_len() as u64,
                    clock_s: service.clock_s(),
                });
            }
            Ok(Cmd::Sync { pushed, reply }) => {
                let report = service.tick();
                // Publish before the reply: a client that has seen
                // `Synced` reads this tick's estimate on any connection.
                publish(published, &service);
                let _ = reply.send(Response::Synced {
                    pushed,
                    tick_us: report.tick_us,
                    solve_us: report.solve_us,
                    stats: wire_stats(&service.stats()),
                });
            }
            Ok(Cmd::Shutdown { reply }) => {
                // Fold everything this client pushed into the state the
                // checkpoint will capture, then acknowledge.
                service.tick();
                publish(published, &service);
                let _ = reply.send(Response::Bye);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if service.queue_len() > 0 {
                    service.tick();
                    publish(published, &service);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    service.tick();
    publish(published, &service);
    if let Some(path) = &checkpoint {
        service.save_checkpoint(path)?;
    }
    Ok(())
}

#[derive(Clone, Copy)]
struct ConnTuning {
    max_frame: usize,
    frame_deadline: Duration,
    poll: Duration,
}

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Reads the rest of a frame piece under the frame deadline, polling so
/// the stop flag is honored even mid-frame.
fn read_exact_deadline(
    conn: &mut Conn,
    buf: &mut [u8],
    stop: &AtomicBool,
    deadline: Instant,
) -> Result<(), FrameError> {
    let need = buf.len();
    let mut filled = 0;
    while filled < need {
        if stop.load(Ordering::Relaxed) {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "daemon stopping mid-frame",
            )));
        }
        if Instant::now() >= deadline {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame deadline exceeded (slow peer)",
            )));
        }
        match conn.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated { need, have: filled }),
            Ok(n) => filled += n,
            Err(e) if is_poll_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Server-side frame read: waits indefinitely for a frame to *start*
/// (idle connections are legal) but demands the whole frame within the
/// deadline once its first byte arrives — the slow-loris guard.
fn read_frame_polled(
    conn: &mut Conn,
    stop: &AtomicBool,
    t: ConnTuning,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let got = loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(None);
        }
        match conn.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(n) => break n,
            Err(e) if is_poll_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    };
    let deadline = Instant::now() + t.frame_deadline;
    read_exact_deadline(conn, &mut header[got..], stop, deadline)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > t.max_frame {
        return Err(FrameError::TooLarge { len, max: t.max_frame });
    }
    let mut payload = vec![0u8; len];
    read_exact_deadline(conn, &mut payload, stop, deadline)?;
    Ok(Some(payload))
}

/// One connection's lifetime: handshake, then the request loop.
fn serve_conn(
    mut conn: Conn,
    tx: mpsc::Sender<Cmd>,
    published: &Published,
    counters: Arc<Counters>,
    stop: Arc<AtomicBool>,
    t: ConnTuning,
) {
    let _ = conn.set_read_timeout(Some(t.poll));
    let violation = |resp: Response| {
        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        resp
    };

    // Handshake: the first frame must be a compatible Hello.
    let payload = match read_frame_polled(&mut conn, &stop, t) {
        Ok(Some(p)) => p,
        Ok(None) => return,
        Err(_) => {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    counters.frames.fetch_add(1, Ordering::Relaxed);
    match Request::decode(&payload) {
        Ok(Request::Hello { version }) if version == VERSION => {
            if write_frame(&mut conn, &Response::Hello { version: VERSION }.encode()).is_err() {
                return;
            }
        }
        Ok(Request::Hello { version }) => {
            let resp = violation(Response::Error {
                code: ErrorCode::UnsupportedVersion,
                message: format!("server speaks {PROTOCOL} (v{VERSION}), client sent v{version}"),
            });
            let _ = write_frame(&mut conn, &resp.encode());
            return;
        }
        Ok(other) => {
            let resp = violation(Response::Error {
                code: ErrorCode::ExpectedHello,
                message: format!("first frame must be Hello, got {other:?}"),
            });
            let _ = write_frame(&mut conn, &resp.encode());
            return;
        }
        Err(e) => {
            let resp = violation(Response::Error {
                code: ErrorCode::ExpectedHello,
                message: format!("first frame did not decode: {e}"),
            });
            let _ = write_frame(&mut conn, &resp.encode());
            return;
        }
    }

    // A query round-trip through the engine; false means the
    // connection (or the engine) is gone and the handler should exit.
    let round_trip = |conn: &mut Conn, make: &dyn Fn(mpsc::Sender<Response>) -> Cmd| -> bool {
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx.send(make(reply_tx)).is_err() {
            let resp = Response::Error {
                code: ErrorCode::Internal,
                message: "engine is shutting down".into(),
            };
            let _ = write_frame(conn, &resp.encode());
            return false;
        }
        match reply_rx.recv() {
            Ok(resp) => write_frame(conn, &resp.encode()).is_ok(),
            Err(_) => false,
        }
    };

    let mut pushed: u64 = 0;
    loop {
        let payload = match read_frame_polled(&mut conn, &stop, t) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(_) => {
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        counters.frames.fetch_add(1, Ordering::Relaxed);
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // Frame boundaries are intact, so the stream has not
                // desynced: answer the violation and keep serving.
                let resp = violation(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("request did not decode: {e}"),
                });
                if write_frame(&mut conn, &resp.encode()).is_err() {
                    return;
                }
                continue;
            }
        };
        match request {
            Request::Hello { .. } => {
                let resp = violation(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "handshake already done".into(),
                });
                if write_frame(&mut conn, &resp.encode()).is_err() {
                    return;
                }
            }
            Request::Report(report) => {
                pushed += 1;
                counters.reports.fetch_add(1, Ordering::Relaxed);
                if tx.send(Cmd::Push(vec![report])).is_err() {
                    return;
                }
            }
            Request::ReportBatch(reports) => {
                pushed += reports.len() as u64;
                counters.reports.fetch_add(reports.len() as u64, Ordering::Relaxed);
                if tx.send(Cmd::Push(reports)).is_err() {
                    return;
                }
            }
            Request::QueryEstimate => {
                // Clone the snapshot under the lock, encode outside it.
                let snapshot = lock(published).clone();
                if write_frame(&mut conn, &snapshot_payload(snapshot)).is_err() {
                    return;
                }
            }
            Request::QueryStats => {
                if !round_trip(&mut conn, &Cmd::Stats) {
                    return;
                }
            }
            Request::QueryHealth => {
                if !round_trip(&mut conn, &Cmd::Health) {
                    return;
                }
            }
            Request::Sync => {
                let since = std::mem::take(&mut pushed);
                if !round_trip(&mut conn, &move |reply| Cmd::Sync { pushed: since, reply }) {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = round_trip(&mut conn, &|reply| Cmd::Shutdown { reply });
                stop.store(true, Ordering::Relaxed);
                return;
            }
        }
    }
}
