//! The accept loop, bounded admission queue, worker pool, and graceful
//! drain.
//!
//! Overload safety is enforced *before* work happens, in two layers:
//!
//! 1. **Queue-depth shedding** — the admission queue holds at most
//!    `queue_cap` connections; the accept loop answers `429` inline for
//!    anything beyond it (`serve.sheds`).
//! 2. **In-flight byte budget** — after a worker reads a request head+body
//!    it charges the body against `max_inflight_bytes`; over budget the
//!    request is shed with `429` before dispatch.
//!
//! Drain (SIGTERM, SIGINT, or `POST /admin/shutdown`) closes the listener
//! immediately, lets workers finish whatever is queued — requests whose
//! deadline expired while queued answer `504`, they are not silently
//! dropped — and then returns so the caller can flush telemetry sinks and
//! exit 0.
//!
//! The accept loop blocks in `accept`, so a connection is queued the moment
//! it arrives. Polling a non-blocking listener instead would make every
//! request wait for the next tick — for a closed-loop client by an amount
//! set by how long its *previous* request took, modulo the tick, which
//! couples the latency of one route to the speed of another. What polls is
//! the wait for a drain request, on its own thread ([`DRAIN_POLL`]); it ends
//! the blocked `accept` by connecting to the listener once.

use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use kgtosa_obs::httpd::{read_request, write_response, HttpResponse, RequestError, MAX_HEAD_BYTES};

use crate::handlers::handle_guarded;
use crate::signal;
use crate::state::ServeState;

/// What the daemon did over its lifetime, reported after drain completes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainReport {
    /// Requests dispatched through a handler (any status).
    pub served: u64,
    /// Connections/requests shed with `429` by admission control.
    pub sheds: u64,
    /// Handler panics caught and converted to `500`.
    pub handler_panics: u64,
    /// Requests answered `504` after their budget ran out.
    pub deadline_expired: u64,
}

type Queue = Arc<(Mutex<VecDeque<(TcpStream, Instant)>>, Condvar)>;
type ShedQueue = Arc<(Mutex<VecDeque<TcpStream>>, Condvar)>;

/// Beyond this many connections waiting for their `429`, further shed
/// connections are dropped without a response (extreme-flood backstop).
const SHED_BACKLOG_CAP: usize = 256;
/// Bytes of a refused (`413`) request's body a worker discards before it
/// closes the connection.
const DRAIN_CAP: u64 = 1 << 20;
/// How often the drain watcher looks for a drain request.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// A bound-but-not-yet-running daemon.
pub struct Server {
    state: Arc<ServeState>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Binds the configured address (port `0` picks a free port — read it
    /// back via [`Server::addr`]).
    pub fn bind(state: Arc<ServeState>) -> io::Result<Self> {
        let listener = TcpListener::bind(&state.cfg.addr)?;
        let addr = listener.local_addr()?;
        Ok(Self { state, listener, addr })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared daemon state.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Runs accept → queue → workers until drain, then joins the pool and
    /// reports. Counter deltas are measured against entry so concurrent
    /// servers in one process (tests) do not read each other's totals.
    pub fn run(self) -> io::Result<DrainReport> {
        let Server { state, listener, addr } = self;
        signal::install();

        let requests = kgtosa_obs::counter("serve.requests");
        let sheds = kgtosa_obs::counter("serve.sheds");
        let panics = kgtosa_obs::counter("serve.handler_panics");
        let expired = kgtosa_obs::counter("serve.deadline_expired");
        let depth_gauge = kgtosa_obs::gauge("serve.queue_depth");
        let (served0, sheds0, panics0, expired0) =
            (requests.get(), sheds.get(), panics.get(), expired.get());

        let queue: Queue = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
        let shed_queue: ShedQueue = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
        let shedder = {
            let state = Arc::clone(&state);
            let shed_queue = Arc::clone(&shed_queue);
            std::thread::Builder::new()
                .name("serve-shedder".into())
                .spawn(move || shedder_loop(state, shed_queue))
                .expect("spawn serve shedder")
        };
        let workers: Vec<_> = (0..state.cfg.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(state, queue))
                    .expect("spawn serve worker")
            })
            .collect();

        kgtosa_obs::info!(
            "serve: listening on {addr} ({} workers, queue cap {}, inflight budget {} B)",
            state.cfg.workers.max(1),
            state.cfg.queue_cap,
            state.cfg.max_inflight_bytes
        );

        let watcher = {
            let state = Arc::clone(&state);
            // A wildcard bind is reached through loopback.
            let mut knock = addr;
            if knock.ip().is_unspecified() {
                knock.set_ip(match knock {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            std::thread::Builder::new()
                .name("serve-drain-watcher".into())
                .spawn(move || {
                    while !(signal::triggered() || state.draining.load(Ordering::SeqCst)) {
                        std::thread::sleep(DRAIN_POLL);
                    }
                    state.draining.store(true, Ordering::SeqCst);
                    // Any connection ends the blocked `accept`; the loop
                    // sees `draining` and leaves. Refused means it already
                    // has, and closed the listener.
                    match TcpStream::connect_timeout(&knock, Duration::from_secs(1)) {
                        Err(e) if e.kind() != io::ErrorKind::ConnectionRefused => {
                            kgtosa_obs::info!("serve: cannot wake the accept loop for drain: {e}")
                        }
                        _ => {}
                    }
                })
                .expect("spawn serve drain watcher")
        };

        while !state.draining.load(Ordering::SeqCst) {
            match listener.accept() {
                // The watcher's knock, or a client that arrived after the
                // drain request: no new admissions.
                Ok(_) if state.draining.load(Ordering::SeqCst) => break,
                Ok((stream, _peer)) => {
                    let (lock, cvar) = &*queue;
                    let mut q = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    if q.len() >= state.cfg.queue_cap {
                        drop(q);
                        sheds.inc();
                        // O(1) handoff: the shedder thread reads the
                        // request (avoiding a reset racing the response)
                        // and answers 429 off the accept path.
                        let (slock, scvar) = &*shed_queue;
                        let mut sq = slock.lock().unwrap_or_else(PoisonError::into_inner);
                        if sq.len() < SHED_BACKLOG_CAP {
                            sq.push_back(stream);
                            drop(sq);
                            scvar.notify_one();
                        }
                    } else {
                        q.push_back((stream, Instant::now()));
                        depth_gauge.set(q.len() as i64);
                        drop(q);
                        cvar.notify_one();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    kgtosa_obs::info!("serve: accept error: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }

        // Stop taking connections *now*; queued work still drains below.
        drop(listener);
        let queued = queue.0.lock().unwrap_or_else(PoisonError::into_inner).len();
        kgtosa_obs::info!("serve: draining ({} queued)", queued);
        queue.1.notify_all();
        shed_queue.1.notify_all();
        for w in workers {
            let _ = w.join();
        }
        let _ = shedder.join();
        let _ = watcher.join();
        depth_gauge.set(0);

        let report = DrainReport {
            served: requests.get() - served0,
            sheds: sheds.get() - sheds0,
            handler_panics: panics.get() - panics0,
            deadline_expired: expired.get() - expired0,
        };
        kgtosa_obs::info!(
            "serve: drained — {} served, {} shed, {} panics caught, {} deadline-expired",
            report.served,
            report.sheds,
            report.handler_panics,
            report.deadline_expired
        );
        Ok(report)
    }
}

fn worker_loop(state: Arc<ServeState>, queue: Queue) {
    let (lock, cvar) = &*queue;
    loop {
        let job = {
            let mut q = lock.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = q.pop_front() {
                    kgtosa_obs::gauge("serve.queue_depth").set(q.len() as i64);
                    break Some(job);
                }
                if state.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = cvar
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        match job {
            Some((stream, admitted)) => handle_stream(&state, stream, admitted),
            None => return,
        }
    }
}

/// One connection: read, charge the byte budget, dispatch, respond.
fn handle_stream(state: &ServeState, mut stream: TcpStream, admitted: Instant) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let req = match read_request(&mut stream, MAX_HEAD_BYTES, state.cfg.max_body_bytes) {
        Ok(req) => req,
        Err(RequestError::TooLarge) => {
            let _ = write_response(&mut stream, &HttpResponse::error(413, "request too large"));
            // The body was never read, and closing a socket with unread
            // data resets the connection — which can take the reply just
            // written with it. Half-close, then discard what the peer
            // still sends (bounded by `DRAIN_CAP` and the read timeout).
            let _ = stream.shutdown(Shutdown::Write);
            let _ = io::copy(&mut io::Read::take(&mut stream, DRAIN_CAP), &mut io::sink());
            return;
        }
        Err(RequestError::Malformed(m)) => {
            let _ = write_response(&mut stream, &HttpResponse::error(400, format!("malformed request: {m}")));
            return;
        }
        // Peer vanished or socket error — nobody is listening for a reply.
        Err(RequestError::Closed) | Err(RequestError::Io(_)) => return,
    };

    let bytes = req.body.len();
    let now_inflight = state.inflight_bytes.fetch_add(bytes, Ordering::SeqCst) + bytes;
    kgtosa_obs::gauge("serve.inflight_bytes").set(now_inflight as i64);
    let response = if now_inflight > state.cfg.max_inflight_bytes {
        kgtosa_obs::counter("serve.sheds").inc();
        HttpResponse::error(429, "in-flight byte budget exceeded")
    } else {
        let resp = handle_guarded(state, &req, admitted);
        kgtosa_obs::counter("serve.requests").inc();
        resp
    };
    let after = state.inflight_bytes.fetch_sub(bytes, Ordering::SeqCst) - bytes;
    kgtosa_obs::gauge("serve.inflight_bytes").set(after as i64);
    let _ = write_response(&mut stream, &response);
}

/// Drains shed connections: reads the request (so closing the socket
/// after the reply does not reset it mid-flight) and answers `429`.
/// Runs on its own thread so the accept loop stays O(1) under flood.
fn shedder_loop(state: Arc<ServeState>, queue: ShedQueue) {
    let (lock, cvar) = &*queue;
    loop {
        let stream = {
            let mut q = lock.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if state.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = cvar
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        let Some(mut stream) = stream else { return };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = read_request(&mut stream, MAX_HEAD_BYTES, state.cfg.max_body_bytes);
        let _ = write_response(
            &mut stream,
            &HttpResponse::error(429, "admission queue full"),
        );
    }
}
