//! The `http-conn` workload: a closed loop over two in-memory
//! connections, each with a pipelined window. GETs of published pages
//! (served outside any domain) run beside chunked uploads (decoded
//! inside the client's domain), so per-KiB copy and framing costs
//! dominate. The client parks on the connections' readiness callbacks.
//!
//! The two connections are attached with `Runtime::attach` under client
//! ids picked so they land on different shards: `ConnectionServer`
//! numbers clients by accept order, and ids 1 and 2 hash to the same
//! shard of a 2-worker runtime, which would measure a single worker.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_net::{duplex, Endpoint};
use sdrad_runtime::{
    HttpHandler, IsolationMode, LatencyHistogram, Runtime, RuntimeConfig, RuntimeStats,
};

use crate::gen::{page_path, site, HttpGen, HttpKind, HttpOp};
use crate::kv::{ANSWER_TIMEOUT, WORKERS};
use crate::report::{Books, Tally};

/// Pipelined requests in flight per connection.
const DEPTH: usize = 8;

/// One request awaiting its response on a connection.
struct InFlight {
    id: u64,
    kind: HttpKind,
    write: (Instant, Instant),
}

/// The client end of one connection.
struct Conn {
    end: Endpoint,
    inflight: VecDeque<InFlight>,
    buf: Vec<u8>,
    /// Bytes of `buf` already parsed.
    cursor: usize,
}

/// A parsed response: status code and body range in the buffer.
struct Parsed {
    status: u16,
    body: std::ops::Range<usize>,
    consumed: usize,
}

/// Parses one complete response off the head of `buf`.
fn parse_response(buf: &[u8]) -> Result<Option<Parsed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("no Content-Length in {head:?}"))?;
    let body = head_end + 4..head_end + 4 + length;
    if buf.len() < body.end {
        return Ok(None);
    }
    Ok(Some(Parsed {
        status,
        consumed: body.end,
        body,
    }))
}

/// A running http-conn workload.
pub struct HttpRun {
    rt: Runtime,
    conns: Vec<Conn>,
    gen: HttpGen,
    pages: Arc<Vec<(String, Vec<u8>)>>,
    next_id: u64,
}

impl HttpRun {
    /// Starts the isolated runtime with the site published on every
    /// worker, attaches both connections, and returns once each has
    /// been answered once, with the time that took.
    #[must_use]
    pub fn setup(seed: u64) -> (HttpRun, Duration) {
        let pages = Arc::new(site(seed));
        let started = Instant::now();
        let published = Arc::clone(&pages);
        let rt = Runtime::start(
            RuntimeConfig::new(WORKERS, IsolationMode::PerClientDomain),
            move |_| {
                let mut handler = HttpHandler::new();
                for (path, body) in published.iter() {
                    handler.publish(path.clone(), "application/octet-stream", body.clone());
                }
                handler
            },
        );
        let conns = (0..WORKERS)
            .map(|shard| {
                let client = (1..)
                    .map(ClientId)
                    .find(|&client| rt.shard_of(client) == shard)
                    .expect("some id hashes to every shard");
                let (end, server_end) = duplex();
                rt.attach(client, server_end);
                Conn {
                    end,
                    inflight: VecDeque::new(),
                    buf: Vec::new(),
                    cursor: 0,
                }
            })
            .collect();
        let mut run = HttpRun {
            rt,
            conns,
            gen: HttpGen::new(seed),
            pages,
            next_id: 0,
        };
        run.wake_this_thread();
        let mut warm = Books::new(false);
        for conn in 0..run.conns.len() {
            let op = HttpOp {
                kind: HttpKind::Get { page: 0 },
                payload: format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", page_path(0))
                    .into_bytes(),
            };
            run.write(conn, op, &mut warm);
        }
        run.collect_all(&mut warm);
        assert!(warm.tally.failed == 0, "set-up requests answered correctly");
        (run, started.elapsed())
    }

    /// Runs the closed loop for `length`, then collects every response
    /// still in flight.
    pub fn phase(&mut self, length: Duration, books: &mut Books) {
        self.wake_this_thread();
        books.begin();
        let until = Instant::now() + length;
        while Instant::now() < until {
            for conn in 0..self.conns.len() {
                while self.conns[conn].inflight.len() < DEPTH {
                    let op = self.gen.next_op();
                    self.write(conn, op, books);
                }
            }
            self.collect(books);
            books.tick();
        }
        self.collect_all(books);
        books.end();
    }

    /// Points both connections' readiness callbacks at the calling
    /// thread, the one that parks to collect responses.
    fn wake_this_thread(&mut self) {
        for conn in &mut self.conns {
            let waker = std::thread::current();
            conn.end
                .set_ready_callback(Arc::new(move || waker.unpark()));
        }
    }

    /// Recovery as a client sees it on an idle runtime: `count` exploit
    /// uploads, one at a time, alternating connections.
    pub fn probe(&mut self, count: u64, tally: &mut Tally) -> LatencyHistogram {
        self.wake_this_thread();
        let mut books = Books::new(false);
        for n in 0..count {
            let op = self.gen.exploit();
            self.write(n as usize % self.conns.len(), op, &mut books);
            self.collect_all(&mut books);
        }
        tally.absorb(&books.tally);
        books.attack
    }

    fn write(&mut self, conn: usize, op: HttpOp, books: &mut Books) {
        books.tally.attempted += 1;
        if op.kind == HttpKind::Exploit {
            books.tally.exploits += 1;
        }
        let t0 = Instant::now();
        self.conns[conn].end.write(&op.payload);
        let t1 = Instant::now();
        books.handoff(t0, t1);
        self.conns[conn].inflight.push_back(InFlight {
            id: self.next_id,
            kind: op.kind,
            write: (t0, t1),
        });
        self.next_id += 1;
    }

    fn collect_all(&mut self, books: &mut Books) {
        while self.conns.iter().any(|conn| !conn.inflight.is_empty()) {
            if !self.collect(books) {
                break;
            }
        }
    }

    /// Reads and checks every complete response; parks on the readiness
    /// callbacks while none has arrived. Returns false when a response
    /// is overdue: everything still in flight is then booked as timed
    /// out.
    fn collect(&mut self, books: &mut Books) -> bool {
        let deadline = Instant::now() + ANSWER_TIMEOUT;
        loop {
            let mut progressed = false;
            for conn in 0..self.conns.len() {
                progressed |= self.read(conn, books);
            }
            books.sample_pending(|| self.rt.pending());
            if progressed {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                for conn in &mut self.conns {
                    for _ in conn.inflight.drain(..) {
                        books.tally.timeouts += 1;
                        books.tally.fail(false, "no response");
                    }
                }
                return false;
            }
            std::thread::park_timeout(deadline - now);
        }
    }

    /// Consumes every complete response buffered on `conn`.
    fn read(&mut self, conn: usize, books: &mut Books) -> bool {
        let Conn {
            end,
            inflight,
            buf,
            cursor,
        } = &mut self.conns[conn];
        if end.read_available_into(buf) == 0 {
            return false;
        }
        let now = Instant::now();
        loop {
            let parsed = match parse_response(&buf[*cursor..]) {
                Ok(Some(parsed)) => parsed,
                Ok(None) => break,
                Err(what) => {
                    books.tally.fail(true, &what);
                    buf.clear();
                    *cursor = 0;
                    break;
                }
            };
            let Some(done) = inflight.pop_front() else {
                books.tally.fail(true, "response without a request");
                break;
            };
            books.count_answer();
            let body = &buf[*cursor..][parsed.body.clone()];
            let ok = match done.kind {
                HttpKind::Get { page } => parsed.status == 200 && body == self.pages[page].1,
                HttpKind::Upload { decoded } => {
                    parsed.status == 201 && body == format!("{decoded} bytes").as_bytes()
                }
                HttpKind::Exploit => parsed.status == 400 && body.starts_with(b"contained:"),
            };
            *cursor += parsed.consumed;
            if !ok {
                books
                    .tally
                    .fail(true, &format!("{:?} answered {}", done.kind, parsed.status));
                continue;
            }
            books.answered(now - done.write.0, done.kind == HttpKind::Exploit);
            if let Some(spans) = &mut books.spans {
                spans.request(done.id, "frame", (done.write.0, now), "write", done.write);
            }
        }
        if *cursor > 0 && *cursor * 2 >= buf.len() {
            buf.drain(..*cursor);
            *cursor = 0;
        }
        true
    }

    /// Closes both connections, drains and stops the runtime.
    #[must_use]
    pub fn finish(mut self) -> RuntimeStats {
        for conn in &mut self.conns {
            conn.end.close();
        }
        self.rt.shutdown()
    }
}
