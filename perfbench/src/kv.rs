//! The kv workloads, driven through `Runtime::submit` from one thread.
//!
//! * `kv-paced` — an open loop at a fixed rate, about a tenth of
//!   capacity: workers park and wake around almost every request, so
//!   the wake path and the fixed per-request isolation costs set CPU
//!   per request. Each request is timed from its due time.
//! * `kv-hostile` — a closed loop with 32 outstanding requests and 5%
//!   exploits from rotating offenders, with the control plane on:
//!   rewinds, pool rebuilds and admission decisions keep happening for
//!   the whole run. The client parks on the oldest ticket and then
//!   collects every other answer that has arrived.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_runtime::{
    Completion, ControlConfig, Disposition, IsolationMode, KvHandler, LatencyHistogram, Runtime,
    RuntimeConfig, RuntimeStats, SubmitOutcome, Ticket,
};

use crate::gen::{exploit_payload, fnv64, kv_key, KvGen, KvKind, Rng, KV_SLOTS};
use crate::report::{Books, Tally};

/// Worker count: one per core of the 2-core host the benchmark is sized
/// for.
pub const WORKERS: usize = 2;
/// The open loop's rate, req/s: about 10% of the closed-loop capacity.
const PACED_RATE: u32 = 20_000;
/// Outstanding requests of the closed loop.
const WINDOW: usize = 32;
/// How long the client waits for one answer before booking a timeout.
pub const ANSWER_TIMEOUT: Duration = Duration::from_secs(2);
/// Set-up requests come from ids above every generated benign id.
const WARM_BASE: u64 = 1 << 20;
/// Recovery-probe clients: a few ids of their own.
const PROBE_BASE: u64 = 1 << 24;
const PROBE_CLIENTS: u64 = 16;
/// Seeds the probe stream apart from the load stream.
pub const PROBE_SALT: u64 = 0x9B0B_E000_0000_0000;

/// What the oracle expects back for one request.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Miss,
    Value { slot: usize, len: usize, hash: u64 },
    Stored,
    Contained,
}

/// The oracle: whether `completion` is the answer `expect` allows.
fn check(completion: &Completion, expect: Expect) -> Result<(), String> {
    let response: &[u8] = &completion.response;
    let ok = match expect {
        Expect::Miss => completion.disposition == Disposition::Ok && response == b"END\r\n",
        Expect::Stored => completion.disposition == Disposition::Ok && response == b"STORED\r\n",
        Expect::Value { slot, len, hash } => {
            let head = format!("VALUE {} {len}\r\n", kv_key(slot));
            completion.disposition == Disposition::Ok
                && response.len() == head.len() + len + 7
                && response.starts_with(head.as_bytes())
                && response.ends_with(b"\r\nEND\r\n")
                && fnv64(&response[head.len()..head.len() + len]) == hash
        }
        Expect::Contained => {
            matches!(completion.disposition, Disposition::ContainedFault { .. })
                && response.starts_with(b"SERVER_ERROR contained")
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "expected {expect:?}, got {:?} {:?}",
            completion.disposition,
            String::from_utf8_lossy(&response[..response.len().min(80)])
        ))
    }
}

/// One request awaiting its answer.
struct Pending {
    ticket: Ticket,
    id: u64,
    /// When the request's latency starts: its due time (open loop) or
    /// its submit (closed loop).
    start: Instant,
    submit: (Instant, Instant),
    expect: Expect,
}

/// A running kv workload: the runtime, the generator and the oracle's
/// model of every key.
pub struct KvRun {
    rt: Runtime,
    gen: KvGen,
    /// Last accepted set per oracle slot: value length and fingerprint.
    model: Vec<Option<(usize, u64)>>,
    next_id: u64,
    hostile: bool,
    /// The recovery probe's exploits: a stream of their own.
    probe_rng: Rng,
    /// The control plane's refusal count at the last shed, which tells
    /// an admission refusal from a backpressure shed.
    refused_seen: u64,
}

impl KvRun {
    /// Starts the isolated runtime (control plane on for `hostile`) and
    /// returns once every worker has served its first request, with the
    /// time that took.
    #[must_use]
    pub fn setup(hostile: bool, seed: u64) -> (KvRun, Duration) {
        let started = Instant::now();
        let mut config = RuntimeConfig::new(WORKERS, IsolationMode::PerClientDomain);
        if hostile {
            config.control = Some(ControlConfig::default());
        }
        let rt = Runtime::start(config, |_| KvHandler::default());
        for shard in 0..WORKERS {
            let client = (WARM_BASE..)
                .map(ClientId)
                .find(|&client| rt.shard_of(client) == shard)
                .expect("some id hashes to every shard");
            let SubmitOutcome::Enqueued(ticket) = rt.submit(client, b"get warm\r\n".to_vec())
            else {
                panic!("set-up request shed by an idle runtime");
            };
            let answer = ticket
                .wait_deadline(ANSWER_TIMEOUT)
                .expect("set-up request answered");
            check(&answer, Expect::Miss).expect("set-up request answered correctly");
        }
        let took = started.elapsed();
        let gen = if hostile {
            KvGen::hostile(seed)
        } else {
            KvGen::paced(seed)
        };
        let run = KvRun {
            rt,
            gen,
            model: vec![None; KV_SLOTS],
            next_id: 0,
            hostile,
            probe_rng: Rng::new(seed ^ PROBE_SALT),
            refused_seen: 0,
        };
        (run, took)
    }

    /// Runs the workload's load loop for `length`, then collects every
    /// answer still outstanding.
    pub fn phase(&mut self, length: Duration, books: &mut Books) {
        if self.hostile {
            self.closed_loop(length, books);
        } else {
            self.open_loop(length, books);
        }
    }

    fn open_loop(&mut self, length: Duration, books: &mut Books) {
        let period = Duration::from_secs(1) / PACED_RATE;
        books.begin();
        let start = Instant::now();
        let until = start + length;
        let mut pending = VecDeque::new();
        let mut sent = 0u32;
        let mut due = start;
        while due < until {
            let now = Instant::now();
            while due <= now && due < until {
                self.send(Some(due), books, &mut pending);
                sent += 1;
                due = start + period * sent;
            }
            self.sweep(&mut pending, books);
            books.tick();
            // No spinning: park on the oldest ticket until the next
            // request is due, or sleep when nothing is outstanding.
            let now = Instant::now();
            if due > now && due < until {
                match pending.front() {
                    Some(oldest) => {
                        if let Some(answer) = oldest.ticket.wait_deadline(due - now) {
                            let oldest = pending.pop_front().expect("front exists");
                            self.answer(oldest, &answer, Instant::now(), books);
                        }
                    }
                    None => std::thread::sleep(due - now),
                }
            }
        }
        self.drain(&mut pending, books);
        books.end();
    }

    fn closed_loop(&mut self, length: Duration, books: &mut Books) {
        books.begin();
        let until = Instant::now() + length;
        let mut pending = VecDeque::with_capacity(WINDOW);
        while Instant::now() < until {
            while pending.len() < WINDOW {
                self.send(None, books, &mut pending);
            }
            self.wait_oldest(&mut pending, books);
            self.sweep(&mut pending, books);
            books.tick();
        }
        self.drain(&mut pending, books);
        books.end();
    }

    /// Parks on the oldest outstanding ticket until it is answered.
    fn wait_oldest(&mut self, pending: &mut VecDeque<Pending>, books: &mut Books) {
        let Some(oldest) = pending.pop_front() else {
            return;
        };
        match oldest.ticket.wait_deadline(ANSWER_TIMEOUT) {
            Some(answer) => self.answer(oldest, &answer, Instant::now(), books),
            None => {
                books.tally.timeouts += 1;
                books.tally.fail(false, "no answer");
            }
        }
    }

    fn drain(&mut self, pending: &mut VecDeque<Pending>, books: &mut Books) {
        while !pending.is_empty() {
            self.wait_oldest(pending, books);
            self.sweep(pending, books);
        }
    }

    /// Collects every answer that has already arrived.
    fn sweep(&mut self, pending: &mut VecDeque<Pending>, books: &mut Books) {
        let now = Instant::now();
        let mut index = 0;
        while index < pending.len() {
            if let Some(answer) = pending[index].ticket.try_take() {
                let done = pending.remove(index).expect("index in range");
                self.answer(done, &answer, now, books);
            } else {
                index += 1;
            }
        }
        books.sample_pending(|| self.rt.pending());
    }

    /// Generates and submits the next request.
    fn send(&mut self, due: Option<Instant>, books: &mut Books, pending: &mut VecDeque<Pending>) {
        let op = self.gen.next_op();
        let id = self.next_id;
        self.next_id += 1;
        books.tally.attempted += 1;
        let expect = match op.kind {
            KvKind::Get { slot } => match self.model[slot] {
                None => Expect::Miss,
                Some((len, hash)) => Expect::Value { slot, len, hash },
            },
            KvKind::Set { .. } => Expect::Stored,
            KvKind::Exploit => {
                books.tally.exploits += 1;
                Expect::Contained
            }
        };
        let t0 = Instant::now();
        if let Some(due) = due {
            books.late.record_duration(t0 - due);
        }
        let outcome = self.rt.submit(ClientId(op.client), op.payload);
        let t1 = Instant::now();
        books.handoff(t0, t1);
        match outcome {
            SubmitOutcome::Enqueued(ticket) => {
                if let KvKind::Set { slot, len, hash } = op.kind {
                    self.model[slot] = Some((len, hash));
                }
                pending.push_back(Pending {
                    ticket,
                    id,
                    start: due.unwrap_or(t0),
                    submit: (t0, t1),
                    expect,
                });
            }
            SubmitOutcome::Shed => self.shed(matches!(expect, Expect::Contained), books),
        }
    }

    /// Books one shed request. This thread is the only submitter, so
    /// the control plane's refusal count grew since the last shed exactly
    /// when this one was refused at admission; otherwise a full queue
    /// shed it.
    fn shed(&mut self, exploit: bool, books: &mut Books) {
        let refused = self.rt.stats_snapshot().refused;
        let at_admission = refused > self.refused_seen;
        self.refused_seen = refused;
        books.tally.admission_refused += u64::from(at_admission);
        match (exploit, at_admission) {
            // Refusing an exploit at admission is the intended outcome.
            (true, true) => books.tally.exploits_refused += 1,
            (true, false) => books.tally.fail(false, "exploit shed by a full queue"),
            (false, _) => {
                books.tally.benign_refused += 1;
                books.tally.fail(false, "benign request refused");
            }
        }
    }

    fn answer(&mut self, done: Pending, answer: &Completion, at: Instant, books: &mut Books) {
        books.count_answer();
        if let Err(what) = check(answer, done.expect) {
            books.tally.fail(true, &what);
            return;
        }
        books.answered(at - done.start, matches!(done.expect, Expect::Contained));
        if let Some(spans) = &mut books.spans {
            spans.request(done.id, "request", (done.start, at), "submit", done.submit);
        }
    }

    /// Recovery as a client sees it on an idle runtime: `count` exploits
    /// sent one at a time, each timed from submit to its contained
    /// answer.
    pub fn probe(&mut self, count: u64, tally: &mut Tally) -> LatencyHistogram {
        let mut latency = LatencyHistogram::new();
        for n in 0..count {
            tally.attempted += 1;
            tally.exploits += 1;
            let client = ClientId(PROBE_BASE + n % PROBE_CLIENTS);
            let payload = exploit_payload(&mut self.probe_rng);
            let sent = Instant::now();
            let SubmitOutcome::Enqueued(ticket) = self.rt.submit(client, payload) else {
                tally.fail(false, "probe exploit shed");
                continue;
            };
            let Some(answer) = ticket.wait_deadline(ANSWER_TIMEOUT) else {
                tally.timeouts += 1;
                tally.fail(false, "no answer");
                continue;
            };
            tally.answered += 1;
            match check(&answer, Expect::Contained) {
                Ok(()) => latency.record_duration(sent.elapsed()),
                Err(what) => tally.fail(true, &what),
            }
        }
        latency
    }

    /// Drains and stops the runtime.
    #[must_use]
    pub fn finish(self) -> RuntimeStats {
        self.rt.shutdown()
    }
}
