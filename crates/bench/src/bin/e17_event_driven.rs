//! E17 — readiness-driven scheduling: the scheduler itself as an
//! object of the paper's environmental analysis.
//!
//! The paper judges resilience mechanisms by their energy footprint;
//! this experiment applies the same lens to the serving loop. The cell
//! runs an e16-style kvstore mix — connections,
//! `FaultSchedule`-scheduled attacks, a hot-shard overload burst that
//! engages work stealing — then sits through an idle window with every
//! connection held open. Workers park on per-shard wake sets and are
//! woken by endpoint readiness callbacks, so an idle runtime burns no
//! CPU: across the idle window after `quiesce()` the runtime takes
//! **zero** wakeups.
//!
//! Reported: throughput, client-observed round-trip percentiles (probes
//! against a quiet server — the regime where the scheduler, not
//! queueing, dominates), wakeups/parks, idle-window wakeups and steal
//! counts. Hard assertions encode the regression guard CI relies on:
//! zero idle-window wakeups, reconciled books, contained attacks.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_bench::{attack_rate_per_year, attack_slots, banner, Report};
use sdrad_faultsim::FaultSchedule;
use sdrad_net::Endpoint;
use sdrad_runtime::{
    ConnectionServer, IsolationMode, KvHandler, LatencyHistogram, RuntimeConfig, RuntimeStats,
};

/// One simulated hour of traffic per cell.
const HORIZON_SECONDS: f64 = 3600.0;
/// Base seed of the attack plan.
const SEED: u64 = 0x5D12_AD17;
/// Client connections per cell.
const CONNS: usize = 16;
/// Workers (= shards) per cell.
const WORKERS: usize = 4;
/// Idle window the cell sits through after serving, connections open.
const IDLE: Duration = Duration::from_millis(400);
/// Round-trip probes against the quiet server.
const PROBES: usize = 200;

/// Requests per run (override with `SDRAD_E17_REQUESTS`).
fn requests_per_cell() -> u64 {
    std::env::var("SDRAD_E17_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000)
}

/// A condvar gate fed by an endpoint readiness callback — how a client
/// waits for its response without polling (and without depending on the
/// server's scheduler for the measurement).
#[derive(Default)]
struct Gate {
    ready: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn arm(self: &Arc<Self>, endpoint: &mut Endpoint) {
        let gate = Arc::clone(self);
        endpoint.set_ready_callback(Arc::new(move || {
            *gate.ready.lock().expect("gate lock") = true;
            gate.cv.notify_all();
        }));
    }

    fn wait(&self) {
        let mut ready = self.ready.lock().expect("gate lock");
        while !*ready {
            let (next, result) = self
                .cv
                .wait_timeout(ready, Duration::from_secs(5))
                .expect("gate wait");
            ready = next;
            assert!(!result.timed_out(), "probe response never arrived");
        }
        *ready = false;
    }
}

fn benign(i: usize) -> Vec<u8> {
    if i.is_multiple_of(4) {
        format!("set key-{} 8\r\nabcdefgh\r\n", i % 512).into_bytes()
    } else {
        format!("get key-{}\r\n", i % 512).into_bytes()
    }
}

struct Cell {
    stats: RuntimeStats,
    rtt: LatencyHistogram,
    /// Wakeups the runtime took across the idle window.
    idle_wakeups: u64,
}

/// Drives the cell: the scheduled mix over connections, a hot-shard
/// burst through the submit queues (steal bait), round-trip probes
/// against the then-quiet server, and the idle window.
fn run_cell() -> Cell {
    let requests = requests_per_cell();
    let rate = attack_rate_per_year(100, requests, HORIZON_SECONDS); // 1%
    let plan = attack_slots(&FaultSchedule::new(rate, SEED), HORIZON_SECONDS, requests);

    let mut config = RuntimeConfig::new(WORKERS, IsolationMode::PerClientDomain);
    config.work_stealing = true;
    config.batch = 16;
    let server = ConnectionServer::start(config, |_| KvHandler::default());

    // Warm-up: one served round trip per shard, so every worker has
    // finished its (serialized) domain-manager setup and is parked
    // before the skewed burst — otherwise the hot worker, first to
    // finish initialising, drains the burst before any thief exists.
    let runtime = server.runtime();
    for shard in 0..WORKERS {
        let client = (0u64..)
            .map(ClientId)
            .find(|c| runtime.shard_of(*c) == shard)
            .expect("some id maps to every shard");
        if let sdrad_runtime::SubmitOutcome::Enqueued(ticket) =
            runtime.submit(client, b"get warm-up\r\n".to_vec())
        {
            let _ = ticket.wait();
        }
    }

    // Hot-shard burst, while the sibling workers are idle: every
    // request targets one shard, so the siblings' only way to help is
    // stealing pre-framed queue items. The queue's steal bells ring
    // them awake.
    let hot = (10_000_000u64..)
        .map(ClientId)
        .find(|c| runtime.shard_of(*c) == 0)
        .expect("some id maps to shard 0");
    for _ in 0..(requests / 2) {
        let _ = runtime.submit_detached(hot, b"get hot-key\r\n".to_vec());
    }

    let mut clients: Vec<Endpoint> = (0..CONNS).map(|_| server.connect()).collect();
    for (i, &attacked) in plan.iter().enumerate() {
        let payload = if attacked {
            b"xstat 65536 4\r\nboom\r\n".to_vec()
        } else {
            benign(i)
        };
        clients[i % CONNS].write(&payload);
        if i % 512 == 0 {
            for client in &mut clients {
                let _ = client.read_available();
            }
        }
    }

    // Round-trip probes against a quiet server: write one request, park
    // on the client's own readiness callback, measure arrival. The
    // worker wakes with the write.
    let _ = server.await_response(&mut clients[0]); // settle the burst
    let mut probe = server.connect();
    let gate = Arc::new(Gate::default());
    gate.arm(&mut probe);
    let mut rtt = LatencyHistogram::new();
    for _ in 0..PROBES {
        let sent = Instant::now();
        probe.write(b"get probe\r\n");
        loop {
            gate.wait();
            if probe.read_available().ends_with(b"END\r\n") {
                break;
            }
        }
        rtt.record_duration(sent.elapsed());
    }

    // The idle window: connections stay open, nobody writes. A poll
    // loop would tick thousands of times here; readiness scheduling
    // never wakes.
    assert!(server.quiesce(), "the probes must settle");
    let before = server.runtime().wakeups();
    std::thread::sleep(IDLE);
    let idle_wakeups = server.runtime().wakeups() - before;

    let stats = server.shutdown();
    Cell {
        stats,
        rtt,
        idle_wakeups,
    }
}

fn fmt_us(d: Duration) -> String {
    format!("{:.1}us", d.as_nanos() as f64 / 1_000.0)
}

fn main() {
    banner(
        "E17",
        "readiness-driven scheduling under the e16 kvstore mix",
        "resilience mechanisms should be judged by their energy footprint — so should \
         the serving loop that hosts them",
    );

    let cell = run_cell();

    let mut report = Report::new("e17", "readiness-driven scheduling");
    report.begin_table(
        format!(
            "{} requests + {} hot-shard submits, {CONNS} conns, {WORKERS} workers, \
             {PROBES} RTT probes, {}ms idle tail",
            requests_per_cell(),
            requests_per_cell() / 2,
            IDLE.as_millis()
        ),
        &[
            "req/s",
            "rtt p50",
            "rtt p99",
            "wakeups",
            "parks",
            "idle wakeups",
            "steals",
            "contained",
            "shed",
            "rec",
        ],
    );
    report.row(&[
        format!("{:.0}", cell.stats.throughput_rps()),
        fmt_us(cell.rtt.p50()),
        fmt_us(cell.rtt.p99()),
        cell.stats.wakeups().to_string(),
        cell.stats.parks().to_string(),
        cell.idle_wakeups.to_string(),
        cell.stats.steals().to_string(),
        cell.stats.contained_faults().to_string(),
        cell.stats.shed.to_string(),
        if cell.stats.reconciles() { "yes" } else { "NO" }.into(),
    ]);

    // --- the regression guards CI smokes ---------------------------------
    assert!(cell.stats.reconciles());
    assert_eq!(
        cell.idle_wakeups, 0,
        "readiness scheduling must never wake for an idle connection"
    );
    assert_eq!(cell.stats.crashes(), 0);
    assert!(
        cell.stats.contained_faults() > 0,
        "the schedule must fire attacks"
    );

    report.note(format!(
        "steal rate: {} stolen requests off the hot shard (queues and thieves reconcile: {})",
        cell.stats.steals(),
        cell.stats.stolen_submits,
    ));
    report.note(format!(
        "conclusion: {} contained faults, probes answered at p99 {}, and {} wakeups across \
         a {}ms idle window with every connection open — an idle runtime spends nothing.",
        cell.stats.contained_faults(),
        fmt_us(cell.rtt.p99()),
        cell.idle_wakeups,
        IDLE.as_millis(),
    ));
    report.print();
}
