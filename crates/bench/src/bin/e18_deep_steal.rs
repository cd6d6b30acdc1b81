//! E18 — connection-buffer work stealing under a skewed (hot-shard)
//! mix: stranded capacity as an energy problem.
//!
//! The paper's energy argument assumes the serving substrate wastes no
//! capacity. E17 showed an idle runtime spends nothing; this experiment
//! removes the last stranding: under a **skewed** load — every
//! connection hashed to one hot shard — a runtime without stealing
//! leaves framing-complete requests sitting in the hot shard's
//! connection buffers while three siblings park, fully provisioned and
//! fully idle.
//!
//! Both cells run the identical e16-style kvstore mix (pipelined
//! gets/sets plus `FaultSchedule`-scheduled `xstat` attacks) over
//! connections pinned to shard 0, plus a hot-shard queue burst of
//! mutations as steal bait:
//!
//! * **off**: connection frames drain at one worker's pace; every
//!   budget deferral with a parked sibling is a **stranded-request
//!   stall** (the stall witness is wired whether or not stealing is
//!   on).
//! * **on** ([`RuntimeConfig::work_stealing`]): thieves take read-only
//!   queue items and lift framing-complete requests off the hot shard's
//!   connection buffers — read-only frames execute on the thief,
//!   **mutations are routed back to the owner** (state confinement, cf.
//!   the owner-domain routing of "Unlimited Lives"), responses stay in
//!   frame order, and the queue mutations stay on their owner.
//!
//! Reported per cell: steal depth (queue items + connection frames),
//! owner-routed mutation rate, stranded stalls, thief-mutated-state
//! count ([`WorkerStats::thief_mutations`], the state-confinement
//! detector), drain wall clock, client-observed RTT percentiles (probed
//! against the drained server, e17-style — the steady-state regression
//! guard for the stealing machinery), and the modeled fleet energy
//! delta of absorbing the same skew with stranded vs recruited
//! capacity. Hard assertions encode the acceptance criteria: zero
//! double-processing (exact conservation + reconciliation), zero
//! thief-mutated state, strictly fewer stranded stalls with stealing on
//! and a p99 RTT no worse than with stealing off.
//!
//! [`RuntimeConfig::work_stealing`]: sdrad_runtime::RuntimeConfig::work_stealing
//! [`WorkerStats::thief_mutations`]: sdrad_runtime::WorkerStats::thief_mutations

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_bench::{attack_rate_per_year, attack_slots, banner, Report};
use sdrad_energy::power::PowerModel;
use sdrad_faultsim::FaultSchedule;
use sdrad_net::{duplex, Endpoint};
use sdrad_runtime::{
    IsolationMode, KvHandler, LatencyHistogram, Runtime, RuntimeConfig, RuntimeStats, SubmitOutcome,
};

/// One simulated hour of traffic per cell.
const HORIZON_SECONDS: f64 = 3600.0;
/// Base seed; both cells use the same plan.
const SEED: u64 = 0x5D12_AD18;
/// Connections per cell — all pinned to shard 0.
const HOT_CONNS: usize = 8;
/// Workers (= shards) per cell; all but shard 0 start idle.
const WORKERS: usize = 4;
/// Round-trip probes against the drained server, per cell — enough
/// samples that p99 reflects the distribution, not the single worst
/// host-scheduler hiccup.
const PROBES: usize = 256;
/// Per-connection read budget: small enough that the hot worker defers
/// frames every rotation — the stranding stealing rescues.
const BUDGET: usize = 8;
/// Fleet size for the energy projection.
const FLEET_SERVERS: f64 = 1000.0;

/// Connection frames per cell (override with `SDRAD_E18_REQUESTS`).
fn requests_per_cell() -> u64 {
    std::env::var("SDRAD_E18_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000)
}

/// A condvar gate fed by an endpoint readiness callback (as in e17).
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

/// Client ids all mapping to shard 0.
fn hot_clients(runtime: &Runtime, count: usize) -> Vec<ClientId> {
    (0u64..)
        .map(ClientId)
        .filter(|c| runtime.shard_of(*c) == 0)
        .take(count)
        .collect()
}

struct Cell {
    stats: RuntimeStats,
    rtt: LatencyHistogram,
    drain: Duration,
    offered: u64,
}

/// Drives one cell: warm every shard, bait the hot queue with
/// mutations, pipeline the skewed connection mix, drain it through the
/// generation barrier, then probe steady-state RTT.
fn run_cell(work_stealing: bool) -> Cell {
    let frames_total = requests_per_cell();
    let queue_burst = frames_total / 4;
    let rate = attack_rate_per_year(100, frames_total, HORIZON_SECONDS); // 1%
    let plan = attack_slots(
        &FaultSchedule::new(rate, SEED),
        HORIZON_SECONDS,
        frames_total,
    );

    let mut config = RuntimeConfig::new(WORKERS, IsolationMode::PerClientDomain);
    config.work_stealing = work_stealing;
    config.conn_read_budget = BUDGET;
    config.batch = 16;
    config.queue_capacity = usize::try_from(frames_total).unwrap_or(4096).max(4096);
    // Enough pooled domains that the hot conns, the probe and the queue
    // client all keep a resident domain: a probe whose client was
    // evicted from the pool pays a domain rebuild, which would put pool
    // churn — identical in both cells — into the RTT tail.
    config.domains_per_worker = 14;
    let runtime = Runtime::start(config, |_| KvHandler::default());

    // Warm-up: one served round trip per shard, so every worker has
    // finished its domain-manager setup and the siblings are genuinely
    // parked before the skew arrives.
    let mut warmups = 0u64;
    for shard in 0..WORKERS {
        let client = (0u64..)
            .map(ClientId)
            .find(|c| runtime.shard_of(*c) == shard)
            .expect("some id maps to every shard");
        if let SubmitOutcome::Enqueued(ticket) = runtime.submit(client, b"get warm-up\r\n".to_vec())
        {
            let _ = ticket.wait();
            warmups += 1;
        }
    }

    // The probe connection exists before the skew arrives — a
    // latecomer request on an established connection, the client whose
    // tail latency the stranding hurts.
    let probe_id = hot_clients(&runtime, HOT_CONNS + 1)[HOT_CONNS];
    let (mut probe, probe_server) = duplex();
    runtime.attach(probe_id, probe_server);
    let gate = Arc::new(Gate::default());
    gate.arm(&mut probe);

    // Hot-shard queue burst of *mutations*: steal bait the classified
    // steal must leave on their owner, where the state they touch lives
    // — the table's `thief-mut` column is the detector.
    let burst_written = Instant::now();
    let hot = hot_clients(&runtime, 1)[0];
    for _ in 0..queue_burst {
        assert!(
            runtime.submit_detached(hot, b"set pin 2\r\nok\r\n".to_vec()),
            "queue burst must not shed"
        );
    }

    // The skewed connection mix: every connection is pinned to shard 0
    // and pipelines its share of the e16-style plan in one write — the
    // arrival spike that strands frames behind the hot worker's budget
    // rotations while (without stealing) three siblings park.
    let mut conns: Vec<Endpoint> = Vec::new();
    let mut conn_frames = 0u64;
    {
        let ids = hot_clients(&runtime, HOT_CONNS);
        let mut bursts: Vec<Vec<u8>> = vec![Vec::new(); HOT_CONNS];
        for (i, &attacked) in plan.iter().enumerate() {
            let payload: Vec<u8> = if attacked {
                b"xstat 65536 4\r\nboom\r\n".to_vec()
            } else if i.is_multiple_of(4) {
                format!("set key-{} 8\r\nabcdefgh\r\n", i % 512).into_bytes()
            } else {
                format!("get key-{}\r\n", i % 512).into_bytes()
            };
            bursts[i % HOT_CONNS].extend_from_slice(&payload);
            conn_frames += 1;
        }
        for (id, burst) in ids.into_iter().zip(bursts) {
            let (mut client, server) = duplex();
            runtime.attach(id, server);
            client.write(&burst);
            conns.push(client);
        }
    }

    // Drain the skew through the generation barrier: the wall clock of
    // this phase *is* the capacity story (stranded vs recruited), and
    // the stall counters accumulate exactly here.
    assert!(runtime.quiesce(), "the generation barrier must settle");
    let drain = burst_written.elapsed();

    // RTT probes against the now-quiet server (e17's methodology): the
    // steady-state regression guard. The stealing machinery — shared
    // trays, gates, registries — sits on the hot path of every pumped
    // frame, so its tail must price out no worse than the runtime
    // without it. (Probing *into* the live backlog instead
    // would measure the host scheduler's timeslicing on small hosts: on
    // a single-core runner there is no idle sibling capacity to
    // recruit, and every extra runnable thief merely preempts the
    // owner. The capacity benefit is asserted structurally, via the
    // stall counters and the drain clock above.)
    let mut rtt = LatencyHistogram::new();
    for probe_i in 0..PROBES {
        let sent = Instant::now();
        probe.write(b"get probe\r\n");
        loop {
            gate.wait();
            if probe.read_available().ends_with(b"END\r\n") {
                break;
            }
        }
        rtt.record_duration(sent.elapsed());
        if std::env::var("SDRAD_E18_DIAG").is_ok() {
            eprintln!("probe {probe_i}: {:?}", sent.elapsed());
        }
    }

    assert!(runtime.quiesce(), "the probe tail must settle too");
    let stats = runtime.shutdown();
    Cell {
        stats,
        rtt,
        drain,
        offered: warmups + queue_burst + conn_frames + PROBES as u64,
    }
}

fn fmt_us(d: Duration) -> String {
    format!("{:.1}us", d.as_nanos() as f64 / 1_000.0)
}

fn main() {
    banner(
        "E18",
        "connection-buffer work stealing with owner-routed mutations under a hot-shard skew",
        "capacity stranded behind a hot shard is energy spent serving nobody; stealing it \
         back must not let state mutate off its owner shard",
    );

    let off = run_cell(false);
    let on = run_cell(true);

    let mut report = Report::new(
        "e18",
        "connection-buffer work stealing under a hot-shard skew",
    );
    report.begin_table(
        format!(
            "{} conn frames + {} hot queue mutations over {HOT_CONNS} conns pinned to shard 0, \
             {WORKERS} workers, budget {BUDGET}, {PROBES} RTT probes",
            requests_per_cell(),
            requests_per_cell() / 4,
        ),
        &[
            "stealing",
            "drain",
            "rtt p50",
            "rtt p99",
            "q-steals",
            "conn-steals",
            "routed",
            "stalls",
            "thief-mut",
            "contained",
            "rec",
        ],
    );
    for (label, cell) in [("off", &off), ("on", &on)] {
        report.row(&[
            label.into(),
            format!("{:.1}ms", cell.drain.as_secs_f64() * 1_000.0),
            fmt_us(cell.rtt.p50()),
            fmt_us(cell.rtt.p99()),
            cell.stats.steals().to_string(),
            cell.stats.conn_steals().to_string(),
            cell.stats.owner_routed().to_string(),
            cell.stats.stranded_stalls().to_string(),
            cell.stats.thief_mutations().to_string(),
            cell.stats.contained_faults().to_string(),
            if cell.stats.reconciles() { "yes" } else { "NO" }.into(),
        ]);
    }

    // --- the acceptance criteria CI smokes -------------------------------
    for (label, cell) in [("off", &off), ("on", &on)] {
        assert!(cell.stats.reconciles(), "{label} books must balance");
        assert_eq!(
            cell.stats.served() + cell.stats.shed,
            cell.offered,
            "{label}: zero lost, zero double-processed — conservation is exact"
        );
        assert_eq!(cell.stats.shed, 0, "{label}: nothing sheds at this depth");
        assert_eq!(cell.stats.crashes(), 0);
        assert!(
            cell.stats.contained_faults() > 0,
            "{label}: the schedule must fire attacks"
        );
    }
    assert_eq!(
        on.stats.thief_mutations(),
        0,
        "stealing must never mutate state on a thief shard"
    );
    assert!(
        on.stats.conn_steals() > 0,
        "stealing must actually lift frames off the hot shard's buffers"
    );
    assert_eq!(
        on.stats.owner_routed(),
        on.stats.routed_served(),
        "every routed mutation came home"
    );
    // Stall accounting is exact since the generation-counter rework: a
    // sibling counts only when it provably sat parked across the whole
    // deferring pass (its park generation predates the pass start and
    // it is still parked at the deferral) — so these are assertable
    // counters, not racy estimates. The off cell must exhibit real
    // stranding, and stealing must strictly reduce it.
    assert!(
        off.stats.stranded_stalls() > 0,
        "the hot-shard skew must strand requests without stealing"
    );
    assert!(
        on.stats.stranded_stalls() < off.stats.stranded_stalls(),
        "stealing must strand strictly fewer requests: on {} vs off {}",
        on.stats.stranded_stalls(),
        off.stats.stranded_stalls(),
    );
    // "No worse at the tail": both cells probe an identically drained
    // server, so the two distributions should coincide — unless the
    // stealing machinery (shared trays, gates, registries) leaks
    // contention into the steady-state pump path, which would blow p99
    // past any per-request cost. The bound is relative (2x the off
    // cell's tail) with a small absolute floor, so µs-scale
    // host-scheduler jitter between two otherwise-identical
    // distributions cannot masquerade as a regression — while a genuine
    // contention leak (tens to hundreds of µs of lock convoy per probe)
    // still fails.
    let noise_floor = Duration::from_micros(50);
    assert!(
        on.rtt.p99() <= (off.rtt.p99() * 2).max(noise_floor),
        "stealing machinery must not cost tail latency: on p99 {:?} vs off p99 {:?}",
        on.rtt.p99(),
        off.rtt.p99(),
    );

    // --- what the stranding costs a fleet --------------------------------
    // Both cells drained the identical skewed offered load; the drain
    // wall clock is the capacity story. A fleet provisioned to absorb
    // this skew at the no-stealing drain rate needs `ratio` times the
    // servers of one provisioned at the stealing rate — capacity that
    // exists either way, but without stealing sits parked behind a hot
    // shard while clients wait.
    let ratio = off.drain.as_secs_f64() / on.drain.as_secs_f64().max(1e-9);
    let model = PowerModel::rack_server();
    let per_server = model.annual_kwh(0.30);
    let extra_servers = (ratio - 1.0).max(0.0) * FLEET_SERVERS;
    let delta_kwh = extra_servers * per_server;
    report.note(format!(
        "steal depth: stealing moved {} queue items + {} connection frames and routed {} \
         mutations home ({:.1}% of stolen frames), with zero thief-mutated state",
        on.stats.steals(),
        on.stats.conn_steals(),
        on.stats.owner_routed(),
        100.0 * on.stats.owner_routed() as f64
            / (on.stats.conn_steals() + on.stats.owner_routed()).max(1) as f64,
    ));
    report.note(format!(
        "stranded stalls: without stealing the hot worker deferred frames {} times while a \
         sibling sat parked; with stealing {} (siblings were busy stealing instead)",
        off.stats.stranded_stalls(),
        on.stats.stranded_stalls(),
    ));
    // The drain-rate direction depends on the host: recruiting thieves
    // needs idle cores, and on a single-core runner every runnable
    // thief merely timeslices against the owner. Report whatever was
    // measured, with the sign stated honestly.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if ratio >= 1.0 {
        report.note(format!(
            "modeled fleet energy delta: the same skew drains {ratio:.2}x faster with \
             connection-buffer stealing; a fleet sized for the no-stealing rate carries \
             {extra_servers:.0} extra servers at ~{per_server:.0} kWh/yr each ≈ \
             {delta_kwh:.0} kWh/yr across {FLEET_SERVERS:.0} sites — capacity that was \
             parked next to a hot shard the whole time",
        ));
    } else {
        report.note(format!(
            "modeled fleet energy delta: not claimed on this run — the stealing cell \
             drained the skew {:.2}x slower here ({} core(s) available: recruited \
             thieves timeslice against the owner instead of running beside it). The \
             stranded-capacity win requires genuinely idle cores; the stall counters \
             above measure the stranding itself, independent of host parallelism.",
            1.0 / ratio.max(1e-9),
            cores,
        ));
    }
    report.note(format!(
        "conclusion: identical skewed mix, identical containment ({} vs {} faults); \
         stealing kept steady-state probes at p99 {} vs {} and cut stranded stalls \
         {} -> {} without a single off-shard mutation.",
        on.stats.contained_faults(),
        off.stats.contained_faults(),
        fmt_us(on.rtt.p99()),
        fmt_us(off.rtt.p99()),
        off.stats.stranded_stalls(),
        on.stats.stranded_stalls(),
    ));
    report.print();
}
