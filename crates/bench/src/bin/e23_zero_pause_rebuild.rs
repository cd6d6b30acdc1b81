//! E23 — zero-pause pool rebuilds: publish-and-retire under a
//! ladder-driven storm.
//!
//! The escalation ladder's pool-rebuild rung publishes a fresh pool in
//! pointer-scale time, retires the old one into a deferred queue, and
//! tears its domains down a couple per pump pass, off the serving path.
//! An in-place teardown would have made every request queued behind the
//! fault wait out the modeled teardown window (20 µs per pooled domain
//! — 160 µs per rebuild at the default pool size).
//!
//! This harness prices the rung where it matters — the benign
//! neighbour's tail. One offender drives a rebuild every third fault
//! on the shard where a benign closed-loop probe is served; the
//! probe's ticket-RTT p99 is measured against the quiet runtime and
//! then inside the storm. Acceptance:
//!
//! * the storm p99 stays within a generous single-host band of steady
//!   state (the committed 1.1-band trajectory guard on
//!   `e23.rebuild_p99_ratio` lives in `bench_report --check`);
//! * the reclamation books reconcile exactly —
//!   `retired == reclaimed + pending` with pending drained to zero,
//!   the shared-view hazard domain conserving, zero crashes, zero
//!   thief mutations — and the energy bill prices publish + amortized
//!   reclamation joules, never a pause.

use sdrad_bench::rebuild::best_cell;
use sdrad_bench::{banner, fmt_duration, Report};

/// In-binary acceptance slack on the storm ratio: generous, because a
/// single run on a loaded host carries scheduler noise the committed
/// trajectory guard (1.1 band, best-of-N) does not.
const STORM_SLACK: f64 = 3.0;
/// Runs; ratios are taken from the least-noise run.
const RUNS: usize = 3;

fn probes() -> usize {
    std::env::var("SDRAD_E23_PROBES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(768)
}

fn main() {
    banner(
        "E23",
        "zero-pause pool rebuilds: publish-and-retire under a ladder-driven storm",
        "recovery only stays cheaper than a restart if escalation rungs stop billing their \
         cost to the benign traffic queued behind the fault",
    );
    let probes = probes();

    let cell = best_cell(RUNS, probes);
    let ratio = cell.storm_ratio();
    let ctl = cell.stats.control.as_ref().expect("control books");

    assert!(cell.reclaim_conserves());
    assert!(
        ratio <= STORM_SLACK,
        "pool rebuilds paused the benign tail: storm p99 {:?} vs steady {:?} ({ratio:.2}x)",
        cell.storm_p99,
        cell.steady_p99,
    );

    let mut r = Report::new(
        "e23",
        "zero-pause pool rebuilds under a ladder-driven storm",
    );
    r.begin_table(
        format!(
            "{probes} closed-loop probes per phase, one attack ahead of each storm probe \
             (a pool rebuild every 3rd), 2 stealing workers, best of {RUNS} runs"
        ),
        &[
            "steady p99",
            "storm p99",
            "ratio",
            "rebuilds",
            "retired",
            "pause",
            "reclaim",
        ],
    );
    r.row(&[
        format!("{:.1}us", cell.steady_p99.as_nanos() as f64 / 1e3),
        format!("{:.1}us", cell.storm_p99.as_nanos() as f64 / 1e3),
        format!("{ratio:.2}x"),
        cell.stats.pool_rebuilds().to_string(),
        cell.stats.domains_retired().to_string(),
        fmt_duration(ctl.bill.pool_time + ctl.bill.publish_time),
        fmt_duration(ctl.bill.reclaim_time),
    ]);

    r.exact(
        "reclaim_conserves",
        f64::from(u8::from(cell.reclaim_conserves())),
        "bool",
    )
    .exact("crashes", cell.stats.crashes() as f64, "count")
    .exact(
        "thief_mutations",
        cell.stats.thief_mutations() as f64,
        "count",
    )
    .info("rebuild_p99_ratio", ratio, "ratio")
    .info("storm_p99_ns", cell.storm_p99.as_nanos() as f64, "ns")
    .note(format!(
        "pool rebuilds hold the benign storm p99 at {ratio:.2}x steady state; their teardown \
         is billed as {} of amortized reclamation instead of a serving-path pause",
        fmt_duration(ctl.bill.reclaim_time)
    ))
    .note(format!(
        "reclamation books reconcile exactly: {} domains retired == reclaimed, nothing \
         pending past shutdown, hazard domain conserved",
        cell.stats.domains_retired()
    ));
    r.print();
    println!("e23 acceptance criteria hold");
}
