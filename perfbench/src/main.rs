//! Runs one workload of the serving benchmark and prints its result.
//!
//! ```text
//! sdrad-perfbench --workload <kv-paced|kv-hostile|http-conn> --seed <n>
//!                 --seconds <s> --trace <0|1> [--spans <csv path>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the
//! per-layer ones. Every metric goes to stderr by name with its unit;
//! the last line of stdout is the result object. The exit code is
//! non-zero when the oracle or the runtime's own books found a fault.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use sdrad_perfbench::http::HttpRun;
use sdrad_perfbench::kv::{KvRun, WORKERS};
use sdrad_perfbench::replay::{replay, Observed};
use sdrad_perfbench::report::{band_quantile, median, Books, Report, Tally};
use sdrad_perfbench::{sys, Workload};
use sdrad_runtime::{LatencyHistogram, RuntimeStats};

/// Set-ups per end-to-end run; `setup_s` is their median. A set-up
/// lasts about a millisecond, so many are cheap and steady the median.
const SETUPS: usize = 101;
/// Recovery-probe rounds of the workloads without attacks, exploits per
/// round, and the pause between rounds; the attack metrics are medians
/// over rounds. The pauses spread the rounds over about five seconds, so
/// a short burst of stolen CPU time spoils a few rounds, not all.
const PROBE_ROUNDS: usize = 16;
const PROBES: u64 = 250;
const PROBE_GAP: Duration = Duration::from_millis(300);

/// One started workload.
enum Run {
    Kv(KvRun),
    Http(HttpRun),
}

impl Run {
    fn setup(workload: Workload, seed: u64) -> (Run, Duration) {
        match workload {
            Workload::KvPaced | Workload::KvHostile => {
                let (run, took) = KvRun::setup(workload == Workload::KvHostile, seed);
                (Run::Kv(run), took)
            }
            Workload::HttpConn => {
                let (run, took) = HttpRun::setup(seed);
                (Run::Http(run), took)
            }
        }
    }

    fn phase(&mut self, length: Duration, books: &mut Books) {
        match self {
            Run::Kv(run) => run.phase(length, books),
            Run::Http(run) => run.phase(length, books),
        }
    }

    fn probe(&mut self, count: u64, tally: &mut Tally) -> LatencyHistogram {
        match self {
            Run::Kv(run) => run.probe(count, tally),
            Run::Http(run) => run.probe(count, tally),
        }
    }

    fn finish(self) -> RuntimeStats {
        match self {
            Run::Kv(run) => run.finish(),
            Run::Http(run) => run.finish(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => trace = Some(value == "1"),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Warm-up before measuring: lazy domain creation and arena fills.
fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 10.0).clamp(0.2, 1.0))
}

/// Problems with the runtime's own books after shutdown; `tally` holds
/// the client's outcomes over the runtime's whole life.
fn invariants(stats: &RuntimeStats, workload: Workload, tally: &Tally) -> Vec<String> {
    let mut problems = Vec::new();
    if !stats.reconciles() {
        problems.push("runtime books do not reconcile".to_string());
    }
    if stats.crashes() != 0 || stats.leaks() != 0 {
        problems.push(format!(
            "{} crashes, {} leaks",
            stats.crashes(),
            stats.leaks()
        ));
    }
    // The client tells admission refusals from backpressure sheds; its
    // count must match the control plane's own.
    if let Some(control) = &stats.control {
        if control.counts.refused() != tally.admission_refused {
            problems.push(format!(
                "control plane refused {} requests, the client saw {} admission refusals",
                control.counts.refused(),
                tally.admission_refused
            ));
        }
    }
    // Every hash shard must have worked; on http-conn this is the check
    // that the two connections landed on different shards.
    for worker in stats.workers.iter().take(WORKERS) {
        let served = match workload {
            Workload::HttpConn => worker.conn_served,
            _ => worker.served,
        };
        if served == 0 {
            problems.push(format!("worker {} served nothing", worker.worker));
        }
    }
    problems
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

fn verdict(report: &Report, tally: &Tally, problems: &[String]) -> bool {
    for problem in problems {
        eprintln!("invariant broken: {problem}");
    }
    let correct = tally.mismatches == 0 && problems.is_empty();
    report.print(correct, tally);
    correct
}

/// The untraced run: set up [`SETUPS`] times, warm up, measure, probe
/// recovery where the load has no attacks, shut down and check.
fn end_to_end(args: &Args) -> bool {
    let mut problems = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let (run, took) = Run::setup(args.workload, args.seed);
        setups.push(took.as_secs_f64());
        problems.extend(invariants(&run.finish(), args.workload, &Tally::default()));
    }
    let (mut run, took) = Run::setup(args.workload, args.seed);
    setups.push(took.as_secs_f64());
    setups.sort_by(f64::total_cmp);
    eprintln!(
        "set-up us by decile: {:?}",
        (0..=10)
            .map(|d| (setups[d * (SETUPS - 1) / 10] * 1e6).round())
            .collect::<Vec<_>>()
    );

    let mut tally = Tally::default();
    let mut warm = Books::new(false);
    run.phase(warmup(args.seconds), &mut warm);
    tally.absorb(&warm.tally);

    let mut books = Books::windowed(Duration::from_secs_f64(args.seconds));
    let host_before = sys::host_ticks();
    run.phase(Duration::from_secs_f64(args.seconds), &mut books);
    let host_after = sys::host_ticks();
    tally.absorb(&books.tally);
    eprintln!(
        "host CPU time stolen by other guests during the measured phase: {:.1}%",
        100.0 * ratio(host_after.0 - host_before.0, host_after.1 - host_before.1)
    );
    // Attack latency: the load's own contained exploits on kv-hostile,
    // rounds of a recovery probe on an idle runtime elsewhere.
    let attacks: Vec<LatencyHistogram> = match args.workload {
        Workload::KvHostile => books.windows.iter().map(|w| w.attack.clone()).collect(),
        // Each round runs on a fresh client thread: probe latency is two
        // cross-thread wake-ups plus the rewind, and the wake-ups depend
        // on where the scheduler places the client and the worker, so
        // the median covers several placements, not just the one a run
        // happens to start with.
        Workload::KvPaced | Workload::HttpConn => (0..PROBE_ROUNDS)
            .map(|_| {
                std::thread::sleep(PROBE_GAP);
                std::thread::scope(|scope| {
                    scope
                        .spawn(|| run.probe(PROBES, &mut tally))
                        .join()
                        .expect("probe thread finished")
                })
            })
            .collect(),
    };
    let attack_median =
        |q: f64| median(attacks.iter().map(|h| band_quantile(h, q) / 1e3).collect());
    eprintln!(
        "attack p50 by window or probe round, us: {:?}",
        attacks
            .iter()
            .map(|h| us(h.quantile(0.5)).round())
            .collect::<Vec<_>>()
    );
    let stats = run.finish();
    problems.extend(invariants(&stats, args.workload, &tally));
    for (index, w) in books.windows.iter().enumerate() {
        eprintln!(
            "window {index:>2}: {:>9.0} req/s  p50 {:>8.1} us  p90 {:>8.1} us  cpu {:>6.2} us/req",
            w.tput(),
            us(w.benign.quantile(0.5)),
            us(w.benign.quantile(0.9)),
            w.cpu_us_per_req()
        );
    }

    let mut report = Report::default();
    report.push("setup_s", setups[SETUPS / 2], "s");
    report.push("tput_rps", books.window_median(|w| w.tput()), "1/s");
    report.push(
        "lat_p50_us",
        books.window_median(|w| band_quantile(&w.benign, 0.50) / 1e3),
        "us",
    );
    report.push(
        "lat_p90_us",
        books.window_median(|w| band_quantile(&w.benign, 0.90) / 1e3),
        "us",
    );
    report.push("attack_p50_us", attack_median(0.50), "us");
    report.push("attack_p90_us", attack_median(0.90), "us");
    report.push(
        "cpu_us_per_req",
        books.window_median(|w| w.cpu_us_per_req()),
        "us",
    );
    report.push("peak_rss_mb", sys::peak_rss_mb(), "MB");
    report.push(
        "ok_frac",
        1.0 - ratio(tally.failed, tally.attempted),
        "frac",
    );
    eprintln!(
        "samples: benign={} attack={} answered={}",
        books.benign.len(),
        attacks.iter().map(LatencyHistogram::len).sum::<u64>(),
        books.tally.answered
    );
    verdict(&report, &tally, &problems)
}

/// The traced run: half the time untraced, half traced (the difference
/// is the tracing overhead), then the runtime's books and the
/// single-thread layer replay.
fn per_layer(args: &Args) -> bool {
    let (mut run, _) = Run::setup(args.workload, args.seed);
    let mut tally = Tally::default();
    let mut warm = Books::new(false);
    run.phase(warmup(args.seconds), &mut warm);
    tally.absorb(&warm.tally);

    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let c0 = sys::process_cpu_ns();
    let mut plain = Books::new(false);
    run.phase(half, &mut plain);
    let c1 = sys::process_cpu_ns();
    let mut traced = Books::new(true);
    run.phase(half, &mut traced);
    let c2 = sys::process_cpu_ns();
    tally.absorb(&plain.tally);
    tally.absorb(&traced.tally);
    let stats = run.finish();
    let problems = invariants(&stats, args.workload, &tally);

    let per_req = |cpu: u64, books: &Books| cpu as f64 / books.tally.answered.max(1) as f64;
    let served = stats.served();
    let wakeups = stats.wakeups();
    let hash_served: Vec<u64> = stats
        .workers
        .iter()
        .take(WORKERS)
        .map(|w| w.served)
        .collect();
    let spans = traced.spans.as_ref().expect("traced phase records spans");

    let mut report = Report::default();
    report.push(
        "dispatch.submit_ns_p50",
        traced.handoff.quantile(0.50) as f64,
        "ns",
    );
    report.push(
        "dispatch.submit_ns_p99",
        traced.handoff.quantile(0.99) as f64,
        "ns",
    );
    // Backpressure only: the queues' own shed count over submissions.
    // Admission refusals never reach a queue and are control's below.
    report.push(
        "dispatch.shed_frac",
        ratio(stats.shed, stats.submitted + stats.shed),
        "frac",
    );
    report.push(
        "control.attack_refused_frac",
        ratio(tally.exploits_refused, tally.exploits),
        "frac",
    );
    report.push(
        "control.benign_refused",
        (tally.admission_refused - tally.exploits_refused) as f64,
        "count",
    );
    report.push(
        "worker.busy_us_per_req",
        stats.workers.iter().map(|w| w.busy_ns).sum::<u64>() as f64 / served.max(1) as f64 / 1e3,
        "us",
    );
    report.push("worker.wakeups_per_req", ratio(wakeups, served), "count");
    report.push(
        "worker.parks_per_req",
        ratio(stats.parks(), served),
        "count",
    );
    report.push("queue.pending_mean", traced.pending_mean(), "count");
    let ok_latency = stats.ok_latency();
    report.push("server.ok_us_p50", us(ok_latency.quantile(0.50)), "us");
    report.push("server.ok_us_p99", us(ok_latency.quantile(0.99)), "us");
    report.push("client.lat_p99_us", us(traced.benign.quantile(0.99)), "us");
    report.push(
        "client.lat_p999_us",
        us(traced.benign.quantile(0.999)),
        "us",
    );
    report.push(
        "domain.created",
        stats.workers.iter().map(|w| w.domains_created as f64).sum(),
        "count",
    );
    report.push("iso.pool_rebuilds", stats.pool_rebuilds() as f64, "count");
    report.push(
        "iso.worker_restarts",
        stats.worker_restarts() as f64,
        "count",
    );
    report.push(
        "iso.domains_retired",
        stats.domains_retired() as f64,
        "count",
    );
    // Restart downtime the runtime charges to its books without spending
    // it: the wall-clock metrics leave it out.
    report.push(
        "iso.modeled_downtime_s",
        stats.modeled_downtime().as_secs_f64(),
        "s",
    );
    report.push(
        "arena.reuse_frac",
        ratio(stats.arena_reuses(), stats.arena_acquires()),
        "frac",
    );
    report.push(
        "arena.fresh_allocs_per_req",
        ratio(stats.arena_fresh_allocs(), served),
        "count",
    );
    report.push(
        "conn.served_per_wakeup",
        ratio(stats.conn_served(), wakeups),
        "count",
    );
    report.push("conn.aborted", stats.aborted_requests() as f64, "count");
    let mean = hash_served.iter().sum::<u64>() as f64 / hash_served.len() as f64;
    let busiest = hash_served.iter().copied().max().unwrap_or(0) as f64;
    report.push("conn.shard_skew", busiest / mean.max(1.0), "ratio");
    report.push("gen.late_us_p99", us(traced.late.quantile(0.99)), "us");
    report.push(
        "trace.overhead_frac",
        per_req(c2 - c1, &traced) / per_req(c1 - c0, &plain) - 1.0,
        "frac",
    );
    report.push(
        "trace.request_self_us_p50",
        us(spans.self_time.quantile(0.50)),
        "us",
    );
    report.push(
        "trace.request_self_us_p99",
        us(spans.self_time.quantile(0.99)),
        "us",
    );
    if let Some(path) = &args.spans {
        if let Err(err) = spans.write_csv(path) {
            eprintln!("could not write spans to {}: {err}", path.display());
        }
    }
    let contained = stats.contained_latency();
    let observed = Observed {
        tick_ns: traced.elapsed.as_nanos() as f64 / traced.tally.attempted.max(1) as f64,
        ok_ns: ok_latency.quantile(0.50),
        fault_ns: (!contained.is_empty()).then(|| contained.quantile(0.50)),
    };
    replay(args.workload, args.seed, &observed, &mut report);
    verdict(&report, &tally, &problems)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\nusage: sdrad-perfbench --workload <kv-paced|kv-hostile|http-conn> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]");
            return ExitCode::from(2);
        }
    };
    sdrad::quiet_fault_traps();
    eprintln!(
        "workload={} seed={} seconds={} trace={} workers={WORKERS} cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let correct = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
