//! Readiness-driven scheduling in one screen: workers park on per-shard
//! wake sets instead of polling connections, an idle runtime costs
//! nothing, a loaded shard's queue is rescued by work stealing, and a
//! silent connection is reaped like a TCP idle timeout.
//!
//! Run with: `cargo run --example event_driven`

use sdrad_bench::Report;
use sdrad_repro::core::ClientId;
use sdrad_repro::runtime::{ConnectionServer, IsolationMode, KvHandler, Runtime, RuntimeConfig};

fn main() {
    // --- park/wake instead of poll --------------------------------------
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.idle_reap_after = Some(3); // pump passes of silence allowed
    let server = ConnectionServer::start(config, |worker| {
        println!("worker {worker}: parking on its wake set (no poll loop)");
        KvHandler::default()
    });

    let mut alice = server.connect();
    let idler = server.connect(); // connects, then never says a word

    alice.write(b"set motd 5\r\nhello\r\nget motd\r\n");
    // Deterministic: quiesce until every worker is parked with nothing
    // pending, then read — no sleeps, no "stream looks quiet" windows.
    let bytes = server.await_response(&mut alice);
    assert_eq!(
        bytes,
        b"STORED\r\nVALUE motd 5\r\nhello\r\nEND\r\n".to_vec()
    );

    // A few more round trips; each is a wake, and each advances the
    // reaper's pass clock past the idler's allowance.
    for i in 0..4 {
        alice.write(format!("get key-{i}\r\n").as_bytes());
        let _ = server.await_response(&mut alice);
    }

    // The runtime slept between all of those exchanges — and the idle
    // window here costs nothing: nobody ticks, nobody polls, nobody
    // wakes.
    let before = server.runtime().wakeups();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let idle_wakeups = server.runtime().wakeups() - before;

    let stats = server.shutdown();
    let mut report = Report::new("event_driven", "readiness-driven scheduling");
    report.begin_table(
        "park/wake instead of poll",
        &[
            "served",
            "conns",
            "parks",
            "wakeups",
            "idle wakeups",
            "reaped",
        ],
    );
    report.row(&[
        stats.served().to_string(),
        stats.connections().to_string(),
        stats.parks().to_string(),
        stats.wakeups().to_string(),
        idle_wakeups.to_string(),
        stats.reaped().to_string(),
    ]);
    assert_eq!(idle_wakeups, 0, "an idle runtime never wakes");
    assert!(stats.parks() > 0);
    assert_eq!(stats.reaped(), 1, "the silent connection was reaped");
    assert!(!idler.is_open(), "the reaped peer observes the close");
    assert!(stats.reconciles());

    // --- work stealing off a hot shard ----------------------------------
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.work_stealing = true;
    config.queue_capacity = 4096;
    config.batch = 16;
    let runtime = Runtime::start(config, |_| KvHandler::default());
    let hot = (0u64..)
        .map(ClientId)
        .find(|c| runtime.shard_of(*c) == 0)
        .expect("some client maps to shard 0");
    for _ in 0..4000 {
        let _ = runtime.submit_detached(hot, b"get hot-key\r\n".to_vec());
    }
    let stats = runtime.shutdown();
    report.begin_table(
        "work stealing off a hot shard",
        &[
            "owner served",
            "sibling stole",
            "queues agree",
            "reconciles",
        ],
    );
    report.row(&[
        stats.workers[0].served.to_string(),
        stats.workers[1].steals.to_string(),
        stats.stolen_submits.to_string(),
        if stats.reconciles() { "yes" } else { "NO" }.into(),
    ]);
    report.print();
    assert_eq!(stats.served(), 4000, "stealing never loses a request");
    assert!(stats.reconciles());
}
