//! Single-thread replay of a workload's generated inputs through each
//! layer's public functions — the per-layer costs of the traced run.
//!
//! The inputs are regenerated from the run's seed, so each layer sees
//! exactly the requests the timed run sent. Layers the workload's own
//! stream never reaches (the http functions on a kv workload, and the
//! kv functions on `http-conn`) are replayed on the sibling generator's
//! stream from the same seed, so every traced run reports every layer.
//! Calls far cheaper than a clock read are timed in batches of
//! [`BATCH`] and reported per call.

use std::hint::black_box;
use std::time::Instant;

use sdrad::{ClientId, DomainError};
use sdrad_control::{Admission, ControlConfig, ControlPlane};
use sdrad_httpd::{decode_chunked_in_domain, parse_request};
use sdrad_kvstore::{apply_op, parse_command, stage_command, Store, StoreConfig};
use sdrad_mpk::{Pkru, PkruGuard};
use sdrad_net::duplex;
use sdrad_runtime::{IsolationMode, RuntimeConfig, WorkerIsolation};

use crate::gen::{exploit_payload, HttpGen, KvGen, KvKind, KvOp, Rng};
use crate::kv::{PROBE_SALT, WORKERS};
use crate::report::{Report, Samples};
use crate::Workload;

/// Calls per timed batch for the cheap functions.
const BATCH: usize = 16;
/// Kv requests replayed.
const KV_OPS: usize = 20_000;
/// Http requests replayed.
const HTTP_OPS: usize = 4_000;
/// Faulting calls replayed.
const REWINDS: usize = 500;
/// PKRU switch batches.
const SWITCHES: usize = 2_000;

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// What the timed run measured that the control replay feeds back to
/// the plane, so it decides on the mix the workload produces.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    /// Time between offered requests in the traced phase, ns: the
    /// injected clock advances this much per request.
    pub tick_ns: f64,
    /// Median server-side latency of normally served requests, ns.
    pub ok_ns: u64,
    /// Median server-side latency of contained faults, ns; `None` when
    /// the run had none, and the replayed rewind stands in.
    pub fault_ns: Option<u64>,
}

/// Times `call` over `inputs` in batches, one sample per batch, per call.
fn batched<T>(inputs: &[T], mut call: impl FnMut(&T)) -> Samples {
    let mut samples = Samples::default();
    for batch in inputs.chunks_exact(BATCH) {
        let start = Instant::now();
        for input in batch {
            call(input);
        }
        samples.push(ns_since(start) / BATCH as f64);
    }
    samples
}

/// Replays `workload`'s inputs for `seed` and adds every layer's
/// quartiles to `report`.
pub fn replay(workload: Workload, seed: u64, observed: &Observed, report: &mut Report) {
    let mut kv_gen = match workload {
        Workload::KvHostile => KvGen::hostile(seed),
        Workload::KvPaced | Workload::HttpConn => KvGen::paced(seed),
    };
    let kv_ops: Vec<KvOp> = (0..KV_OPS).map(|_| kv_gen.next_op()).collect();
    let mut http_gen = HttpGen::new(seed);
    let http_ops: Vec<Vec<u8>> = (0..HTTP_OPS).map(|_| http_gen.next_op().payload).collect();
    let uploads: Vec<Vec<u8>> = http_ops
        .iter()
        .filter_map(|frame| parse_request(frame).ok())
        .filter(|(request, _)| request.chunked)
        .map(|(request, _)| request.body)
        .collect();
    let kv_payloads: Vec<&[u8]> = kv_ops.iter().map(|op| op.payload.as_slice()).collect();
    let own_frames: Vec<&[u8]> = match workload {
        Workload::HttpConn => http_ops.iter().map(Vec::as_slice).collect(),
        _ => kv_payloads.clone(),
    };

    // kvstore: parsing.
    report.quartiles(
        "kv.parse_ns",
        &batched(&kv_payloads, |payload| {
            black_box(parse_command(black_box(payload)).is_ok());
        }),
        "ns",
        false,
    );

    // core: a domain call staging one request, then the store applying
    // the intent it returns.
    // Sized like a worker of the timed runtime.
    let config = RuntimeConfig::new(WORKERS, IsolationMode::PerClientDomain);
    let mut iso = WorkerIsolation::new(
        IsolationMode::PerClientDomain,
        config.domains_per_worker,
        config.domain_heap,
    );
    let mut store = Store::new(StoreConfig::default());
    let (mut call, mut apply) = (Samples::default(), Samples::default());
    for op in kv_ops.iter().filter(|op| op.kind != KvKind::Exploit) {
        let (cmd, _) = parse_command(&op.payload).expect("generated requests parse");
        let start = Instant::now();
        let staged = iso.call_for(ClientId(op.client), |env| stage_command(env, cmd));
        call.push(ns_since(start));
        let staged = staged.expect("benign requests do not fault");
        let start = Instant::now();
        black_box(apply_op(&mut store, staged));
        apply.push(ns_since(start));
    }
    report.quartiles("domain.call_ns", &call, "ns", true);
    report.quartiles("kv.apply_ns", &apply, "ns", false);

    // core: a faulting xstat call, rewound. The hostile stream's own
    // exploits when it has them.
    let mut rng = Rng::new(seed ^ PROBE_SALT);
    let exploits: Vec<(u64, Vec<u8>)> = kv_ops
        .iter()
        .filter(|op| op.kind == KvKind::Exploit)
        .map(|op| (op.client, op.payload.clone()))
        .chain(std::iter::repeat_with(|| {
            (1 << 24, exploit_payload(&mut rng))
        }))
        .take(REWINDS)
        .collect();
    let mut rewind = Samples::default();
    for (client, payload) in &exploits {
        let (cmd, _) = parse_command(payload).expect("generated exploits parse");
        let start = Instant::now();
        let outcome = iso.call_for(ClientId(*client), |env| stage_command(env, cmd));
        rewind.push(ns_since(start) / 1e3);
        assert!(
            matches!(outcome, Err(DomainError::Violation { .. })),
            "every exploit faults and is rewound"
        );
    }
    report.quartiles("domain.rewind_us", &rewind, "us", true);

    // mpk: one PKRU switch in and out.
    let rights = Pkru::root_only();
    let mut switch = Samples::default();
    for _ in 0..SWITCHES {
        let start = Instant::now();
        for _ in 0..BATCH {
            drop(black_box(PkruGuard::enter(black_box(rights))));
        }
        switch.push(ns_since(start) / BATCH as f64);
    }
    report.quartiles("mpk.pkru_switch_ns", &switch, "ns", false);

    // mpk: copying the workload's data through a domain heap, per KiB:
    // set values for kv, upload chunk streams for http.
    let copied: Vec<Vec<u8>> = match workload {
        Workload::HttpConn => uploads.clone(),
        _ => kv_ops
            .iter()
            .filter_map(|op| match op.kind {
                KvKind::Set { len, .. } => Some(op.payload[op.payload.len() - 2 - len..].to_vec()),
                _ => None,
            })
            .collect(),
    };
    let mut copy = Samples::default();
    iso.call_for(ClientId(1), |env| {
        for data in &copied {
            let start = Instant::now();
            let at = env.push_bytes(data);
            black_box(env.read_bytes(at, data.len()));
            env.free(at);
            copy.push(ns_since(start) * 1024.0 / data.len() as f64);
        }
    })
    .expect("copies stay inside the domain heap");
    report.quartiles("mpk.copy_ns_per_kib", &copy, "ns/KiB", false);

    // control: admission and observation on an injected clock ticking
    // at the traced phase's request rate, with its server latencies.
    let at = |request: usize| (request as f64 * observed.tick_ns) as u64;
    let ok_ns = observed.ok_ns;
    let fault_ns = observed
        .fault_ns
        .unwrap_or(ok_ns + (rewind.quantile(0.5) * 1e3) as u64);
    let state_bytes = store.stats().bytes;
    let domains = u32::try_from(config.domains_per_worker).expect("a few domains per worker");
    let mut plane = ControlPlane::new(ControlConfig::default());
    let (mut admit, mut observe) = (Samples::default(), Samples::default());
    for (index, batch) in kv_ops.chunks_exact(BATCH).enumerate() {
        let base = index * BATCH;
        let mut decisions = [Admission::Deny; BATCH];
        let start = Instant::now();
        for (slot, op) in batch.iter().enumerate() {
            decisions[slot] = plane.admit(op.client, at(base + slot));
        }
        admit.push(ns_since(start) / BATCH as f64);
        let start = Instant::now();
        let mut observations = 0;
        for (slot, op) in batch.iter().enumerate() {
            let now = at(base + slot);
            let shard = (op.client % WORKERS as u64) as usize;
            match (decisions[slot], op.kind) {
                (Admission::Admit | Admission::Quarantine, KvKind::Exploit) => {
                    black_box(plane.observe_fault(
                        shard,
                        op.client,
                        fault_ns,
                        now,
                        state_bytes,
                        domains,
                    ));
                }
                (Admission::Admit | Admission::Quarantine, _) => {
                    plane.observe_ok(shard, op.client, ok_ns, now);
                }
                _ => continue,
            }
            observations += 1;
        }
        if observations > 0 {
            observe.push(ns_since(start) / f64::from(observations));
        }
    }
    report.quartiles("control.admit_ns", &admit, "ns", true);
    report.quartiles("control.observe_ns", &observe, "ns", false);

    // httpd: parsing, and the chunked decoder inside a domain per KiB.
    report.quartiles(
        "http.parse_ns",
        &batched(&http_ops, |frame| {
            black_box(parse_request(black_box(frame)).is_ok());
        }),
        "ns",
        false,
    );
    let mut decode = Samples::default();
    iso.call_for(ClientId(2), |env| {
        for body in &uploads {
            let start = Instant::now();
            let decoded = decode_chunked_in_domain(env, black_box(body));
            decode.push(ns_since(start) * 1024.0 / decoded.max(1) as f64);
        }
    })
    .expect("benign uploads decode without faulting");
    report.quartiles("http.decode_ns_per_kib", &decode, "ns/KiB", false);

    // net: one write of a request frame onto an in-memory connection.
    let (mut client, mut server) = duplex();
    let mut sink = Vec::new();
    let mut write = Samples::default();
    for batch in own_frames.chunks_exact(BATCH) {
        let start = Instant::now();
        for frame in batch {
            client.write(frame);
        }
        write.push(ns_since(start) / BATCH as f64);
        server.read_available_into(&mut sink);
        sink.clear();
    }
    report.quartiles("net.write_ns", &write, "ns", false);
}
