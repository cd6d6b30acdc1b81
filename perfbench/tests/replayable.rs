//! The generators are replayable: a seed names one byte-identical
//! request stream, and different seeds name different streams.

use sdrad_perfbench::gen::{fnv64, site, HttpGen, KvGen, KvKind, OFFENDER_BASE};

/// Fingerprint of the first `n` requests of a kv stream: ids and bytes.
fn kv_stream(mut gen: KvGen, n: usize) -> u64 {
    let mut bytes = Vec::new();
    for _ in 0..n {
        let op = gen.next_op();
        bytes.extend_from_slice(&op.client.to_le_bytes());
        bytes.extend_from_slice(&op.payload);
    }
    fnv64(&bytes)
}

fn http_stream(mut gen: HttpGen, n: usize) -> u64 {
    let bytes: Vec<u8> = (0..n).flat_map(|_| gen.next_op().payload).collect();
    fnv64(&bytes)
}

#[test]
fn same_seed_gives_the_same_stream() {
    for seed in [0, 1, 42, u64::MAX] {
        assert_eq!(
            kv_stream(KvGen::paced(seed), 5_000),
            kv_stream(KvGen::paced(seed), 5_000)
        );
        assert_eq!(
            kv_stream(KvGen::hostile(seed), 5_000),
            kv_stream(KvGen::hostile(seed), 5_000)
        );
        assert_eq!(
            http_stream(HttpGen::new(seed), 500),
            http_stream(HttpGen::new(seed), 500)
        );
        assert_eq!(site(seed), site(seed));
    }
}

#[test]
fn different_seeds_give_different_streams() {
    assert_ne!(
        kv_stream(KvGen::paced(1), 1_000),
        kv_stream(KvGen::paced(2), 1_000)
    );
    assert_ne!(
        kv_stream(KvGen::hostile(1), 1_000),
        kv_stream(KvGen::hostile(2), 1_000)
    );
    assert_ne!(
        http_stream(HttpGen::new(1), 100),
        http_stream(HttpGen::new(2), 100)
    );
    assert_ne!(site(1), site(2));
}

#[test]
fn hostile_stream_has_the_specified_mix() {
    let mut gen = KvGen::hostile(7);
    let ops: Vec<_> = (0..100_000).map(|_| gen.next_op()).collect();
    let exploits: Vec<_> = ops.iter().filter(|op| op.kind == KvKind::Exploit).collect();
    let share = exploits.len() as f64 / ops.len() as f64;
    assert!((0.045..0.055).contains(&share), "exploit share {share}");
    // Offenders rotate: every run is a fresh id firing 6–20 exploits.
    let mut runs: Vec<(u64, usize)> = Vec::new();
    for op in &exploits {
        assert!(op.client > OFFENDER_BASE);
        match runs.last_mut() {
            Some((client, count)) if *client == op.client => *count += 1,
            _ => runs.push((op.client, 1)),
        }
    }
    assert!(runs.windows(2).all(|pair| pair[1].0 == pair[0].0 + 1));
    assert!(runs[..runs.len() - 1]
        .iter()
        .all(|&(_, n)| (6..=20).contains(&n)));
    let sets = ops
        .iter()
        .filter(|op| matches!(op.kind, KvKind::Set { .. }))
        .count();
    let set_share = sets as f64 / (ops.len() - exploits.len()) as f64;
    assert!((0.09..0.11).contains(&set_share), "set share {set_share}");
}

#[test]
fn paced_stream_has_no_exploits() {
    let mut gen = KvGen::paced(3);
    assert!((0..50_000).all(|_| gen.next_op().kind != KvKind::Exploit));
}
