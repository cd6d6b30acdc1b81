//! Criterion bench behind experiment E21: shard-queue op latency under
//! contention, swept across contender counts.
//!
//! The mutex-era queue serialized three parties on one lock — the
//! producer's `try_push`, the owner's drain, and every thief's
//! O(n·stolen) steal walk — so op latency grew with the contender
//! count. The lock-free plane gives each party its own structure
//! (MPSC inbox, owner batch, MPMC steal buffer), and these benches pin
//! the claim: the owner-side hand-off and the producer-side push must
//! stay flat as steal-storm threads are added.
//!
//! Thread counts are capped at the host's parallelism: on a one-core
//! runner extra contenders only measure the scheduler, not the queue.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdrad::ClientId;
use sdrad_runtime::{Request, ShardQueue};

/// Contender sweeps, clipped to the cores actually present.
fn sweep() -> Vec<usize> {
    let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    [0usize, 1, 3, 7]
        .into_iter()
        .filter(|&n| n == 0 || n < cores.max(2))
        .collect()
}

fn request() -> Request {
    Request::new(ClientId(0), vec![0], None)
}

/// Owner hand-off (push + publishing drain) while `thieves` threads
/// hammer the steal buffer.
fn owner_handoff(c: &mut Criterion) {
    let mut group = c.benchmark_group("e21/owner-handoff");
    for thieves in sweep() {
        group.bench_with_input(
            BenchmarkId::from_parameter(thieves),
            &thieves,
            |b, &thieves| {
                let queue = Arc::new(ShardQueue::new(4096));
                let stop = Arc::new(AtomicBool::new(false));
                let storm: Vec<_> = (0..thieves)
                    .map(|_| {
                        let queue = Arc::clone(&queue);
                        let stop = Arc::clone(&stop);
                        thread::spawn(move || {
                            while !stop.load(Ordering::Relaxed) {
                                if queue.steal_where(8, |_| true).is_empty() {
                                    thread::yield_now();
                                }
                            }
                        })
                    })
                    .collect();
                b.iter(|| {
                    for _ in 0..4 {
                        let _ = queue.try_push(request());
                    }
                    std::hint::black_box(queue.drain_publishing(4, |_| true));
                });
                stop.store(true, Ordering::SeqCst);
                for handle in storm {
                    handle.join().unwrap();
                }
            },
        );
    }
    group.finish();
}

/// Producer-side `try_push` while an owner drains and `thieves`
/// threads steal — the op the mutex design convoyed worst, since a
/// steal walk held the lock the producer needed.
fn producer_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("e21/producer-push");
    for thieves in sweep() {
        group.bench_with_input(
            BenchmarkId::from_parameter(thieves),
            &thieves,
            |b, &thieves| {
                let queue = Arc::new(ShardQueue::new(4096));
                let stop = Arc::new(AtomicBool::new(false));
                let mut storm = Vec::new();
                {
                    // The owner: keeps the queue from saturating and
                    // feeds the steal buffer.
                    let queue = Arc::clone(&queue);
                    let stop = Arc::clone(&stop);
                    storm.push(thread::spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            if queue.drain_publishing(16, |_| true).is_empty() {
                                thread::yield_now();
                            }
                        }
                    }));
                }
                for _ in 0..thieves {
                    let queue = Arc::clone(&queue);
                    let stop = Arc::clone(&stop);
                    storm.push(thread::spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            if queue.steal_where(8, |_| true).is_empty() {
                                thread::yield_now();
                            }
                        }
                    }));
                }
                b.iter(|| std::hint::black_box(queue.try_push(request())));
                stop.store(true, Ordering::SeqCst);
                for handle in storm {
                    handle.join().unwrap();
                }
            },
        );
    }
    group.finish();
}

criterion_group!(benches, owner_handoff, producer_push);
criterion_main!(benches);
