//! A small work-stealing thread pool for sweep cells.
//!
//! Every job is enqueued before the workers start (sweeps never spawn
//! new cells mid-run), so the pool is deliberately simple: each worker
//! owns a deque seeded round-robin, pops work from its own front, and
//! steals from the *back* of a neighbour's deque when it runs dry.
//! Stealing from the opposite end keeps contention low and tends to
//! move the large, still-cold tail jobs to idle workers.
//!
//! Results are written into their input slot, so output order equals
//! input order no matter which worker ran what — scheduling decides
//! only wall-clock, never results (the property the byte-identity
//! tests pin down).

use std::collections::VecDeque;
use std::sync::Mutex;

/// Map `jobs` across `workers` OS threads, preserving input order.
///
/// `f` receives `(index, job)`. With `workers == 1` this degrades to a
/// plain serial loop on one spawned thread — the reference execution
/// the determinism property test compares against.
pub fn map_indexed<T, R, F>(jobs: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);

    let deques: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % workers]
            .lock()
            .expect("seed deque lock")
            .push_back((i, job));
    }

    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let f = &f;
            s.spawn(move || loop {
                // Own queue first (front: cache-friendly FIFO within a
                // worker), then steal from a neighbour's back.
                let mut job = deques[w].lock().expect("own deque lock").pop_front();
                if job.is_none() {
                    for off in 1..workers {
                        let victim = (w + off) % workers;
                        job = deques[victim].lock().expect("victim deque lock").pop_back();
                        if job.is_some() {
                            break;
                        }
                    }
                }
                match job {
                    Some((i, t)) => {
                        let r = f(i, t);
                        *slots[i].lock().expect("result slot lock") = Some(r);
                    }
                    // Every deque was empty; since no job enqueues new
                    // work, the pool is draining and this worker is done.
                    None => break,
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every job completed")
        })
        .collect()
}

/// Default worker count: the machine's available parallelism, or 4
/// when the platform cannot report it.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_worker_counts() {
        let expect: Vec<i64> = (0..97).map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 97, 200] {
            let out = map_indexed((0..97).collect(), workers, |_, x: i64| x * x);
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn index_matches_job() {
        let out = map_indexed((0..50).collect(), 4, |i, x: usize| (i, x));
        for (i, &(ri, rx)) in out.iter().enumerate() {
            assert_eq!((ri, rx), (i, i));
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = map_indexed(Vec::<u8>::new(), 8, |_, x| x);
        assert!(out.is_empty());
    }
}
