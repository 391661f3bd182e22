//! A dependency-free work-stealing thread pool for static job sets.
//!
//! Built on `std::thread::scope` and channels only. Each worker owns a
//! deque; jobs are dealt up front in contiguous blocks, so neighbouring
//! jobs (a sweep's schemes for one workload) run back to back on one
//! worker and share its per-thread caches; a worker drains its own
//! deque from the front and, when empty, steals from the *back* of the
//! others (the classic arrangement: owners and thieves touch opposite
//! ends, so contention stays low and long tails get shared). Because the
//! job set is static — nothing enqueues work after start — an empty full
//! scan means the worker is done, which makes termination trivial.
//!
//! Results are streamed to the caller's `on_result` callback on the
//! calling thread, tagged with the job's submission index so callers can
//! re-order completions deterministically.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

/// Runs `jobs` across `threads` workers, invoking `run` for each job and
/// `on_result(index, job, output)` on the calling thread as completions
/// stream in (in completion order, not submission order).
///
/// `run` must be pure with respect to the job — the whole harness's
/// determinism story rests on that.
pub fn run_jobs<J, T>(
    jobs: Vec<J>,
    threads: usize,
    run: impl Fn(&J) -> T + Sync,
    mut on_result: impl FnMut(usize, J, T),
) where
    J: Send,
    T: Send,
{
    if jobs.is_empty() {
        return;
    }
    let threads = threads.clamp(1, jobs.len());
    let queues = deal(jobs, threads);

    let (tx, rx) = mpsc::channel::<(usize, J, T)>();
    std::thread::scope(|scope| {
        for me in 0..threads {
            let tx = tx.clone();
            let queues = &queues;
            let run = &run;
            scope.spawn(move || {
                while let Some((index, job)) = next_job(queues, me) {
                    let output = run(&job);
                    if tx.send((index, job, output)).is_err() {
                        return; // receiver gone; nothing useful left to do
                    }
                }
            });
        }
        drop(tx); // `rx` ends once every worker's sender is dropped
        for (index, job, output) in rx {
            on_result(index, job, output);
        }
    });
}

/// One worker's deque of `(submission index, job)`.
type Queue<J> = Mutex<VecDeque<(usize, J)>>;

/// Splits `jobs` into `threads` deques of contiguous index blocks whose
/// sizes differ by at most one.
fn deal<J>(jobs: Vec<J>, threads: usize) -> Vec<Queue<J>> {
    let len = jobs.len();
    let mut queues: Vec<VecDeque<(usize, J)>> = (0..threads).map(|_| VecDeque::new()).collect();
    for (index, job) in jobs.into_iter().enumerate() {
        queues[index * threads / len].push_back((index, job));
    }
    queues.into_iter().map(Mutex::new).collect()
}

/// Pop from our own front, else steal from someone else's back.
fn next_job<J>(queues: &[Queue<J>], me: usize) -> Option<(usize, J)> {
    if let Some(job) = queues[me].lock().unwrap().pop_front() {
        return Some(job);
    }
    let n = queues.len();
    for offset in 1..n {
        if let Some(job) = queues[(me + offset) % n].lock().unwrap().pop_back() {
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_job_runs_exactly_once() {
        for threads in [1usize, 2, 7, 32] {
            let jobs: Vec<u64> = (0..103).collect();
            let mut seen = HashSet::new();
            run_jobs(
                jobs,
                threads,
                |&j| j * 2,
                |index, job, out| {
                    assert_eq!(out, job * 2);
                    assert!(seen.insert(index), "index {index} delivered twice");
                },
            );
            assert_eq!(seen.len(), 103, "threads={threads}");
        }
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One giant job dealt to worker 0's deque plus many small ones:
        // with stealing, more than one worker must end up running jobs.
        let worker_ids = Mutex::new(HashSet::new());
        let spin = AtomicUsize::new(0);
        let jobs: Vec<usize> = (0..64).collect();
        run_jobs(
            jobs,
            4,
            |&j| {
                worker_ids
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id());
                if j == 0 {
                    // Busy-hold worker 0 long enough for thieves to arrive.
                    for _ in 0..3_000_000 {
                        spin.fetch_add(1, Ordering::Relaxed);
                    }
                }
                j
            },
            |_, _, _| {},
        );
        assert!(worker_ids.lock().unwrap().len() > 1, "no stealing happened");
    }

    #[test]
    fn jobs_are_dealt_in_contiguous_blocks() {
        for (len, threads) in [(60usize, 4usize), (60, 7), (5, 4), (103, 32), (9, 1)] {
            let queues = deal((0..len).collect::<Vec<_>>(), threads);
            assert_eq!(queues.len(), threads);
            let blocks: Vec<Vec<usize>> = queues
                .into_iter()
                .map(|q| {
                    q.into_inner()
                        .unwrap()
                        .into_iter()
                        .map(|(i, _)| i)
                        .collect()
                })
                .collect();
            assert_eq!(
                blocks.concat(),
                (0..len).collect::<Vec<_>>(),
                "len={len} threads={threads}: blocks are not contiguous and in order"
            );
            let sizes = blocks.iter().map(Vec::len);
            let spread = sizes.clone().max().unwrap() - sizes.min().unwrap();
            assert!(spread <= 1, "len={len} threads={threads}: uneven deal");
        }
    }

    #[test]
    fn empty_and_single_job_sets_are_fine() {
        run_jobs(
            Vec::<u8>::new(),
            8,
            |_| 0,
            |_, _, _| panic!("no jobs to deliver"),
        );
        let mut count = 0;
        run_jobs(
            vec![5u8],
            8,
            |&j| j,
            |index, job, out| {
                assert_eq!((index, job, out), (0, 5, 5));
                count += 1;
            },
        );
        assert_eq!(count, 1);
    }
}
