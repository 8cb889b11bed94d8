//! A persistent thread that works next to its caller, one owned job at a
//! time.
//!
//! A thread spawned per job is an unreliable helper: on the 2-core
//! development host a fresh `std::thread::scope` thread sometimes shares
//! its spawner's core for its first milliseconds — longer than half an
//! attention instance takes — and spawning one per instance left a whole
//! `long-decode` run without any speedup one time in five, 5 % behind a
//! persistent thread the other four. A thread that already exists and is
//! woken through a channel gives ×1.6–1.9 from 0.3 ms halves up, for a
//! handoff of 40–70 µs. So a helper is started by the first caller with
//! enough work to use it and parked on its channel between jobs. It is
//! never joined at exit — the process ending is what stops it — but a
//! helper that dies is joined where its death is seen.
//!
//! Jobs are owned, so there is nothing shared to get wrong: the caller
//! copies in what the work reads, the helper writes into the job's own
//! buffers and sends the whole job back, and the job is kept for its
//! buffers until the next one is lent.
//!
//! One job uses it: a share of the attention instances of one serving step
//! ([`lend`](super::lend)), through one process-wide [`HelperSlot`] behind a
//! mutex that is only ever `try_lock`ed, so no caller waits for the helper
//! except the one whose job it holds. The lifecycle is generic over the job
//! type `J` only so that its own tests can drive it with a toy job.

use std::mem;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

/// A running helper thread and the channel pair that feeds it. Both
/// channels hold one job: one job is in flight at a time, so a send never
/// waits and the helper itself never allocates.
#[derive(Debug)]
pub(super) struct Helper<J> {
    jobs: SyncSender<J>,
    done: Receiver<J>,
    thread: JoinHandle<()>,
    /// The last job back, kept for its buffers.
    spare: Option<J>,
}

impl<J: Send + 'static> Helper<J> {
    /// Starts a thread called `name` that runs `work` on each job and
    /// sends it back.
    ///
    /// # Errors
    ///
    /// Returns the operating system's error if the thread cannot be
    /// spawned.
    pub(super) fn spawn(name: &str, work: fn(&mut J)) -> std::io::Result<Self> {
        let (jobs, inbox) = sync_channel::<J>(1);
        let (outbox, done) = sync_channel::<J>(1);
        let thread = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                for mut job in inbox {
                    work(&mut job);
                    if outbox.send(job).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Self {
            jobs,
            done,
            thread,
            spare: None,
        })
    }

    /// This helper with its job channel closed, the state a thread that
    /// ended unseen leaves behind: dropping the only sender ends the
    /// thread's loop, and the receiver of the sender put in its place is
    /// already gone. For tests of a caller's fallback.
    #[cfg(test)]
    pub(super) fn ended(mut self) -> Self {
        self.jobs = sync_channel(1).0;
        self
    }
}

/// A helper's lifecycle. Whoever holds the slot's lock owns the helper for
/// one job; everyone else does their own work.
#[derive(Debug)]
pub(super) enum HelperSlot<J> {
    /// No caller has had enough work to want a helper yet. The first one
    /// starts a thread called `name` running `work`.
    Unstarted {
        /// The thread's name.
        name: &'static str,
        /// What the thread runs on each job.
        work: fn(&mut J),
    },
    /// A helper parked on its channel or working on the holder's job.
    Running(Helper<J>),
    /// One core, a failed spawn, or a helper that died: never retried.
    Absent,
}

impl<J: Send + 'static> HelperSlot<J> {
    fn start(name: &str, work: fn(&mut J)) -> Self {
        // On one core the helper would run the same work on the same core
        // and add its handoff.
        let cores = thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if cores < 2 {
            return Self::Absent;
        }
        Helper::spawn(name, work).map_or(Self::Absent, Self::Running)
    }

    /// Hands the helper the job `fill` builds — from the last job back, if
    /// there is one, so its buffers are reused — starting the thread on
    /// first use. `false` means there is no helper, `fill` was not called
    /// or its job is lost, and the caller does the work itself.
    pub(super) fn lend(&mut self, fill: impl FnOnce(Option<J>) -> J) -> bool {
        if let Self::Unstarted { name, work } = *self {
            *self = Self::start(name, work);
        }
        let Self::Running(helper) = self else {
            return false;
        };
        if helper.jobs.send(fill(helper.spare.take())).is_err() {
            self.retire();
            return false;
        }
        true
    }

    /// Waits for the job last lent and shows it to `take` before keeping
    /// it for the next [`lend`](Self::lend). `false` means the helper died
    /// holding the job: `take` was not called and the caller does the work
    /// itself.
    pub(super) fn collect(&mut self, take: impl FnOnce(&mut J)) -> bool {
        let Self::Running(helper) = self else {
            return false;
        };
        let Ok(mut job) = helper.done.recv() else {
            self.retire();
            return false;
        };
        take(&mut job);
        helper.spare = Some(job);
        true
    }

    /// A closed channel means the thread is gone or unwinding. Reap it and
    /// stop using a helper; its panic, if any, has already been reported
    /// by the panic hook, so the join result carries nothing new.
    fn retire(&mut self) {
        if let Self::Running(helper) = mem::replace(self, Self::Absent) {
            let Helper {
                jobs, done, thread, ..
            } = helper;
            // Closed first, so a thread still parked on them wakes and ends.
            drop((jobs, done));
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job that records what was done to it.
    #[derive(Debug, Default)]
    struct Doubling {
        input: Vec<u32>,
        output: Vec<u32>,
    }

    fn double(job: &mut Doubling) {
        job.output.clear();
        job.output.extend(job.input.iter().map(|v| v * 2));
    }

    fn lend_and_collect(slot: &mut HelperSlot<Doubling>, input: &[u32]) -> Option<Vec<u32>> {
        let lent = slot.lend(|spare| {
            let mut job = spare.unwrap_or_default();
            job.input.clear();
            job.input.extend_from_slice(input);
            job
        });
        let mut output = None;
        (lent && slot.collect(|job| output = Some(job.output.clone()))).then_some(())?;
        output
    }

    #[test]
    fn a_job_comes_back_worked_on_and_is_kept_for_its_buffers() {
        let mut slot = HelperSlot::Running(Helper::spawn("test-helper", double).expect("spawn"));
        assert_eq!(lend_and_collect(&mut slot, &[1, 2, 3]), Some(vec![2, 4, 6]));
        let HelperSlot::Running(helper) = &slot else {
            panic!("the helper stays");
        };
        let kept = helper
            .spare
            .as_ref()
            .expect("the job is kept")
            .input
            .as_ptr();
        // The next job is built from the one kept: same allocation.
        let mut reused = None;
        assert!(slot.lend(|spare| {
            let job = spare.expect("spare");
            reused = Some(job.input.as_ptr());
            job
        }));
        assert!(slot.collect(|_| ()));
        assert_eq!(reused, Some(kept));
    }

    #[test]
    fn an_unstarted_slot_starts_on_first_use_or_reads_absent_on_one_core() {
        let mut slot = HelperSlot::Unstarted {
            name: "test-helper",
            work: double,
        };
        let cores = thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let result = lend_and_collect(&mut slot, &[5]);
        if cores < 2 {
            assert_eq!(result, None);
            assert!(matches!(slot, HelperSlot::Absent));
        } else {
            assert_eq!(result, Some(vec![10]));
            assert!(matches!(slot, HelperSlot::Running(_)));
        }
    }

    #[test]
    fn a_panicking_or_ended_helper_leaves_the_slot_absent() {
        let panicking = Helper::spawn("test-helper", |_: &mut Doubling| {
            panic!("helper down (expected by this test)")
        });
        let ended = Helper::spawn("test-helper", double).map(Helper::ended);
        for helper in [panicking, ended] {
            let mut slot = HelperSlot::Running(helper.expect("spawn"));
            for _ in 0..2 {
                assert_eq!(lend_and_collect(&mut slot, &[1]), None);
                assert!(matches!(slot, HelperSlot::Absent));
            }
        }
    }
}
