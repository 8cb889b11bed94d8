//! The one persistent thread that fills key rows next to their caller.
//!
//! A thread spawned per instance is an unreliable helper: on the 2-core
//! development host a fresh `std::thread::scope` thread sometimes shares
//! its spawner's core for its first milliseconds — longer than a
//! half-instance takes — and spawning one per instance left a whole
//! `long-decode` run without any speedup one time in five, 5 % behind a
//! persistent thread the other four. A thread that already exists and is
//! woken through a channel gives ×1.6–1.9 from 0.3 ms halves up, for a
//! handoff of 40–70 µs. So there is one helper per process, started by the
//! first instance large enough to use it and parked on its channel
//! between jobs. It is never joined at exit — the process ending is what
//! stops it — but a helper that dies is joined where its death is seen.
//!
//! Jobs are owned ([`RowJob`]), so there is nothing shared to get wrong:
//! the caller copies in what the rows read, the helper appends to the
//! job's own buffer and sends the whole job back, and the buffers are
//! kept for the next job.

use std::mem;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

use rand::rngs::StdRng;

use super::Projection;

/// A run of key rows to fill: everything [`fill_rows`](super::fill_rows)
/// reads, owned, and the buffer it appends to.
#[derive(Debug)]
pub(super) struct RowJob {
    /// Positioned at the run's first row.
    pub rng: StdRng,
    pub query: Vec<f32>,
    pub proj: Projection,
    /// The run's target scores, one per row.
    pub scores: Vec<f64>,
    /// The filled rows, row-major.
    pub keys: Vec<f32>,
}

/// A running helper thread and the channel pair that feeds it. Both
/// channels hold one job: one job is in flight at a time, so a send never
/// waits and the helper itself never allocates.
#[derive(Debug)]
pub(super) struct Helper {
    jobs: SyncSender<RowJob>,
    done: Receiver<RowJob>,
    thread: JoinHandle<()>,
    /// The last job back, kept for its three buffers.
    spare: Option<RowJob>,
}

impl Helper {
    /// Starts a thread that runs `work` on each job and sends it back.
    pub(super) fn spawn(work: fn(&mut RowJob)) -> std::io::Result<Self> {
        let (jobs, inbox) = sync_channel::<RowJob>(1);
        let (outbox, done) = sync_channel::<RowJob>(1);
        let thread = thread::Builder::new()
            .name("topick-key-rows".into())
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

    /// This helper with its job channel closed: dropping the only sender
    /// ends the thread's loop, and the receiver of the sender put in its
    /// place is already gone.
    #[cfg(test)]
    pub(super) fn ended(mut self) -> Self {
        self.jobs = sync_channel(1).0;
        self
    }
}

/// The helper's lifecycle. Whoever holds the slot's lock owns the helper
/// for one instance; everyone else fills their own rows.
#[derive(Debug)]
pub(super) enum HelperSlot {
    /// No instance has been large enough to want a helper yet.
    Unstarted,
    Running(Helper),
    /// One core, a failed spawn, or a helper that died: never retried.
    Absent,
}

impl HelperSlot {
    fn start() -> Self {
        // On one core the helper would run the same work on the same core
        // and add its handoff.
        let cores = thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if cores < 2 {
            return Self::Absent;
        }
        Helper::spawn(super::fill_job).map_or(Self::Absent, Self::Running)
    }

    /// Hands the rows realizing `scores` to the helper, starting it on
    /// first use. `false` means there is no helper and the caller fills
    /// them itself.
    pub(super) fn lend(
        &mut self,
        rng: StdRng,
        query: &[f32],
        proj: Projection,
        scores: &[f64],
    ) -> bool {
        if matches!(self, Self::Unstarted) {
            *self = Self::start();
        }
        let Self::Running(helper) = self else {
            return false;
        };
        let mut job = match helper.spare.take() {
            Some(spare) => RowJob { rng, proj, ..spare },
            None => RowJob {
                rng,
                query: Vec::new(),
                proj,
                scores: Vec::new(),
                keys: Vec::new(),
            },
        };
        job.query.clear();
        job.query.extend_from_slice(query);
        job.scores.clear();
        job.scores.extend_from_slice(scores);
        job.keys.clear();
        job.keys.reserve(scores.len() * query.len());
        if helper.jobs.send(job).is_err() {
            self.retire();
            return false;
        }
        true
    }

    /// Waits for the rows last lent and appends them to `keys`. `false`
    /// means the helper died holding them: `keys` is untouched and the
    /// caller fills them itself.
    pub(super) fn collect_into(&mut self, keys: &mut Vec<f32>) -> bool {
        let Self::Running(helper) = self else {
            return false;
        };
        let Ok(job) = helper.done.recv() else {
            self.retire();
            return false;
        };
        keys.extend_from_slice(&job.keys);
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
