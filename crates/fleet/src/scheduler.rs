//! Checkpoint-preemptive scheduling: a worker pool time-slices many
//! simulations through quantum-of-cycles slices.
//!
//! **Preemption mechanism.** A job never holds a worker longer than one
//! quantum. Each slice (re)builds the job's engine purely from its spec,
//! resumes from the newest valid checkpoint in the job's own store (or
//! starts fresh when there is none), runs `min(quantum, remaining)` outer
//! cycles, and writes a checkpoint. Because engine resume is bitwise exact
//! (DESIGN.md §12) and the engine configuration is a pure function of the
//! spec, the trajectory a job traces is **identical for every quantum,
//! worker count, and interleaving** — scheduling decides only *when* the
//! cycles run, never *what* they compute.
//!
//! **Crash safety.** Slices are store-driven and self-healing: the only
//! authority on a job's progress is its newest valid checkpoint. The
//! persisted queue record is a (possibly slightly stale) index — if the
//! daemon dies between a slice's checkpoint write and its queue commit,
//! recovery resumes from the checkpoint and the record catches up at the
//! next commit. Nothing is lost; at worst a tail of cycles is re-run
//! bitwise-identically from the last checkpoint.

use crate::error::FleetError;
use crate::queue::{JobPhase, JobRecord, JobStatusView, PhaseTotals, QueueState, QueueStore};
use crate::spec::{JobId, JobSpec};
use anton_analysis::battery::Verifier;
use anton_ckpt::{fnv1a, CheckpointStore};
use anton_core::AntonSimulation;
use anton_trace::phase_summary;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};

/// How a fleet instance is laid out and sliced.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Root of all durable state: `<state_dir>/queue` holds the queue
    /// snapshots, `<state_dir>/jobs/<id>` each job's checkpoint store.
    pub state_dir: PathBuf,
    /// Outer cycles per slice before a job is preempted (min 1).
    pub quantum: u64,
    /// Concurrent slice workers (min 1).
    pub workers: usize,
    /// Rotated checkpoints kept per job.
    pub keep: usize,
}

impl FleetConfig {
    pub fn new(state_dir: impl Into<PathBuf>) -> FleetConfig {
        FleetConfig {
            state_dir: state_dir.into(),
            quantum: 4,
            workers: 1,
            keep: 3,
        }
    }

    /// Checkpoint-store directory of one job.
    pub fn job_dir(&self, id: JobId) -> PathBuf {
        self.state_dir.join("jobs").join(format!("{id}"))
    }

    fn queue_dir(&self) -> PathBuf {
        self.state_dir.join("queue")
    }
}

/// FNV-1a over the full fixed-point state image: the trajectory identity
/// used everywhere a fleet run is compared against a solo run.
pub fn state_checksum(sim: &AntonSimulation) -> u64 {
    fnv1a(sim.state.to_bytes().as_ref())
}

/// Worker termination policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Exit when every job is done (batch: `Fleet::run_to_completion`).
    Drain,
    /// Park when idle and wait for submissions until [`Fleet::stop`].
    Serve,
}

/// What one slice did, computed entirely outside the queue lock.
struct SliceOutcome {
    cycles_done: u64,
    done: bool,
    resumed: bool,
    ckpt_bytes: u64,
    final_checksum: u64,
    violations: u64,
    battery_samples: u64,
    /// Per-phase (index, spans, messages, bytes) deltas from this slice.
    phase_deltas: Vec<(u32, u64, u64, u64)>,
}

/// Mutable scheduler state, always accessed under the fleet lock.
struct Inner {
    queue: QueueState,
    /// Jobs currently out on a worker (in-memory only; never persisted).
    running: BTreeSet<JobId>,
    /// Jobs whose last slice failed for environmental reasons; excluded
    /// from claiming until a restart (in-memory only, so a restart
    /// retries them — right for transient I/O failures).
    failed: BTreeSet<JobId>,
    stopping: bool,
}

/// A fleet: the shared queue, its durable store, and the slicing rules.
/// Clone-free sharing is by reference (`std::thread::scope`).
pub struct Fleet {
    cfg: FleetConfig,
    store: QueueStore,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Fleet {
    /// Open (and recover) a fleet rooted at `cfg.state_dir`. Recovery
    /// takes the newest valid queue snapshot — a corrupted newest file
    /// falls back to the previous one — and reconciles each unfinished
    /// job's progress against its own checkpoint store, which is the
    /// authority after a crash.
    pub fn create(cfg: FleetConfig) -> Result<Fleet, FleetError> {
        let store = QueueStore::create(cfg.queue_dir())?;
        let mut queue = store.recover()?.unwrap_or_default();
        for (id, rec) in queue.jobs.iter_mut() {
            if rec.phase == JobPhase::Done {
                continue;
            }
            let probe = CheckpointStore::open(cfg.job_dir(*id), cfg.keep.max(1)).latest_valid();
            if let Ok((_, snap)) = probe {
                rec.cycles_done = snap.step / rec.spec.steps_per_cycle().max(1);
            }
        }
        Ok(Fleet {
            cfg,
            store,
            inner: Mutex::new(Inner {
                queue,
                running: BTreeSet::new(),
                failed: BTreeSet::new(),
                stopping: false,
            }),
            cv: Condvar::new(),
        })
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking worker must not wedge the daemon: the queue state is
        // persisted transactionally, so the data is consistent regardless.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Validate and enqueue a job; idempotent on identical specs. Returns
    /// (id, freshly inserted, position in the deterministic schedule).
    pub fn submit(&self, spec: JobSpec) -> Result<(JobId, bool, u64), FleetError> {
        let mut g = self.lock();
        let (id, fresh) = g.queue.submit(spec)?;
        if fresh {
            g.queue.revision += 1;
            self.store.persist(&g.queue)?;
            self.cv.notify_all();
        }
        let position = g.queue.position(id).unwrap_or(0);
        Ok((id, fresh, position))
    }

    pub fn status(&self, id: JobId) -> Result<JobStatusView, FleetError> {
        self.lock().queue.view(id)
    }

    pub fn list(&self) -> Vec<JobStatusView> {
        self.lock().queue.views()
    }

    pub fn summary(&self, id: JobId) -> Result<(JobStatusView, Vec<PhaseTotals>), FleetError> {
        let g = self.lock();
        let rec = g
            .queue
            .jobs
            .get(&id)
            .ok_or(FleetError::UnknownJob { id: id.0 })?;
        Ok((rec.view(), rec.phases.clone()))
    }

    /// (total jobs, queue revision) — the liveness headline.
    pub fn ping(&self) -> (u64, u64) {
        let g = self.lock();
        (g.queue.jobs.len() as u64, g.queue.revision)
    }

    /// True when nothing is runnable and nothing is out on a worker.
    pub fn idle(&self) -> bool {
        let g = self.lock();
        g.running.is_empty() && Self::claimable(&g).is_none()
    }

    /// Ask every worker to wind down after its current slice.
    pub fn stop(&self) {
        self.lock().stopping = true;
        self.cv.notify_all();
    }

    pub fn is_stopping(&self) -> bool {
        self.lock().stopping
    }

    /// First claimable job in schedule order: queued, not out on a
    /// worker, not failed. Pure function of the (set-derived) schedule
    /// order and the claim set — so with one worker the execution order
    /// *is* the schedule order, and with N workers the claim sequence is
    /// still deterministic even though slice completion order is not
    /// (harmless: trajectories do not depend on interleaving).
    fn claimable(g: &Inner) -> Option<JobId> {
        g.queue
            .runnable()
            .into_iter()
            .find(|id| !g.running.contains(id) && !g.failed.contains(id))
    }

    /// One worker: claim → slice → commit, until the mode says stop.
    pub fn worker_loop(&self, mode: RunMode) {
        loop {
            // Claim under the lock.
            let claim = {
                let mut g = self.lock();
                loop {
                    if g.stopping {
                        break None;
                    }
                    if let Some(id) = Self::claimable(&g) {
                        g.running.insert(id);
                        g.queue.jobs.get_mut(&id).unwrap().phase = JobPhase::Running;
                        break Some((id, g.queue.jobs[&id].spec.clone()));
                    }
                    if mode == RunMode::Drain && g.running.is_empty() {
                        break None; // every job done (or failed): drained
                    }
                    g = self
                        .cv
                        .wait(g)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            let Some((id, spec)) = claim else {
                self.cv.notify_all();
                return;
            };

            // Slice outside the lock: this is the long part.
            let outcome = run_job_slice(&self.cfg, id, &spec);

            // Commit under the lock.
            let mut g = self.lock();
            g.running.remove(&id);
            match outcome {
                Ok(out) => {
                    let rec = g.queue.jobs.get_mut(&id).unwrap();
                    apply_outcome(rec, &out);
                    g.queue.revision += 1;
                    let persist = self.store.persist(&g.queue);
                    drop(g);
                    if let Err(e) = persist {
                        eprintln!("fleet: queue persist failed: {e}");
                    }
                }
                Err(e) => {
                    eprintln!("fleet: slice for job {id} failed: {e}");
                    g.queue.jobs.get_mut(&id).unwrap().phase = JobPhase::Queued;
                    g.failed.insert(id);
                    drop(g);
                }
            }
            self.cv.notify_all();
        }
    }

    /// Batch mode: run `cfg.workers` workers until every job is done.
    pub fn run_to_completion(&self) {
        let n = self.cfg.workers.max(1);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| self.worker_loop(RunMode::Drain));
            }
        });
    }
}

/// Fold a slice outcome into the job's persistent record.
fn apply_outcome(rec: &mut JobRecord, out: &SliceOutcome) {
    rec.cycles_done = out.cycles_done;
    rec.ckpt_bytes = out.ckpt_bytes;
    if out.resumed {
        rec.resumes += 1;
    }
    if out.done {
        rec.phase = JobPhase::Done;
        rec.final_checksum = out.final_checksum;
        rec.violations = out.violations;
        rec.battery_samples = out.battery_samples;
    } else {
        rec.phase = JobPhase::Queued;
        rec.preemptions += 1;
    }
    for &(idx, spans, messages, bytes) in &out.phase_deltas {
        if let Some(t) = rec.phases.iter_mut().find(|t| t.phase == idx) {
            t.spans += spans;
            t.messages += messages;
            t.bytes += bytes;
        } else {
            rec.phases.push(PhaseTotals {
                phase: idx,
                spans,
                messages,
                bytes,
            });
        }
    }
}

/// Run one quantum of one job. Store-driven: progress is read from the
/// job's checkpoint store, never from the caller's bookkeeping.
fn run_job_slice(cfg: &FleetConfig, id: JobId, spec: &JobSpec) -> Result<SliceOutcome, FleetError> {
    let dir = cfg.job_dir(id);
    let keep = cfg.keep.max(1);
    let has_ckpt = has_valid_checkpoint(&dir, keep);
    let configured = |spec: &JobSpec| -> Result<_, FleetError> {
        Ok(spec
            .builder()?
            .checkpoint_dir(&dir)
            .checkpoint_keep(keep)
            .checkpoint_every(0))
    };
    let (mut sim, resumed) = if has_ckpt {
        (configured(spec)?.resume_from(&dir)?, true)
    } else {
        (configured(spec)?.build(), false)
    };

    let before = sim.cycle_count();
    let remaining = spec.cycles.saturating_sub(before);
    let slice = remaining.min(cfg.quantum.max(1));
    sim.run_cycles(slice as usize);
    let ckpt_bytes = sim.write_checkpoint()?;

    let cycles_done = sim.cycle_count();
    let done = cycles_done >= spec.cycles;
    let (final_checksum, violations, battery_samples) = if done {
        let mut v = Verifier::new(&sim);
        v.sample(&sim);
        (
            state_checksum(&sim),
            v.violations().len() as u64,
            v.samples(),
        )
    } else {
        (0, 0, 0)
    };

    let phase_deltas = sim
        .trace()
        .buf()
        .map(|buf| {
            phase_summary(buf)
                .iter()
                .map(|row| (row.phase.index() as u32, row.spans, row.messages, row.bytes))
                .collect()
        })
        .unwrap_or_default();

    Ok(SliceOutcome {
        cycles_done,
        done,
        resumed,
        ckpt_bytes,
        final_checksum,
        violations,
        battery_samples,
        phase_deltas,
    })
}

/// Does `dir` hold at least one fully-verifiable checkpoint?
fn has_valid_checkpoint(dir: &Path, keep: usize) -> bool {
    dir.is_dir() && CheckpointStore::open(dir, keep).latest_valid().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::JobPhase;

    fn spec(name: &str, cycles: u64, priority: u32) -> JobSpec {
        JobSpec {
            name: name.into(),
            n_waters: 24,
            box_edge: 14.0,
            placement_seed: 2,
            temperature_k: 300.0,
            velocity_seed: 9,
            cutoff: 6.5,
            mesh: 16,
            cycles,
            priority,
            nodes: 0,
            threads: 1,
        }
    }

    fn temp_fleet(tag: &str, quantum: u64, workers: usize) -> Fleet {
        let dir = std::env::temp_dir().join(format!(
            "anton-fleet-sched-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = FleetConfig::new(dir);
        cfg.quantum = quantum;
        cfg.workers = workers;
        Fleet::create(cfg).unwrap()
    }

    fn cleanup(f: &Fleet) {
        let _ = std::fs::remove_dir_all(&f.config().state_dir);
    }

    /// The uninterrupted reference trajectory for a spec.
    fn solo_checksum(spec: &JobSpec) -> u64 {
        let mut sim = spec.builder().unwrap().build();
        sim.run_cycles(spec.cycles as usize);
        state_checksum(&sim)
    }

    /// A node count the engine cannot build is refused at submission, so
    /// it never reaches the queue or a worker.
    #[test]
    fn submit_refuses_a_non_power_of_two_node_count() {
        let fleet = temp_fleet("nodes3", 1, 1);
        let mut s = spec("three-nodes", 2, 1);
        s.nodes = 3;
        let err = fleet.submit(s).unwrap_err();
        assert_eq!(err.kind(), "spec_invalid");
        assert!(fleet.list().is_empty(), "refused job was queued");
        assert_eq!(fleet.ping(), (0, 0), "refused job was persisted");
        cleanup(&fleet);
    }

    #[test]
    fn preempted_jobs_reach_the_solo_checksum() {
        let fleet = temp_fleet("preempt", 1, 1);
        let s = spec("sliced", 3, 0);
        let golden = solo_checksum(&s);
        let (id, fresh, _) = fleet.submit(s.clone()).unwrap();
        assert!(fresh);
        fleet.run_to_completion();
        let view = fleet.status(id).unwrap();
        assert_eq!(view.phase, JobPhase::Done);
        assert_eq!(view.cycles_done, 3);
        // quantum 1 over 3 cycles: two preemptions, two resumes.
        assert_eq!(view.preemptions, 2);
        assert_eq!(view.resumes, 2);
        assert_eq!(view.final_checksum, golden);
        assert_eq!(view.violations, 0);
        assert!(view.ckpt_bytes > 0);
        cleanup(&fleet);
    }

    #[test]
    fn recovery_resumes_from_job_checkpoints() {
        let dir = std::env::temp_dir().join(format!(
            "anton-fleet-sched-test-{}-recover",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = spec("recoverable", 4, 0);
        let golden = solo_checksum(&s);
        let id;
        {
            let mut cfg = FleetConfig::new(&dir);
            cfg.quantum = 1;
            let fleet = Fleet::create(cfg).unwrap();
            id = fleet.submit(s.clone()).unwrap().0;
            // Run exactly one slice by hand, then drop the fleet —
            // simulating a daemon that died mid-batch.
            let out = run_job_slice(fleet.config(), id, &s).unwrap();
            assert!(!out.done);
            assert_eq!(out.cycles_done, 1);
        }
        {
            let mut cfg = FleetConfig::new(&dir);
            cfg.quantum = 2;
            let fleet = Fleet::create(cfg).unwrap();
            // Reconciliation read the job store, not the stale record.
            assert_eq!(fleet.status(id).unwrap().cycles_done, 1);
            fleet.run_to_completion();
            let view = fleet.status(id).unwrap();
            assert_eq!(view.phase, JobPhase::Done);
            assert_eq!(view.final_checksum, golden);
            cleanup(&fleet);
        }
    }

    #[test]
    fn multiple_workers_drain_a_mixed_queue_deterministically() {
        let fleet = temp_fleet("mixed", 2, 3);
        let specs = [spec("aa", 2, 0), spec("bb", 3, 2), spec("cc", 1, 1)];
        let goldens: Vec<u64> = specs.iter().map(solo_checksum).collect();
        for s in &specs {
            fleet.submit(s.clone()).unwrap();
        }
        fleet.run_to_completion();
        assert!(fleet.idle());
        for (s, golden) in specs.iter().zip(&goldens) {
            let view = fleet.status(s.job_id()).unwrap();
            assert_eq!(view.phase, JobPhase::Done, "{}", s.name);
            assert_eq!(view.final_checksum, *golden, "{}", s.name);
            assert_eq!(view.violations, 0, "{}", s.name);
        }
        cleanup(&fleet);
    }
}
