//! Timing wrappers the traced run passes to the library's public entry
//! points. They time calls *into* a layer from outside it; nothing here
//! changes what the wrapped layer computes (the tests below pin that).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use booster_dist::proto::{OP_BUILD_HIST, OP_FOLD_LOSS, OP_PART, OP_TRAVERSE};
use booster_dist::{Comm, CommStats, DistError};
use booster_gbdt::columnar::{ColumnRef, ColumnarMirror};
use booster_gbdt::gradients::{GradPair, Loss};
use booster_gbdt::histogram::NodeHistogram;
use booster_gbdt::preprocess::BinnedDataset;
use booster_gbdt::split::SplitRule;
use booster_gbdt::train::StepExecutor;
use booster_gbdt::tree::Tree;

fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Busy time and work counts of one executor, summed over a training
/// run. Relaxed atomics: these are statistics read after the run ends,
/// and they publish no other data.
#[derive(Debug, Default)]
pub struct ExecTimes {
    /// Step 1 (`bin_records`) busy nanoseconds, calls, and histogram
    /// updates (rows × fields, the executor's own return value).
    pub hist_ns: AtomicU64,
    pub hist_calls: AtomicU64,
    pub hist_updates: AtomicU64,
    /// Step 3 (`partition`) busy nanoseconds and rows partitioned.
    pub part_ns: AtomicU64,
    pub part_rows: AtomicU64,
    /// Step 5 (`traverse_update`) busy nanoseconds, calls, and
    /// tree-table lookups (the returned path-length sum).
    pub trav_ns: AtomicU64,
    pub trav_calls: AtomicU64,
    pub trav_lookups: AtomicU64,
}

impl ExecTimes {
    fn get(a: &AtomicU64) -> u64 {
        a.load(Ordering::Relaxed)
    }

    /// Seconds spent inside the executor, all three steps together.
    pub fn busy_s(&self) -> f64 {
        (Self::get(&self.hist_ns) + Self::get(&self.part_ns) + Self::get(&self.trav_ns)) as f64
            * 1e-9
    }

    pub fn hist_s(&self) -> f64 {
        Self::get(&self.hist_ns) as f64 * 1e-9
    }

    pub fn part_s(&self) -> f64 {
        Self::get(&self.part_ns) as f64 * 1e-9
    }

    pub fn trav_s(&self) -> f64 {
        Self::get(&self.trav_ns) as f64 * 1e-9
    }

    /// The work counts, which must repeat exactly for equal inputs:
    /// `[hist_calls, hist_updates, part_rows, trav_calls, trav_lookups]`.
    pub fn counts(&self) -> [u64; 5] {
        [
            Self::get(&self.hist_calls),
            Self::get(&self.hist_updates),
            Self::get(&self.part_rows),
            Self::get(&self.trav_calls),
            Self::get(&self.trav_lookups),
        ]
    }
}

/// A [`StepExecutor`] that forwards every step to `inner` and adds the
/// call's wall time and work count to `times`.
pub struct TimedExec<'a> {
    pub inner: &'a dyn StepExecutor,
    pub times: ExecTimes,
}

impl<'a> TimedExec<'a> {
    pub fn new(inner: &'a dyn StepExecutor) -> Self {
        TimedExec { inner, times: ExecTimes::default() }
    }
}

impl StepExecutor for TimedExec<'_> {
    fn bin_records(
        &self,
        data: &BinnedDataset,
        columnar: &ColumnarMirror,
        rows: &[u32],
        grads: &[GradPair],
        hist: &mut NodeHistogram,
    ) -> u64 {
        let t = Instant::now();
        let updates = self.inner.bin_records(data, columnar, rows, grads, hist);
        let tm = &self.times;
        tm.hist_ns.fetch_add(nanos_since(t), Ordering::Relaxed);
        tm.hist_calls.fetch_add(1, Ordering::Relaxed);
        tm.hist_updates.fetch_add(updates, Ordering::Relaxed);
        updates
    }

    fn partition(
        &self,
        rows: &[u32],
        column: ColumnRef<'_>,
        field: usize,
        rule: SplitRule,
        default_left: bool,
        absent_bin: u32,
    ) -> (Vec<u32>, Vec<u32>) {
        let t = Instant::now();
        let halves = self.inner.partition(rows, column, field, rule, default_left, absent_bin);
        let tm = &self.times;
        tm.part_ns.fetch_add(nanos_since(t), Ordering::Relaxed);
        tm.part_rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
        halves
    }

    fn traverse_update(
        &self,
        data: &BinnedDataset,
        tree: &Tree,
        loss: Loss,
        labels: &[f32],
        margins: &mut [f64],
        grads: &mut [GradPair],
    ) -> (u64, f64) {
        let t = Instant::now();
        let (paths, total_loss) =
            self.inner.traverse_update(data, tree, loss, labels, margins, grads);
        let tm = &self.times;
        tm.trav_ns.fetch_add(nanos_since(t), Ordering::Relaxed);
        tm.trav_calls.fetch_add(1, Ordering::Relaxed);
        tm.trav_lookups.fetch_add(paths, Ordering::Relaxed);
        (paths, total_loss)
    }
}

/// The request ops whose replies the coordinator waits for, with the
/// metric each one's wait time is reported as.
pub const WAIT_OPS: [(u8, &str); 4] = [
    (OP_BUILD_HIST, "comm.wait_s.build_hist"),
    (OP_PART, "comm.wait_s.part"),
    (OP_TRAVERSE, "comm.wait_s.traverse"),
    (OP_FOLD_LOSS, "comm.wait_s.fold_loss"),
];

/// Coordinator-side transport time of one distributed run.
#[derive(Debug, Default, Clone)]
pub struct CommTimes {
    /// Nanoseconds inside `send`.
    pub send_ns: u64,
    /// Nanoseconds inside `recv`, keyed by the op of the request last
    /// sent to that worker (index into [`WAIT_OPS`]; replies to other
    /// ops — init, shutdown — are not attributed).
    pub wait_ns: [u64; 4],
}

/// A [`Comm`] that forwards to `inner` and records send and receive
/// time into a shared [`CommTimes`]: `train_distributed` consumes the
/// transport, so the timings must outlive it.
pub struct TimedComm<C: Comm> {
    inner: C,
    times: Arc<Mutex<CommTimes>>,
    last_op: Vec<u8>,
}

impl<C: Comm> TimedComm<C> {
    pub fn new(inner: C) -> (Self, Arc<Mutex<CommTimes>>) {
        let times = Arc::new(Mutex::new(CommTimes::default()));
        let last_op = vec![0; inner.num_workers()];
        (TimedComm { inner, times: Arc::clone(&times), last_op }, times)
    }
}

impl<C: Comm> Comm for TimedComm<C> {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn send(&mut self, worker: usize, payload: &[u8]) -> Result<(), DistError> {
        let t = Instant::now();
        let sent = self.inner.send(worker, payload);
        self.times.lock().expect("timing lock poisoned").send_ns += nanos_since(t);
        self.last_op[worker] = payload.first().copied().unwrap_or(0);
        sent
    }

    fn recv(&mut self, worker: usize) -> Result<Vec<u8>, DistError> {
        let t = Instant::now();
        let reply = self.inner.recv(worker);
        let ns = nanos_since(t);
        if let Some(i) = WAIT_OPS.iter().position(|&(op, _)| op == self.last_op[worker]) {
            self.times.lock().expect("timing lock poisoned").wait_ns[i] += ns;
        }
        reply
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use booster_datagen::{generate_binned, Benchmark};
    use booster_dist::{train_distributed, ChannelComm, ShardPlan};
    use booster_gbdt::gradients::Objective;
    use booster_gbdt::parallel::ParallelExec;
    use booster_gbdt::serialize::model_to_bytes;
    use booster_gbdt::train::{train_with, SequentialExec, TrainConfig};

    use super::*;

    fn cfg(objective: Objective) -> TrainConfig {
        TrainConfig { num_trees: 4, max_depth: 4, objective, ..Default::default() }
    }

    #[test]
    fn timed_exec_passes_models_through_unchanged() {
        let (data, mirror) = generate_binned(Benchmark::Higgs, 3_000, 5);
        let cfg = cfg(Objective::Logistic);
        let (plain, plain_report) = train_with(&data, &mirror, &cfg, &SequentialExec);
        for inner in [&SequentialExec as &dyn StepExecutor, &ParallelExec::default()] {
            let timed = TimedExec::new(inner);
            let (model, report) = train_with(&data, &mirror, &cfg, &timed);
            assert_eq!(model_to_bytes(&model), model_to_bytes(&plain));
            assert_eq!(report.loss_history, plain_report.loss_history);
            let [calls, updates, rows, trav, lookups] = timed.times.counts();
            assert!(calls > 0 && rows > 0 && trav == 4);
            assert_eq!(updates, report.work.step1_updates);
            assert_eq!(lookups, report.work.step5_lookups);
        }
    }

    #[test]
    fn timed_comm_passes_traffic_through_unchanged() {
        let (data, mirror) = generate_binned(Benchmark::Higgs, 3_000, 6);
        let cfg = cfg(Objective::Logistic);
        let plan = ShardPlan::even(data.num_records(), 2);
        let spawn =
            || ChannelComm::spawn(plan.shard(&data).expect("shard"), Duration::from_secs(30));
        let plain = train_distributed(&data, &mirror, &cfg, spawn(), &plan).expect("plain run");
        let (comm, times) = TimedComm::new(spawn());
        let timed = train_distributed(&data, &mirror, &cfg, comm, &plan).expect("timed run");
        assert_eq!(model_to_bytes(&timed.model), model_to_bytes(&plain.model));
        let (a, b) = (&timed.stats.comm, &plain.stats.comm);
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.frames_received, b.frames_received);
        assert_eq!(a.payload_bytes_sent, b.payload_bytes_sent);
        assert_eq!(a.payload_bytes_received, b.payload_bytes_received);
        assert_eq!(a.bytes_by_op, b.bytes_by_op);
        assert_eq!(a.frame_log, b.frame_log);
        let times = times.lock().expect("timing lock").clone();
        assert!(times.wait_ns.iter().all(|&ns| ns > 0), "every request op waited: {times:?}");
    }
}
