//! Input set-up, the training rounds, and batch scoring.

use std::time::{Duration, Instant};

use booster_datagen::{generate, generate_multiclass, generate_ranking, split_dataset, Benchmark};
use booster_dist::proto::{OP_BUILD_HIST, OP_HIST_DONE};
use booster_dist::{train_distributed, ChannelComm, ShardPlan};
use booster_gbdt::columnar::ColumnarMirror;
use booster_gbdt::compile::CompiledEnsemble;
use booster_gbdt::dataset::Dataset;
use booster_gbdt::gradients::Objective;
use booster_gbdt::parallel::ParallelExec;
use booster_gbdt::predict::Model;
use booster_gbdt::preprocess::BinnedDataset;
use booster_gbdt::serialize::model_to_bytes;
use booster_gbdt::train::{train_with, SequentialExec, StepExecutor, TrainConfig, TrainReport};

use crate::instruments::{ExecTimes, TimedComm, TimedExec, WAIT_OPS};
use crate::metrics::Values;
use crate::workload::{
    Scored, Workload, DIST_WORKERS, NUM_CLASS, WIDE_DEPTH, WIDE_RECORDS, WIDE_TREES,
};
use crate::{median, secs, Tally};

/// Bound on every distributed receive; far above any healthy reply.
const DIST_TIMEOUT: Duration = Duration::from_secs(60);

/// A binned training set with its mirror.
pub struct TrainSet {
    pub data: BinnedDataset,
    pub mirror: ColumnarMirror,
}

/// A training set plus a held-out split binned with the training
/// binnings, kept raw as well for the serving phases.
pub struct Split {
    pub train: TrainSet,
    pub held: BinnedDataset,
    pub held_raw: Dataset,
}

/// Every input a workload trains and scores on.
pub struct Inputs {
    pub scalar: Split,
    pub softmax: Split,
    pub rank: TrainSet,
    /// The served model's inputs; its held-out part is the serving
    /// record pool.
    pub wide: Split,
}

/// Seconds spent in each set-up layer, summed over the inputs.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub bin_s: f64,
    pub mirror_s: f64,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += secs(t);
    r
}

fn mirror_of(data: BinnedDataset, st: &mut SetupTimes) -> TrainSet {
    let mirror = timed(&mut st.mirror_s, || ColumnarMirror::from_binned(&data));
    TrainSet { data, mirror }
}

/// Bin `ds` into a training set and a held-out split of `held_frac`.
fn split(ds: Dataset, held_frac: f64, seed: u64, st: &mut SetupTimes) -> Split {
    let (train, held_raw) = timed(&mut st.generate_s, || split_dataset(&ds, held_frac, seed));
    let data = timed(&mut st.bin_s, || BinnedDataset::from_dataset(&train));
    let held = timed(&mut st.bin_s, || {
        BinnedDataset::from_dataset_with_binnings(&held_raw, data.binnings().to_vec())
    });
    Split { train: mirror_of(data, st), held, held_raw }
}

/// Generate and bin every input of `w` from `seed`.
pub fn prepare(w: &Workload, seed: u64) -> (Inputs, SetupTimes) {
    let mut st = SetupTimes::default();
    let s = w.scalar;
    let ds = timed(&mut st.generate_s, || generate(s.data, s.records * 5 / 4, seed));
    let scalar = split(ds, 0.2, seed, &mut st);
    let ds =
        timed(&mut st.generate_s, || generate_multiclass(w.softmax.0 * 5 / 4, NUM_CLASS, seed));
    let softmax = split(ds, 0.2, seed, &mut st);
    let (ds, groups) = timed(&mut st.generate_s, || generate_ranking(w.rank.0, seed));
    let mut data = timed(&mut st.bin_s, || BinnedDataset::from_dataset(&ds));
    data.set_query_groups(groups);
    let rank = mirror_of(data, &mut st);
    // Four held-out rows per training row: the batch-scoring set.
    let ds = timed(&mut st.generate_s, || generate(Benchmark::Higgs, WIDE_RECORDS * 5, seed));
    let wide = split(ds, 0.8, seed, &mut st);
    (Inputs { scalar, softmax, rank, wide }, st)
}

/// Resident bin bytes of a training set: the row-major matrix plus the
/// columnar mirror, from their public layouts.
fn bin_bytes(t: &TrainSet) -> u64 {
    let (n, nf) = (t.data.num_records() as u64, t.data.num_fields() as u64);
    let width = |packed: bool| if packed { 1 } else { 4 };
    let row_major = n * nf * width(t.data.is_packed());
    let mirror: u64 = (0..t.mirror.num_fields()).map(|f| n * width(t.mirror.is_packed(f))).sum();
    row_major + mirror
}

impl Inputs {
    pub fn bin_bytes(&self) -> u64 {
        [&self.scalar.train, &self.softmax.train, &self.rank, &self.wide.train]
            .into_iter()
            .map(bin_bytes)
            .sum()
    }

    /// The split the batch-scored model was trained on; its held-out
    /// part is the batch-scoring set.
    pub fn scored_split(&self, w: &Workload) -> &Split {
        match w.scored {
            Scored::Scalar => &self.scalar,
            Scored::Softmax => &self.softmax,
        }
    }
}

pub fn scalar_config(w: &Workload) -> TrainConfig {
    TrainConfig {
        num_trees: w.scalar.trees,
        max_depth: w.scalar.depth,
        objective: Objective::Logistic,
        ..Default::default()
    }
}

fn softmax_config(w: &Workload) -> TrainConfig {
    TrainConfig {
        num_trees: w.softmax.1,
        objective: Objective::Softmax { num_class: NUM_CLASS },
        ..Default::default()
    }
}

fn rank_config(w: &Workload) -> TrainConfig {
    TrainConfig { num_trees: w.rank.1, objective: Objective::LambdaRank, ..Default::default() }
}

/// Train the served wide model (untimed preparation).
pub fn train_wide(inputs: &Inputs) -> Model {
    let cfg = TrainConfig {
        num_trees: WIDE_TREES,
        max_depth: WIDE_DEPTH,
        objective: Objective::Logistic,
        ..Default::default()
    };
    let t = &inputs.wide.train;
    train_with(&t.data, &t.mirror, &cfg, &SequentialExec).0
}

fn loss_decreased(r: &TrainReport) -> bool {
    matches!((r.loss_history.first(), r.loss_history.last()), (Some(a), Some(b)) if b < a)
        && r.loss_history.len() > 1
}

/// One run of `exec` over a training set: wall seconds, model, report.
fn fit(t: &TrainSet, cfg: &TrainConfig, exec: &dyn StepExecutor) -> (f64, Model, TrainReport) {
    let start = Instant::now();
    let (model, report) = train_with(&t.data, &t.mirror, cfg, exec);
    (secs(start), model, report)
}

/// [`fit`] through a [`TimedExec`] over `inner`: also returns the
/// executor's busy time and work counts.
fn fit_traced(
    t: &TrainSet,
    cfg: &TrainConfig,
    inner: &dyn StepExecutor,
) -> (f64, Model, ExecTimes) {
    let timed = TimedExec::new(inner);
    let (wall, model, _) = fit(t, cfg, &timed);
    (wall, model, timed.times)
}

/// Distributed N=2 training over channels, timed from sharding to
/// worker teardown (what a caller of `train_distributed` waits for).
fn fit_dist(
    t: &TrainSet,
    cfg: &TrainConfig,
    traced: Option<&mut Values>,
    tally: &mut Tally,
) -> Option<(f64, Model)> {
    let start = Instant::now();
    let plan = ShardPlan::even(t.data.num_records(), DIST_WORKERS);
    let shards = match plan.shard(&t.data) {
        Ok(s) => s,
        Err(e) => {
            tally.check(false, &format!("shard: {e}"));
            return None;
        }
    };
    let comm = ChannelComm::spawn(shards, DIST_TIMEOUT);
    let (outcome, times) = match traced {
        None => (train_distributed(&t.data, &t.mirror, cfg, comm, &plan), None),
        Some(_) => {
            let (comm, times) = TimedComm::new(comm);
            (train_distributed(&t.data, &t.mirror, cfg, comm, &plan), Some(times))
        }
    };
    let wall = secs(start);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            tally.check(false, &format!("distributed training: {e}"));
            return None;
        }
    };
    if let (Some(v), Some(times)) = (traced, times) {
        let times = times.lock().expect("timing lock poisoned").clone();
        v.set("comm.send_s", times.send_ns as f64 * 1e-9);
        for ((_, name), ns) in WAIT_OPS.iter().zip(times.wait_ns) {
            v.set(name, ns as f64 * 1e-9);
        }
        let s = outcome.stats.summary();
        let c = &outcome.stats.comm;
        v.set("comm.frames", s.frames as f64);
        v.set("comm.payload_bytes", s.payload_bytes as f64);
        v.set(
            "comm.step1_payload_bytes",
            (c.bytes_for_op(OP_BUILD_HIST) + c.bytes_for_op(OP_HIST_DONE)) as f64,
        );
    }
    Some((wall, outcome.model))
}

/// A job repeats within a round until it has run this long, so the
/// light jobs give a few samples per round and the heavy ones one.
/// Short, so that rounds are many: the VM's speed switches between two
/// modes about 2x apart every second or so, and a run's medians settle
/// with the number of separate moments its samples come from.
const MIN_JOB_S: f64 = 0.05;

fn repeat(mut job: impl FnMut() -> f64) {
    let mut spent = 0.0;
    while spent < MIN_JOB_S {
        spent += job();
    }
}

/// The training stage of one run: every round trains each job, checks
/// each model against the first round's bytes, and keeps the samples.
pub struct Trainer<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    trace: bool,
    /// Model bytes of the first scalar, softmax and rank run; every
    /// later run, on any executor, must reproduce them.
    reference: [Option<Vec<u8>>; 3],
    /// The first scalar and softmax models (candidates for scoring).
    pub scalar_model: Option<Model>,
    pub softmax_model: Option<Model>,
    pub seq_s: Vec<f64>,
    pub par_s: Vec<f64>,
    pub dist_s: Vec<f64>,
    pub softmax_s: Vec<f64>,
    pub rank_s: Vec<f64>,
    pub infer_s: Vec<f64>,
    /// Traced runs: the per-layer values of each round, and each
    /// round's traced-over-untraced wall time minus 1.
    pub traced: Vec<Values>,
    pub overhead: Vec<f64>,
}

const SCALAR: usize = 0;
const SOFTMAX: usize = 1;
const RANK: usize = 2;

impl<'a> Trainer<'a> {
    pub fn new(w: &'a Workload, inputs: &'a Inputs, trace: bool) -> Self {
        Trainer {
            w,
            inputs,
            trace,
            reference: [None, None, None],
            scalar_model: None,
            softmax_model: None,
            seq_s: Vec::new(),
            par_s: Vec::new(),
            dist_s: Vec::new(),
            softmax_s: Vec::new(),
            rank_s: Vec::new(),
            infer_s: Vec::new(),
            traced: Vec::new(),
            overhead: Vec::new(),
        }
    }

    /// Compare `model` with the reference of `job` (the first model of
    /// that job becomes the reference).
    fn check_model(&mut self, job: usize, model: &Model, what: &str, tally: &mut Tally) {
        let bytes = model_to_bytes(model).to_vec();
        match &self.reference[job] {
            Some(r) => {
                tally.check(&bytes == r, &format!("{what} model differs from the reference"))
            }
            None => {
                self.reference[job] = Some(bytes);
                match job {
                    SCALAR => self.scalar_model = Some(model.clone()),
                    SOFTMAX => self.softmax_model = Some(model.clone()),
                    _ => {}
                }
            }
        }
    }

    /// An untraced sequential run of `job`, checked; returns its wall time.
    fn sequential(&mut self, job: usize, tally: &mut Tally) -> f64 {
        let (set, cfg, name) = match job {
            SCALAR => (&self.inputs.scalar.train, scalar_config(self.w), "sequential"),
            SOFTMAX => (&self.inputs.softmax.train, softmax_config(self.w), "softmax"),
            _ => (&self.inputs.rank, rank_config(self.w), "lambdarank"),
        };
        let (wall, model, report) = fit(set, &cfg, &SequentialExec);
        tally.check(loss_decreased(&report), &format!("{name} training loss decreases"));
        self.check_model(job, &model, name, tally);
        wall
    }

    /// One round: the sequential jobs, each repeated for at least
    /// [`MIN_JOB_S`]. The first untraced round also trains the scalar job
    /// on `ParallelExec` and distributed, once, to check their models;
    /// those two are timed only by traced runs (see `metrics.rs`), so
    /// untraced runs spend their time on more rounds of the rest.
    pub fn round(&mut self, tally: &mut Tally) {
        if self.trace {
            self.traced_round(tally);
            return;
        }
        repeat(|| {
            let s = self.sequential(SCALAR, tally);
            self.seq_s.push(s);
            s
        });
        if self.par_s.is_empty() {
            let inputs = self.inputs;
            let (scalar, cfg) = (&inputs.scalar.train, scalar_config(self.w));
            let (s, model, _) = fit(scalar, &cfg, &ParallelExec::default());
            self.check_model(SCALAR, &model, "parallel", tally);
            self.par_s.push(s);
            if let Some((s, model)) = fit_dist(scalar, &cfg, None, tally) {
                self.check_model(SCALAR, &model, "distributed", tally);
                self.dist_s.push(s);
            }
        }
        repeat(|| {
            let s = self.sequential(SOFTMAX, tally);
            self.softmax_s.push(s);
            s
        });
        repeat(|| {
            let s = self.sequential(RANK, tally);
            self.rank_s.push(s);
            s
        });
    }

    /// Every job once through the timing wrappers, plus the sequential
    /// jobs once untraced for the overhead ratio.
    fn traced_round(&mut self, tally: &mut Tally) {
        let mut v = Values::default();
        let (w, inputs) = (self.w, self.inputs);
        let cfg = scalar_config(w);
        let scalar = &inputs.scalar.train;

        let (traced_s, model, t) = fit_traced(scalar, &cfg, &SequentialExec);
        self.check_model(SCALAR, &model, "traced sequential", tally);
        let mut untraced_s = self.sequential(SCALAR, tally);
        let [calls, updates, rows, trav_calls, lookups] = t.counts();
        v.set("seq.histogram_s", t.hist_s());
        v.set("seq.histogram_calls", calls as f64);
        v.set("seq.histogram_updates", updates as f64);
        v.set("seq.partition_s", t.part_s());
        v.set("seq.partition_rows", rows as f64);
        v.set("seq.traverse_s", t.trav_s());
        v.set("seq.traverse_calls", trav_calls as f64);
        v.set("seq.traverse_lookups", lookups as f64);
        v.set("seq.grow_self_s", traced_s - t.busy_s());

        let (par_s, model, t) = fit_traced(scalar, &cfg, &ParallelExec::default());
        self.check_model(SCALAR, &model, "traced parallel", tally);
        self.par_s.push(par_s);
        v.set("par.histogram_s", t.hist_s());
        v.set("par.partition_s", t.part_s());
        v.set("par.traverse_s", t.trav_s());
        v.set("par.grow_self_s", par_s - t.busy_s());

        if let Some((dist_s, model)) = fit_dist(scalar, &cfg, Some(&mut v), tally) {
            self.check_model(SCALAR, &model, "traced distributed", tally);
            self.dist_s.push(dist_s);
        }

        let mut traced_total = traced_s;
        for (job, set, cfg, what, hist, own) in [
            (
                SOFTMAX,
                &inputs.softmax.train,
                softmax_config(w),
                "traced softmax",
                "softmax.histogram_s",
                "softmax.grow_self_s",
            ),
            (
                RANK,
                &inputs.rank,
                rank_config(w),
                "traced lambdarank",
                "rank.histogram_s",
                "rank.grow_self_s",
            ),
        ] {
            let (s, model, t) = fit_traced(set, &cfg, &SequentialExec);
            self.check_model(job, &model, what, tally);
            untraced_s += self.sequential(job, tally);
            traced_total += s;
            v.set(hist, t.hist_s());
            v.set(own, s - t.busy_s());
        }
        self.overhead.push(traced_total / untraced_s - 1.0);
        self.traced.push(v);
    }

    /// Batch-score the scored model's held-out split on the compiled
    /// program, checking every score against the node-walk `oracle`.
    pub fn infer(&mut self, compiled: &CompiledEnsemble, oracle: &[f64], tally: &mut Tally) {
        let inputs = self.inputs;
        let held = &inputs.scored_split(self.w).held;
        let mut out = vec![0.0; oracle.len()];
        repeat(|| {
            let t = Instant::now();
            if out.len() == held.num_records() {
                compiled.score_into(held, &mut out);
            } else {
                compiled.score_outputs_into(held, &mut out);
            }
            let s = secs(t);
            let same = out.iter().zip(oracle).all(|(a, b)| a.to_bits() == b.to_bits());
            tally.check(same, "compiled scores differ from the node walk");
            self.infer_s.push(s);
            s
        });
    }

    /// The medians of the traced rounds. Counts must repeat exactly.
    pub fn traced_medians(&self, v: &mut Values, tally: &mut Tally) {
        let Some(first) = self.traced.first() else { return };
        for &name in first.0.keys() {
            let xs: Vec<f64> = self.traced.iter().filter_map(|r| r.0.get(name).copied()).collect();
            if is_count(name) {
                tally.check(
                    xs.iter().all(|&x| x == xs[0]),
                    &format!("{name} differs between rounds"),
                );
            }
            v.set(name, median(xs));
        }
        v.set("trace.overhead_frac", median(self.overhead.clone()));
    }
}

fn is_count(name: &str) -> bool {
    crate::metrics::PER_LAYER
        .iter()
        .any(|d| d.name == name && (d.unit == "count" || d.unit == "bytes"))
}
