//! The three workloads. Every workload runs the same stages — a scalar
//! training job (sequential, `ParallelExec`, distributed N=2), a K=5
//! softmax job, a LambdaRank job, batch scoring of a held-out split,
//! and four serving phases — so that every metric is defined on every
//! workload. What differs is the size of each stage, and so which layer
//! dominates the run: the paper's finding (Fig 6) is that the
//! bottleneck moves with the data's shape, and Anghel et al. benchmark
//! GBDT per dataset for the same reason.
//!
//! A fourth workload, `serve-wide` (light training, half the run
//! serving, batch scoring on the wide served model), was dropped as
//! unsteady: over ten runs its wide-model scoring throughput spread
//! 0.35 of its median, past the 0.25 ceiling on a bound, because the
//! VM's speed switched modes between runs. Its serving phases run on
//! every workload, so no layer lost its measurement.

use booster_datagen::Benchmark;

/// A scalar (logistic) training job.
#[derive(Debug, Clone, Copy)]
pub struct ScalarJob {
    pub data: Benchmark,
    /// Training records (a held-out split of a quarter as many is
    /// generated on top for batch scoring).
    pub records: usize,
    pub trees: usize,
    pub depth: u32,
}

/// Which model batch scoring runs on.
#[derive(Debug, Clone, Copy)]
pub enum Scored {
    /// The scalar job's model (narrow and deep).
    Scalar,
    /// The softmax job's model (K outputs per record).
    Softmax,
}

/// The served model, the same on every workload: a wide, shallow
/// logistic ensemble on Higgs-like data, trained once per run before
/// measuring (untimed). Serving a 10-tree training model instead would
/// measure how the VM schedules thread hand-offs, not the serving
/// layers: at about 1 us of scoring per request, saturation throughput
/// spread 0.34 of its median over ten runs, against 0.04 here.
pub const WIDE_RECORDS: usize = 4_000;
pub const WIDE_TREES: usize = 1_000;
pub const WIDE_DEPTH: u32 = 4;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub scalar: ScalarJob,
    /// K=5 softmax on `generate_multiclass`: training records, rounds.
    pub softmax: (usize, usize),
    /// LambdaRank on `generate_ranking`: query groups (4-20 documents
    /// each, 12 on average), trees.
    pub rank: (usize, usize),
    pub scored: Scored,
}

/// Share of `--seconds` spent in training rounds and batch scoring; the
/// rest goes to the serving phases.
pub const TRAIN_SHARE: f64 = 0.7;

/// K of the softmax job.
pub const NUM_CLASS: u32 = 5;
/// Open-loop arrival rate, requests per second, on every workload.
pub const OPEN_RATE: f64 = 2000.0;
/// Open-loop window: p99 is taken per window (>= 1000 requests, so at
/// least ten samples lie beyond it) and the median window reported.
pub const OPEN_WINDOW_S: f64 = 0.5;
/// Requests the closed-loop generator keeps in flight: the default
/// `max_batch`, so a full batch can form.
pub const WINDOW: usize = 64;
/// Distributed worker count.
pub const DIST_WORKERS: usize = 2;

/// The stages a workload does not stress run at this size: small
/// enough not to move the run's bottleneck, big enough (tens of
/// milliseconds) that per-vertex overheads and allocation do not
/// dominate them — 10 ms jobs spread up to 0.29 of their median over
/// ten runs, the 0.4 s sequential Higgs job under 0.1.
const LIGHT_SCALAR: ScalarJob =
    ScalarJob { data: Benchmark::Higgs, records: 10_000, trees: 10, depth: 6 };
const LIGHT_SOFTMAX: (usize, usize) = (16_000, 4);
const LIGHT_RANK: (usize, usize) = (1_200, 4);

pub const WORKLOADS: &[Workload] = &[
    // Step 1 dominates sequential Higgs training at this size (about 60%
    // of the time), and the distributed run ships every vertex's
    // histogram lanes through the chained reduce: this is where a
    // Step-1 or wire-payload change shows, and where a Step-5 change
    // should not.
    Workload {
        name: "higgs-train",
        scalar: ScalarJob { data: Benchmark::Higgs, records: 100_000, trees: 10, depth: 6 },
        softmax: LIGHT_SOFTMAX,
        rank: LIGHT_RANK,
        scored: Scored::Scalar,
    },
    // Eight fields, seven categorical: Step 1 is cheap and Step 5 (the
    // one-tree traversal plus gradient refresh) dominates, so a Step-5
    // change shows here and not on higgs-train, and the reverse for a
    // Step-1 change.
    Workload {
        name: "flight-train",
        scalar: ScalarJob { data: Benchmark::Flight, records: 200_000, trees: 10, depth: 6 },
        softmax: LIGHT_SOFTMAX,
        rank: LIGHT_RANK,
        scored: Scored::Scalar,
    },
    // The only workload where the two other forest loops (grow_softmax,
    // grow_lambdarank), the softmax and lambda-gradient refresh, and
    // the K-output batch scoring path carry real load. Step 5
    // runs inline in those loops, so it lands in `*.grow_self_s`.
    Workload {
        name: "objectives",
        scalar: LIGHT_SCALAR,
        softmax: (40_000, 10),
        rank: (3_300, 10),
        scored: Scored::Softmax,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
