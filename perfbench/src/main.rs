//! The repository benchmark: one command that runs a named workload
//! end to end, checks every output, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload higgs-train --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` runs untraced and reports the end-to-end metrics;
//! `--trace 1` runs the same stages through the timing wrappers in
//! `instruments.rs` (plus the untraced sequential jobs, for the overhead
//! ratio) and reports the per-layer metrics. The metric list, with the
//! end-to-end metric each per-layer metric should move, is in
//! `metrics.rs`; the workloads, and why each exists, in `workload.rs`.
//!
//! Seeds: develop a change on any seed, then re-check its claim on the
//! held-out seed [`HELD_OUT_SEED`], which no change is tuned on.
//!
//! Before the result line the run prints a `{"context": ...}` line: the
//! machine (nproc, CPU model), the compiler, the git revision when the
//! checkout has one, the workload's input sizes and the scale the
//! `sim.*` numbers ran at.

mod instruments;
mod metrics;
mod serve;
mod train;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use booster_bench::{BenchConfig, PreparedWorkload, SimEnv};
use booster_datagen::Benchmark;
use booster_gbdt::compile::{CompileOptions, CompiledEnsemble};
use booster_sim::{geomean, speedup_over};

use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use serve::ServeSet;
use train::Trainer;
use workload::{Scored, Workload};

/// The seed later claims are re-checked on.
const HELD_OUT_SEED: u64 = 7919;
/// Set-up runs this many times; its metrics are the medians.
const SETUP_REPS: usize = 3;
/// Training rounds per run, at least, whatever the time budget.
const MIN_ROUNDS: usize = 3;
/// Scale of the `sim.*` phase logs: records and trees trained, before
/// scaling to the paper's Table III record counts and 500 trees.
const SIM_RECORDS: usize = 20_000;
const SIM_TREES: usize = 10;

/// Operations attempted and failed over the run. Every correctness
/// check and every request is one operation.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.add(1, u64::from(!ok), what);
    }

    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED ({failed}x): {what}");
        }
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of the samples (NaN when there are none, which the result
/// line reports as a failure).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(workload::find(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("duration"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("duration (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (line, context) = run(&args);
    println!("{context}");
    println!("{line}");
    ExitCode::SUCCESS
}

/// Run one workload; returns the result line and the context line.
fn run(args: &Args) -> (String, String) {
    let (w, seed) = (args.workload, args.seed);
    let mut tally = Tally::default();
    let (mut e2e, mut layer) = (Values::default(), Values::default());

    // Input set-up, three times; the last set is kept.
    let mut data_setup = Vec::new();
    let mut parts = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        let (i, st) = train::prepare(w, seed);
        data_setup.push(secs(t));
        parts.push(st);
        inputs = Some(i);
    }
    let inputs = inputs.expect("set-up ran");
    layer.set("setup.generate_s", median(parts.iter().map(|p| p.generate_s).collect()));
    layer.set("setup.bin_s", median(parts.iter().map(|p| p.bin_s).collect()));
    layer.set("setup.mirror_s", median(parts.iter().map(|p| p.mirror_s).collect()));
    layer.set("setup.bin_bytes", inputs.bin_bytes() as f64);
    let wide = train::train_wide(&inputs);

    let train_start = Instant::now();
    let mut trainer = Trainer::new(w, &inputs, args.trace);
    trainer.round(&mut tally);
    let scored = match w.scored {
        Scored::Scalar => trainer.scalar_model.clone().expect("round one trained it"),
        Scored::Softmax => trainer.softmax_model.clone().expect("round one trained it"),
    };

    // Model set-up, three times: compile the scored model for batch
    // scoring, register the served model and a second version of it
    // (its first three quarters of trees) for serving.
    let v2 = wide.truncated(wide.num_trees() * 3 / 4);
    let (mut model_setup, mut lower, mut register) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let compiled = CompiledEnsemble::from_model(&scored, &CompileOptions::default())
            .expect("trees fit the table encoding");
        let l = secs(t);
        let (r, registry, ids) = serve::register(&wide, &v2);
        model_setup.push(l + r);
        lower.push(l);
        register.push(r);
        kept = Some((compiled, registry, ids));
    }
    let (compiled, registry, [id1, id2]) = kept.expect("set-up ran");
    layer.set("compile.lower_s", median(lower));
    layer.set("registry.register_s", median(register));
    layer.set("compile.program_bytes", compiled.byte_size() as f64);
    layer.set("compile.clusters", compiled.num_clusters() as f64);
    let set = ServeSet::new(registry, [(id1, wide), (id2, v2)], &inputs.wide.held_raw);

    let split = inputs.scored_split(w);
    let t = Instant::now();
    let oracle = if scored.num_outputs == 1 {
        scored.predict_batch(&split.held)
    } else {
        scored.predict_batch_outputs(&split.held)
    };
    layer.set("infer.node_walk_s", secs(t));

    trainer.infer(&compiled, &oracle, &mut tally);
    let mut rounds = 1;
    while rounds < MIN_ROUNDS || secs(train_start) < args.seconds * workload::TRAIN_SHARE {
        trainer.round(&mut tally);
        trainer.infer(&compiled, &oracle, &mut tally);
        rounds += 1;
    }

    set.run(args.seconds * (1.0 - workload::TRAIN_SHARE), &mut tally, &mut layer);

    let rows = split.held.num_records() as f64;
    e2e.set("setup_s", median(data_setup) + median(model_setup));
    e2e.set("train_seq_s", median(trainer.seq_s.clone()));
    layer.set("train_par_s", median(trainer.par_s.clone()));
    layer.set("train_dist2_s", median(trainer.dist_s.clone()));
    // Aggregate throughput (rows over total scoring time) rather than a
    // median: per-batch times on the shared VM are bimodal (about 2x
    // apart, switching every second or so), and a median flips between
    // the modes while the aggregate moves smoothly with their mix.
    let rows_scored = rows * trainer.infer_s.len() as f64;
    e2e.set("infer_batch_rows_per_s", rows_scored / trainer.infer_s.iter().sum::<f64>());
    e2e.set("train_softmax_s", median(trainer.softmax_s.clone()));
    e2e.set("train_rank_s", median(trainer.rank_s.clone()));

    if args.trace {
        layer.set("infer.compiled_s", median(trainer.infer_s.clone()));
        trainer.traced_medians(&mut layer, &mut tally);
        let (eval_s, speedup) = sim(seed);
        layer.set("sim.eval_s", eval_s);
        layer.set("sim.speedup_vs_cpu", speedup);
    }
    e2e.set("peak_rss_mb", peak_rss_mb());

    let (defs, values) = if args.trace { (PER_LAYER, &layer) } else { (END_TO_END, &e2e) };
    let line = result_line(defs, values, tally.attempted, tally.failed);
    (line, context(args, &inputs, rounds))
}

/// Booster's speedup over the Ideal 32-core model, geomean over the
/// Higgs and Flight phase logs (trained at [`SIM_RECORDS`] x
/// [`SIM_TREES`], scaled to paper size), and the seconds the timing
/// models took.
fn sim(seed: u64) -> (f64, f64) {
    let cfg = BenchConfig {
        sample_records: SIM_RECORDS,
        trees: SIM_TREES,
        max_depth: 6,
        gamma: BenchConfig::default().gamma,
        seed,
    };
    let logs = [Benchmark::Higgs, Benchmark::Flight].map(|b| PreparedWorkload::prepare(b, &cfg));
    let t = Instant::now();
    let env = SimEnv::new();
    let speedups: Vec<f64> = logs
        .iter()
        .map(|w| {
            let r = env.run_training(w);
            speedup_over(&r.cpu, &r.booster)
        })
        .collect();
    (secs(t), geomean(&speedups))
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's HEAD commit, read from `.git` in the working
/// directory (no git process, nothing outside the checkout).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.into() };
    };
    std::fs::read_to_string(format!(".git/{r}"))
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn context(args: &Args, inputs: &train::Inputs, rounds: usize) -> String {
    let w = args.workload;
    let sizes = |name: &str, d: &booster_gbdt::preprocess::BinnedDataset| {
        format!("\"{name}\": [{}, {}]", d.num_records(), d.num_fields())
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        concat!(
            "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {}, ",
            "\"trace\": {}, \"seconds\": {}, \"rounds\": {}, \"nproc\": {}, \"cpu\": {}, ",
            "\"rustc\": {}, \"git_rev\": {}, ",
            "\"inputs_records_fields\": {{{}, {}, {}, {}}}, ",
            "\"scalar_job\": {{\"data\": {}, \"trees\": {}, \"depth\": {}}}, ",
            "\"softmax_job\": {{\"classes\": {}, \"rounds\": {}}}, ",
            "\"rank_job\": {{\"queries\": {}, \"trees\": {}}}, ",
            "\"served\": {{\"records\": {}, \"trees\": {}, \"depth\": {}}}, ",
            "\"serve\": {{\"open_rate_per_s\": {}, \"open_window_s\": {}, ",
            "\"closed_window\": {}}}, ",
            "\"sim_scale\": {}}}}}"
        ),
        json_str(w.name),
        args.seed,
        HELD_OUT_SEED,
        args.trace,
        args.seconds,
        rounds,
        nproc,
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_rev()),
        sizes("scalar", &inputs.scalar.train.data),
        sizes("scalar_held_out", &inputs.scalar.held),
        sizes("softmax", &inputs.softmax.train.data),
        sizes("rank", &inputs.rank.data),
        json_str(w.scalar.data.name()),
        w.scalar.trees,
        w.scalar.depth,
        workload::NUM_CLASS,
        w.softmax.1,
        w.rank.0,
        w.rank.1,
        workload::WIDE_RECORDS,
        workload::WIDE_TREES,
        workload::WIDE_DEPTH,
        workload::OPEN_RATE,
        workload::OPEN_WINDOW_S,
        workload::WINDOW,
        json_str(&format!(
            "Higgs and Flight, {SIM_RECORDS} records x {SIM_TREES} trees, depth 6, seed {}; \
             phase logs scaled to Table III records and 500 trees",
            args.seed
        )),
    )
}
