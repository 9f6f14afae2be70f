//! Every metric the benchmark emits, with its unit and, for per-layer
//! metrics, the end-to-end metric and workload it should move. The
//! names are the contract with `BENCHMARK.json` (a test checks they
//! match it exactly).

use std::collections::BTreeMap;

/// One emitted metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Emitted by untraced runs (`--trace 0`), on every workload; the
/// comment above each says what it measures. Each workload runs every
/// stage, so each metric is defined everywhere; the workload's sizes
/// decide which stage dominates (see `workload.rs`).
///
/// Only single-threaded work is end to end. On the shared 2-vCPU VM the
/// benchmark was built on, anything that needs both vCPUs at once —
/// `ParallelExec`, the distributed chain, every serving hand-off —
/// runs up to 2-3x slower for tens of seconds at a time when the host
/// is busy, and their run-to-run spread (the quartile distance over ten
/// runs, as a share of the median) reached 0.20-0.63, past the 0.25
/// ceiling on a bound. Those metrics are per-layer below, with no
/// bound; a change that targets them reports their traced values.
pub const END_TO_END: &[MetricDef] = &[
    // input generation + binning + mirror, plus compiling the scored
    // model and registering the served versions; each part the median
    // of three
    m("setup_s", "s"),
    // scalar training job, SequentialExec; median over rounds
    m("train_seq_s", "s"),
    // held-out rows scored by the compiled scored model (K outputs for
    // softmax), over the total time of every scoring pass in the run
    m("infer_batch_rows_per_s", "rows/s"),
    // K=5 softmax training, SequentialExec; median over rounds
    m("train_softmax_s", "s"),
    // LambdaRank training, SequentialExec; median over rounds
    m("train_rank_s", "s"),
    // VmHWM of the benchmark process
    m("peak_rss_mb", "MB"),
];

/// Emitted by traced runs (`--trace 1`), on every workload; the comment
/// above each names the end-to-end metric and workload it should move,
/// or, for the whole-job metrics moved here from end to end, what it
/// measures.
pub const PER_LAYER: &[MetricDef] = &[
    // setup_s and peak_rss_mb, every workload
    m("setup.generate_s", "s"),
    m("setup.bin_s", "s"),
    m("setup.mirror_s", "s"),
    // peak_rss_mb, every workload (row-major + mirror bytes, from public sizes)
    m("setup.bin_bytes", "bytes"),
    // train_seq_s on higgs-train
    m("seq.histogram_s", "s"),
    m("seq.histogram_calls", "count"),
    m("seq.histogram_updates", "count"),
    // train_seq_s on higgs-train and flight-train (a small share)
    m("seq.partition_s", "s"),
    m("seq.partition_rows", "count"),
    // train_seq_s on flight-train
    m("seq.traverse_s", "s"),
    m("seq.traverse_calls", "count"),
    m("seq.traverse_lookups", "count"),
    // train_seq_s on small-record jobs (objectives): wall time
    // minus executor busy time, i.e. the Step-2 scan and bookkeeping
    m("seq.grow_self_s", "s"),
    // the scalar job on ParallelExec (2 threads), traced wall time;
    // median over rounds
    m("train_par_s", "s"),
    // train_par_s: on higgs-train for Step 1, flight-train for Step 5,
    // small-record jobs for the rest
    m("par.histogram_s", "s"),
    m("par.partition_s", "s"),
    m("par.traverse_s", "s"),
    m("par.grow_self_s", "s"),
    // train_softmax_s on objectives (Step 5 runs inline, in grow_self)
    m("softmax.histogram_s", "s"),
    m("softmax.grow_self_s", "s"),
    // train_rank_s on objectives (Step 5 and the lambda refresh run
    // inline, in grow_self)
    m("rank.histogram_s", "s"),
    m("rank.grow_self_s", "s"),
    // the scalar job distributed N=2 over channels, traced wall time from
    // sharding to worker teardown; median over rounds
    m("train_dist2_s", "s"),
    // train_dist2_s on higgs-train
    m("comm.send_s", "s"),
    m("comm.wait_s.build_hist", "s"),
    m("comm.wait_s.part", "s"),
    m("comm.wait_s.traverse", "s"),
    m("comm.wait_s.fold_loss", "s"),
    m("comm.frames", "count"),
    m("comm.payload_bytes", "bytes"),
    m("comm.step1_payload_bytes", "bytes"),
    // setup_s and infer_batch_rows_per_s, every workload
    m("compile.lower_s", "s"),
    m("compile.program_bytes", "bytes"),
    m("compile.clusters", "count"),
    // infer_batch_rows_per_s, every workload: one compiled pass, and the
    // node walk the compiled scores are checked against
    m("infer.compiled_s", "s"),
    m("infer.node_walk_s", "s"),
    // setup_s, every workload (all register the same served model)
    m("registry.register_s", "s"),
    m("registry.swap_s", "s"),
    // must be 0: requests lost across the hot-swap
    m("registry.lost", "count"),
    // open loop at a fixed rate, timed from each request's due time
    m("serve_p50_us", "us"),
    // the open loop's tail: the median of the per-window p99s (each
    // window holds 1000 requests, so ten lie beyond its p99); a lone
    // thread sleeping 500 us on the VM wakes over 2.5 ms late at p99
    m("serve_p99_us", "us"),
    // closed loop, one generator thread, WINDOW requests in flight
    m("serve_sat_rps", "1/s"),
    // one TCP connection, closed loop
    m("serve_tcp_rps", "1/s"),
    // serve_p50_us, every workload
    m("registry.bin_record_us", "us"),
    m("infer.score_one_us", "us"),
    // serve_p50_us (one request in flight, idle server)
    m("scheduler.roundtrip_us", "us"),
    // serve_sat_rps and serve_p99_us
    m("scheduler.mean_batch", "count"),
    m("scheduler.rejected", "count"),
    // serve_tcp_rps
    m("frame.codec_us", "us"),
    m("tcp.roundtrip_us", "us"),
    // how late the open-loop generator ran (serve_p99_us is only as good
    // as this)
    m("gen.late_p99_us", "us"),
    m("gen.late_max_us", "us"),
    // nothing end to end: time to run the stated-scale sim
    m("sim.eval_s", "s"),
    // nothing: Booster over Ideal 32-core; must repeat exactly for a seed
    // and no speed change may move it
    m("sim.speedup_vs_cpu", "x"),
    // traced sequential jobs' wall time over the same jobs untraced,
    // minus 1
    m("trace.overhead_frac", "ratio"),
];

/// Metric values collected by a run, keyed by name.
#[derive(Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// over exactly the metrics of `defs`. A metric missing from `values` or
/// not finite is a failed operation and is printed as 0.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, mut failed: u64) -> String {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = match values.0.get(d.name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                eprintln!("metric {} missing or not finite", d.name);
                failed += 1;
                0.0
            }
        };
        metrics.push(format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names_in(&json, key), ours, "{key} names differ from BENCHMARK.json");
        }
        let units: Vec<String> = json
            .split("\"unit\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted unit").to_string())
            .collect();
        let ours: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.unit).collect();
        assert_eq!(units, ours, "units differ from BENCHMARK.json");
    }

    #[test]
    fn result_line_counts_missing_metrics_as_failed() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        let line = result_line(&END_TO_END[..2], &v, 3, 0);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"),
            "{line}"
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"), "{line}");
    }
}
