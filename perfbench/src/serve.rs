//! Registering the served model and the four serving phases.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use booster_gbdt::dataset::{Dataset, RawValue};
use booster_gbdt::infer::{ExecMode, Predictor};
use booster_gbdt::predict::Model;
use booster_serve::frame::{
    decode_request, decode_response, encode_request, encode_response, WireRequest,
};
use booster_serve::{
    ModelRegistry, Pending, ResponseSlot, ScoreResponse, ServeConfig, ServeError, ServeHandle,
    Server, TcpFrontend, TcpScoreClient,
};

use crate::metrics::Values;
use crate::workload::{OPEN_RATE, OPEN_WINDOW_S, WINDOW};
use crate::{median, secs, Tally};

/// Records the serving phases cycle through.
const POOL: usize = 4096;
/// Sequential requests against the idle server.
const IDLE_PROBES: usize = 300;
/// Passes over the pool for each per-record micro-timing.
const PASSES: usize = 5;

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Nearest-rank quantile of unsorted samples.
fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The two served versions, the registry holding both, and the offline
/// node-walk score of every pool record under each version.
pub struct ServeSet {
    registry: Arc<ModelRegistry>,
    versions: [(u64, Model); 2],
    pool: Vec<Arc<[RawValue]>>,
    reference: [Vec<Vec<f64>>; 2],
}

/// Register `v1` and `v2` into a fresh registry, timed.
pub fn register(v1: &Model, v2: &Model) -> (f64, Arc<ModelRegistry>, [u64; 2]) {
    let t = Instant::now();
    let registry = Arc::new(ModelRegistry::new());
    let ids = [v1, v2].map(|m| registry.register(m).expect("register a served version"));
    (secs(t), registry, ids)
}

impl ServeSet {
    /// The served versions `(id, model)` in `registry`, with a record
    /// pool drawn from `held_raw`.
    pub fn new(
        registry: Arc<ModelRegistry>,
        versions: [(u64, Model); 2],
        held_raw: &Dataset,
    ) -> ServeSet {
        let n = held_raw.num_records().min(POOL);
        let pool: Vec<Arc<[RawValue]>> = (0..n)
            .map(|r| (0..held_raw.num_fields()).map(|f| held_raw.value(r, f)).collect())
            .collect();
        let reference = versions
            .each_ref()
            .map(|(_, m)| pool.iter().map(|rec| m.predict_raw_outputs(rec)).collect());
        ServeSet { registry, versions, pool, reference }
    }
}

/// Outcome of a closed-loop phase.
struct Closed {
    completed: u64,
    elapsed_s: f64,
    batch_sum: u64,
    rejected: u64,
    swap_s: f64,
    lost: u64,
    /// Responses from the second version.
    v2_answers: u64,
}

impl ServeSet {
    /// Whether `resp` is pool record `k` scored bit-identically to the
    /// offline node walk of the version that answered.
    fn matches(&self, k: usize, version: u64, outputs: &[f64]) -> bool {
        self.versions
            .iter()
            .position(|(id, _)| *id == version)
            .is_some_and(|i| same_bits(outputs, &self.reference[i][k]))
    }

    fn check(
        &self,
        k: usize,
        r: Result<ScoreResponse, ServeError>,
        tally: &mut Tally,
    ) -> Option<ScoreResponse> {
        match r {
            Ok(resp) if self.matches(k, resp.version, &resp.outputs) => {
                tally.check(true, "");
                Some(resp)
            }
            Ok(_) => {
                tally.check(false, "served score differs from offline scoring");
                None
            }
            Err(e) => {
                tally.check(false, &format!("request failed: {e}"));
                None
            }
        }
    }

    fn record(&self, i: usize) -> (usize, Arc<[RawValue]>) {
        let k = i % self.pool.len();
        (k, Arc::clone(&self.pool[k]))
    }

    /// Run the serving phases in `budget_s` seconds, putting every
    /// serving metric into `v`.
    pub fn run(&self, budget_s: f64, tally: &mut Tally, v: &mut Values) {
        self.micro_timings(tally, v);
        let server = Server::start(Arc::clone(&self.registry), ServeConfig::default())
            .expect("default serve config is valid");
        let handle = server.handle();

        let slot = ResponseSlot::new();
        let mut rt = Vec::with_capacity(IDLE_PROBES);
        for i in 0..IDLE_PROBES {
            let (k, rec) = self.record(i);
            let t = Instant::now();
            let r = handle.score_with(&slot, rec, None);
            rt.push(micros(t));
            self.check(k, r, tally);
        }
        v.set("scheduler.roundtrip_us", median(rt));

        let per_window = OPEN_RATE * OPEN_WINDOW_S;
        let windows = ((0.45 * budget_s / OPEN_WINDOW_S) as usize).max(2);
        let (p50, p99) = self.open_loop(&handle, windows * per_window as usize, tally, v);
        v.set("serve_p50_us", p50);
        v.set("serve_p99_us", p99);

        let sat = self.closed_loop(&handle, 0.2 * budget_s, None, tally);
        v.set("serve_sat_rps", sat.completed as f64 / sat.elapsed_s);
        v.set("scheduler.mean_batch", sat.batch_sum as f64 / sat.completed.max(1) as f64);
        v.set("scheduler.rejected", sat.rejected as f64);

        self.tcp(&handle, 0.15 * budget_s, tally, v);

        let swap = self.closed_loop(&handle, 0.2 * budget_s, Some(self.versions[1].0), tally);
        tally.check(swap.v2_answers > 0, "the hot-swap never took effect");
        v.set("registry.swap_s", swap.swap_s);
        v.set("registry.lost", swap.lost as f64);

        handle.drain();
        let stats = server.shutdown();
        tally.check(stats.completed + stats.failed == stats.accepted, "scheduler lost requests");
    }

    /// Per-record costs of the layers under a request, each the median
    /// of [`PASSES`] passes over the pool: binning a raw record, scoring
    /// one record on the compiled program, and the frame codec.
    fn micro_timings(&self, tally: &mut Tally, v: &mut Values) {
        let (id1, v1) = &self.versions[0];
        let n = self.pool.len() as f64;
        let serving = self.registry.get(*id1).expect("v1 registered");
        let mut bins = Vec::new();
        let mut bin_us = Vec::new();
        for _ in 0..PASSES {
            let t = Instant::now();
            let mut ok = true;
            for rec in &self.pool {
                bins.clear();
                ok &= serving.bin_record_into(rec, &mut bins).is_ok();
            }
            bin_us.push(micros(t) / n);
            tally.check(ok, "bin_record_into rejected a pool record");
        }
        v.set("registry.bin_record_us", median(bin_us));

        let mut predictor = Predictor::from_model(v1).expect("served trees fit the table encoding");
        let scalar = v1.num_outputs == 1;
        if scalar {
            predictor = predictor.with_mode(ExecMode::Compiled);
        }
        let mut out = Vec::new();
        let mut score_us = Vec::new();
        for _ in 0..PASSES {
            let t = Instant::now();
            let mut ok = true;
            for (k, rec) in self.pool.iter().enumerate() {
                if scalar {
                    out.clear();
                    out.push(predictor.predict_one(rec));
                } else {
                    predictor.predict_one_outputs(rec, &mut out);
                }
                ok &= same_bits(&out, &self.reference[0][k]);
            }
            score_us.push(micros(t) / n);
            tally.check(ok, "Predictor::predict_one differs from the node walk");
        }
        v.set("infer.score_one_us", median(score_us));

        let mut codec_us = Vec::new();
        for _ in 0..PASSES {
            let t = Instant::now();
            let mut ok = true;
            for (k, rec) in self.pool.iter().enumerate() {
                let req = WireRequest { id: k as u64, pin: None, features: rec.to_vec() };
                ok &= decode_request(&encode_request(&req)).is_ok_and(|back| back == req);
                let outputs = self.reference[0][k].clone();
                let resp =
                    ScoreResponse { outputs, version: *id1, batch_size: 1, latency_micros: 0 };
                let wire = encode_response(req.id, &Ok(resp));
                ok &= decode_response(&wire).is_ok_and(|back| {
                    back.id == req.id
                        && back.outcome.is_ok_and(|(ver, o)| {
                            ver == *id1 && same_bits(&o, &self.reference[0][k])
                        })
                });
            }
            codec_us.push(micros(t) / n);
            tally.check(ok, "frame codec round trip changed a request or response");
        }
        v.set("frame.codec_us", median(codec_us));
    }

    /// Open loop: `requests` arrivals at [`OPEN_RATE`], each timed from
    /// its due time to its response. A second thread collects the
    /// responses so the generator never waits for one. Returns p50 over
    /// all requests and the median of the per-window p99s.
    fn open_loop(
        &self,
        handle: &ServeHandle,
        requests: usize,
        tally: &mut Tally,
        v: &mut Values,
    ) -> (f64, f64) {
        let period = Duration::from_secs_f64(1.0 / OPEN_RATE);
        let mut late = Vec::with_capacity(requests);
        type Sent = (usize, Instant, Result<Pending, ServeError>);
        let (latency, failed) = std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<Sent>();
            let collector = s.spawn(move || {
                let mut latency = Vec::with_capacity(requests);
                let mut failed = 0u64;
                for (k, due, pending) in rx {
                    match pending.and_then(Pending::wait) {
                        Ok(resp) if self.matches(k, resp.version, &resp.outputs) => {
                            latency.push(due.elapsed().as_secs_f64() * 1e6)
                        }
                        _ => failed += 1,
                    }
                }
                (latency, failed)
            });
            let t0 = Instant::now() + Duration::from_millis(1);
            for i in 0..requests {
                let due = t0 + period.mul_f64(i as f64);
                wait_until(due);
                late.push(micros(due));
                let (k, rec) = self.record(i);
                tx.send((k, due, handle.submit(rec, None))).expect("collector alive");
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        });
        tally.add(
            requests as u64,
            failed,
            "open-loop requests failed or differed from offline scoring",
        );
        v.set("gen.late_p99_us", quantile(late.clone(), 0.99));
        v.set("gen.late_max_us", late.iter().copied().fold(0.0, f64::max));
        if latency.is_empty() {
            return (f64::NAN, f64::NAN);
        }
        let per_window = (OPEN_RATE * OPEN_WINDOW_S) as usize;
        let p99s = latency.chunks(per_window).map(|w| quantile(w.to_vec(), 0.99)).collect();
        (median(latency), median(p99s))
    }

    /// Closed loop from this thread with [`WINDOW`] requests in flight
    /// for `secs_` seconds, then drain. With `swap_to`, activate that
    /// version halfway through.
    fn closed_loop(
        &self,
        handle: &ServeHandle,
        secs_: f64,
        swap_to: Option<u64>,
        tally: &mut Tally,
    ) -> Closed {
        let mut c = Closed {
            completed: 0,
            elapsed_s: 0.0,
            batch_sum: 0,
            rejected: 0,
            swap_s: 0.0,
            lost: 0,
            v2_answers: 0,
        };
        let mut inflight: VecDeque<(usize, Pending)> = VecDeque::with_capacity(WINDOW);
        let t0 = Instant::now();
        let (end, swap_at) =
            (t0 + Duration::from_secs_f64(secs_), t0 + Duration::from_secs_f64(secs_ / 2.0));
        let mut swap_to = swap_to;
        let mut i = 0;
        loop {
            let now = Instant::now();
            while now < end && inflight.len() < WINDOW {
                let (k, rec) = self.record(i);
                match handle.submit(rec, None) {
                    Ok(p) => {
                        inflight.push_back((k, p));
                        i += 1;
                    }
                    Err(ServeError::Overloaded) => {
                        c.rejected += 1;
                        break;
                    }
                    Err(e) => {
                        tally.check(false, &format!("submit failed: {e}"));
                        break;
                    }
                }
            }
            if now >= swap_at {
                if let Some(version) = swap_to.take() {
                    let t = Instant::now();
                    self.registry.activate(version).expect("v2 registered");
                    c.swap_s = secs(t);
                }
            }
            let Some((k, pending)) = inflight.pop_front() else {
                if now >= end {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            match pending.wait() {
                Err(ServeError::Disconnected | ServeError::ShuttingDown) => {
                    c.lost += 1;
                    tally.check(false, "request lost");
                }
                r => {
                    if let Some(resp) = self.check(k, r, tally) {
                        c.completed += 1;
                        c.batch_sum += u64::from(resp.batch_size);
                        c.v2_answers += u64::from(resp.version == self.versions[1].0);
                    }
                }
            }
        }
        c.elapsed_s = secs(t0);
        c
    }

    /// One TCP connection in closed loop for `secs_` seconds.
    fn tcp(&self, handle: &ServeHandle, secs_: f64, tally: &mut Tally, v: &mut Values) {
        let front = TcpFrontend::bind("127.0.0.1:0", handle.clone()).expect("bind loopback");
        let mut client = TcpScoreClient::connect(front.local_addr()).expect("connect loopback");
        let mut rt = Vec::new();
        let t0 = Instant::now();
        let end = t0 + Duration::from_secs_f64(secs_);
        let mut i = 0;
        while Instant::now() < end {
            let (k, rec) = self.record(i);
            let t = Instant::now();
            let r = client.score(&rec, None);
            rt.push(micros(t));
            let ok = matches!(&r, Ok(Ok(s)) if self.matches(k, s.version, &s.outputs));
            tally.check(ok, "TCP score failed or differs from offline scoring");
            i += 1;
        }
        v.set("serve_tcp_rps", i as f64 / secs(t0));
        drop(client);
        front.shutdown();
        v.set("tcp.roundtrip_us", median(rt));
    }
}

/// Sleep until shortly before `due` (a sleep overshoots by tens of
/// microseconds), then spin until it passes.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
