//! One run of one workload: set-up, the timed load, output checks, and
//! the metrics the run reports.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::host;
use crate::metrics::{self, Metric};
use crate::procs::{self, Bins, Service};
use crate::stats::{median, percentile};
use crate::workload::{self, Stream, Workload};
use crate::{http, json, sha256};

/// Set-ups per run; `setup_s` is their median, and the last one serves
/// the timed load.
const SETUPS: usize = 3;
/// Unmeasured open-loop traffic before the timed window.
const OPEN_LOOP_WARMUP: Duration = Duration::from_secs(2);
/// The open-loop load is cut into windows of this length, and latency is
/// taken over the windows in which the hypervisor stole the least CPU
/// time (see [`quiet_windows`]).
const WINDOW: Duration = Duration::from_secs(1);
/// Steal ticks (10 ms of one vCPU each) a window may hold and still be
/// quiet. On the 2-vCPU reference host a window's serving p90 stayed near
/// its run's usual value up to 3 ticks, and was 1.5 to 3 times that from
/// 8 ticks up.
const QUIET_STEAL_TICKS: u64 = 3;
/// How many times `--seconds` the open-loop load may last while too few
/// windows were quiet. Heavy steal on the reference host came in
/// stretches of 10 s to over a minute.
const MAX_LOAD_FACTOR: usize = 4;
/// Every this many cold sweeps without a committed digest, one is checked
/// against the figure binary after the timed window.
const COLD_CHECK_EVERY: u64 = 10;
/// Host-speed probes around the serving workloads' load, and before the
/// set-ups of every workload. The cold loop also probes between sweeps.
const PROBES: usize = 25;
/// An open-loop run whose generator sent its median request later than
/// this fell behind its schedule for good: it did not offer the load it
/// claims. A burst of lateness is not enough. Each load thread waits for
/// its answer, so a server or host stall delays the requests behind it,
/// and their latency, which runs from the due time, already pays for it.
const MAX_LATE_MS: f64 = 5.0;
const COLD_TIMEOUT: Duration = Duration::from_secs(60);
const HOT_TIMEOUT: Duration = Duration::from_secs(10);

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// One set-up and a short warm-up: for tests of the harness only.
    pub quick: bool,
}

/// The run's result, printed as the last line of standard output.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(Metric, f64)>,
}

impl RunResult {
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// How one timed request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `200` with the expected body, or a body checked later or not at all.
    Ok,
    /// `200` with the wrong body.
    Mismatch,
    /// Any other status.
    Status(u16),
    /// Connect, send or receive failed.
    Transport,
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// From when the request was due (open loop) or sent (closed loop)
    /// to the last response byte.
    latency_ms: f64,
    /// From send to the last response byte.
    request_us: f64,
    /// How late the generator sent it.
    late_ms: f64,
    outcome: Outcome,
    /// The response came from the result cache.
    hit: bool,
    /// The factor that turns `latency_ms` into reference-host time.
    scale: f64,
    /// The [`WINDOW`] of the timed load the request was due in (open
    /// loop), or 0 (closed loop).
    window: usize,
}

/// Runs one workload and computes its metrics.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let bins = procs::build()?;
    // Only traced runs need the layer probe, which links the simulator
    // crates: an API change there cannot break an untraced run.
    let layers = if opts.traced { Some(procs::build_layers()?) } else { None };
    let w = opts.workload;

    let mut host = host::Speed::new();
    host.sample(PROBES);
    let setups = if opts.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut service: Option<Service> = None;
    for k in 0..setups {
        if let Some(previous) = service.take() {
            previous.stop(&bins);
        }
        let start = Instant::now();
        let svc = match w {
            Workload::ClusterMix => Service::cluster(&bins, opts.traced)?,
            _ => Service::single(&bins, opts.traced)?,
        };
        warm(opts, &svc, k as u64)?;
        setup_s.push(start.elapsed().as_secs_f64());
        service = Some(svc);
    }
    let service = service.expect("at least one set-up");
    eprintln!(
        "{}: set up in {:.3} s (median of {setup_s:.4?}), scale {:.4}",
        w.name(),
        median(&setup_s),
        host.scale()
    );

    let baseline = opts.traced.then(|| Baseline::take(&service)).transpose()?;
    let (mut samples, deferred, quiet, peak_rss_mb) = match w.rate() {
        None => {
            let (samples, deferred) = closed_loop(opts, &service, &mut host);
            (samples, deferred, vec![true], service.peak_rss_mb())
        }
        Some(rate) => {
            host.sample(PROBES);
            let (mut samples, steal, peak_rss_mb) = open_loop(opts, &service, rate);
            host.sample(PROBES);
            let scale = host.scale();
            for s in &mut samples {
                s.scale = scale;
            }
            eprintln!("{}: steal ticks per window {steal:?}", w.name());
            let quiet = quiet_windows(&steal, quiet_needed(opts.seconds));
            (samples, Vec::new(), quiet, peak_rss_mb)
        }
    };
    let observed = baseline.map(|b| Observed::fetch(&service, b)).transpose()?;
    service.stop(&bins);

    check_deferred(w, &bins, &deferred, &mut samples)?;
    let attempted = samples.len();
    let mismatches = samples.iter().filter(|s| s.outcome == Outcome::Mismatch).count();
    let failed = samples.iter().filter(|s| s.outcome != Outcome::Ok).count();
    if attempted == 0 {
        return Err("no request completed in the timed window".to_string());
    }
    let served = served(&samples);
    let measured: Vec<&Sample> = served.iter().copied().filter(|s| quiet[s.window]).collect();
    if measured.is_empty() {
        return Err(format!(
            "no request of a quiet window succeeded ({failed} of {attempted} failed)"
        ));
    }
    let raw: Vec<f64> = measured.iter().map(|s| s.latency_ms).collect();
    let latencies: Vec<f64> = measured.iter().map(|s| s.latency_ms * s.scale).collect();
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    let (late_p50, late_p99) = (percentile(&late, 50.0), percentile(&late, 99.0));
    let on_schedule = late_p50 <= MAX_LATE_MS;
    if !on_schedule {
        eprintln!(
            "error: {}: the load generator sent its median request {late_p50:.2} ms late \
             (limit {MAX_LATE_MS} ms); this run did not offer its nominal rate",
            w.name()
        );
    }
    eprintln!(
        "{}: {attempted} requests, {failed} failed ({mismatches} wrong bodies); \
         sent late by {late_p50:.3} ms at p50, {late_p99:.3} ms at p99",
        w.name()
    );
    eprintln!(
        "{}: raw latency p50 {:.4} ms, p90 {:.4} ms over {} of {} windows; \
         host probe {:.3} ms (median), scale {:.4}",
        w.name(),
        percentile(&raw, 50.0),
        percentile(&raw, 90.0),
        quiet.iter().filter(|&&q| q).count(),
        quiet.len(),
        host.probe_ms(),
        host.scale()
    );

    let mut values: BTreeMap<&'static str, f64> =
        metrics::reported(opts.traced).iter().map(|m| (m.name, 0.0)).collect();
    // A failed request is no answer, however fast, and a generator that
    // fell behind did not offer the load the latencies claim.
    let mut correct = failed == 0 && on_schedule;
    match (observed, layers) {
        (Some(observed), Some(layers)) => {
            let request_us: Vec<f64> = measured.iter().map(|s| s.request_us).collect();
            values.insert("load.request_us.p50", percentile(&request_us, 50.0));
            values.insert("load.request_us.p99", percentile(&request_us, 99.0));
            values.insert("load.late_ms.p99", late_p99);
            values.insert("load.traced_latency_p50_ms", percentile(&latencies, 50.0));
            values.insert("host.probe_ms", host.probe_ms());
            let hits = served.iter().filter(|s| s.hit).count();
            values.insert("serve.cache_hit_ratio", hits as f64 / served.len() as f64);
            correct &= observed.layer_metrics(w, opts.seed, &layers, &mut values)?;
        }
        _ => {
            values.insert("latency_p50_ms", percentile(&latencies, 50.0));
            values.insert("latency_p90_ms", percentile(&latencies, 90.0));
            values.insert("setup_s", median(&setup_s) * host.scale());
            values.insert("peak_rss_mb", peak_rss_mb);
        }
    }
    assert_eq!(values.len(), metrics::reported(opts.traced).len(), "an undeclared metric was set");
    let metrics = metrics::reported(opts.traced).iter().map(|m| (*m, values[m.name])).collect();
    Ok(RunResult { correct, attempted, failed, metrics })
}

/// The requests answered with the right body. Latencies are taken over
/// these alone, so that a fast error cannot pass for a fast answer.
fn served(samples: &[Sample]) -> Vec<&Sample> {
    samples.iter().filter(|s| s.outcome == Outcome::Ok).collect()
}

/// The open-loop windows latency counts: those in which the hypervisor
/// stole at most [`QUIET_STEAL_TICKS`], or, when fewer than `needed`
/// were that quiet, the `needed` least stolen and any that tie with them.
/// On a shared 2-vCPU host, steal comes in bursts of seconds to minutes.
/// A burst queues the load behind it and makes the tail several times
/// longer, and the host probe, which runs between bursts, cannot undo
/// that. Steal is the host's doing, not the server's, so leaving those
/// windows out cannot hide a slower server.
fn quiet_windows(steal: &[u64], needed: usize) -> Vec<bool> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let cut = sorted[needed - 1].max(QUIET_STEAL_TICKS);
    steal.iter().map(|&t| t <= cut).collect()
}

/// The rest of a set-up after the servers listen: one unmeasured cold
/// sweep, or the sixteen hot specs put into the result cache.
fn warm(opts: &Options, service: &Service, k: u64) -> Result<(), String> {
    match opts.workload.rate() {
        None => {
            let spec =
                workload::cold_spec(opts.workload, workload::derive(opts.seed, Stream::Warmup, k));
            match http::request(service.addr(), "POST", "/run", spec.as_bytes(), COLD_TIMEOUT) {
                Ok(r) if r.status == 200 => Ok(()),
                Ok(r) => Err(format!("warm-up sweep answered {}", r.status)),
                Err(e) => Err(format!("warm-up sweep failed: {e}")),
            }
        }
        Some(_) => std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|t| {
                    scope.spawn(move || -> Result<(), String> {
                        for k in (t..workload::HOT_SPECS).step_by(2) {
                            let req = workload::ServingRequest::hot(k);
                            let outcome = send(service, &req.spec, req.digest(), COLD_TIMEOUT).0;
                            if outcome != Outcome::Ok {
                                return Err(format!("pre-warming {} gave {outcome:?}", req.spec));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            threads.into_iter().try_for_each(|t| t.join().expect("pre-warm thread panicked"))
        }),
    }
}

/// POSTs `spec` to `/run` and checks the body against `digest` when one
/// is given. Returns the outcome, whether the cache answered, and the
/// body when there was no digest to check it against.
fn send(
    service: &Service,
    spec: &str,
    digest: Option<&str>,
    timeout: Duration,
) -> (Outcome, bool, Option<Vec<u8>>) {
    match http::request(service.addr(), "POST", "/run", spec.as_bytes(), timeout) {
        Err(_) => (Outcome::Transport, false, None),
        Ok(r) if r.status != 200 => (Outcome::Status(r.status), false, None),
        Ok(r) => {
            let hit = r.header("x-cache").is_some_and(|c| c.starts_with("hit"));
            match digest {
                Some(d) if sha256::hex(&r.body) != d => (Outcome::Mismatch, hit, None),
                Some(_) => (Outcome::Ok, hit, None),
                None => (Outcome::Ok, hit, Some(r.body)),
            }
        }
    }
}

/// A cold body to check against the figure binary once the timed window
/// is over: the sample's index, the sweep's seed and the served body.
type Deferred = (usize, u64, Vec<u8>);

/// One client sending cold sweeps back to back for the run's duration,
/// with a host-speed probe between sweeps while the server is idle. Each
/// sweep is scaled by the mean of the probes just before and after it.
fn closed_loop(
    opts: &Options,
    service: &Service,
    host: &mut host::Speed,
) -> (Vec<Sample>, Vec<Deferred>) {
    let w = opts.workload;
    let mut samples = Vec::new();
    let mut deferred = Vec::new();
    let mut probe_before = host.probe();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < opts.seconds {
        let s = workload::derive(opts.seed, Stream::Measured, i);
        let digest = match opts.seed {
            workload::DEFAULT_SEED => workload::cold_digest(w, s),
            _ => None,
        };
        let sent = Instant::now();
        let (outcome, hit, body) = send(service, &workload::cold_spec(w, s), digest, COLD_TIMEOUT);
        let latency = sent.elapsed();
        if let Some(body) = body {
            if i.is_multiple_of(COLD_CHECK_EVERY) {
                deferred.push((samples.len(), s, body));
            }
        }
        let probe_after = host.probe();
        samples.push(Sample {
            latency_ms: latency.as_secs_f64() * 1e3,
            request_us: latency.as_secs_f64() * 1e6,
            late_ms: 0.0,
            outcome,
            hit,
            scale: host::scale_for((probe_before + probe_after) / 2.0),
            window: 0,
        });
        probe_before = probe_after;
        i += 1;
    }
    (samples, deferred)
}

/// Re-runs each deferred cold spec through its figure binary and marks a
/// sample whose served body differs.
fn check_deferred(
    w: Workload,
    bins: &Bins,
    deferred: &[Deferred],
    samples: &mut [Sample],
) -> Result<(), String> {
    for (index, s, body) in deferred {
        let (bin, args) = workload::cold_command(w, *s);
        let out = Command::new(bins.path(bin))
            .args(&args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {bin}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{bin} {} failed ({})", args.join(" "), out.status));
        }
        if out.stdout != *body {
            samples[*index].outcome = Outcome::Mismatch;
        }
    }
    Ok(())
}

/// Two threads sending the seeded serving stream on a fixed schedule.
/// Requests due in the first [`OPEN_LOOP_WARMUP`] are not reported.
/// Returns the samples, each window's steal ticks, and the servers' peak
/// RSS when `--seconds` of load were over. An extension under steal does
/// not count there: the cluster worker's memory grows with every forward.
fn open_loop(opts: &Options, service: &Service, rate: f64) -> (Vec<Sample>, Vec<u64>, f64) {
    let warmup = if opts.quick { OPEN_LOOP_WARMUP / 4 } else { OPEN_LOOP_WARMUP };
    let mut peak_rss_mb = 0.0;
    let (samples, steal) = scheduled(
        rate,
        warmup,
        opts.seconds,
        host::steal_ticks,
        || peak_rss_mb = service.peak_rss_mb(),
        |i| {
            let req = workload::serving_request(opts.seed, i);
            let (outcome, hit, _) = send(service, &req.spec, req.digest(), HOT_TIMEOUT);
            (outcome, hit)
        },
    );
    (samples, steal, peak_rss_mb)
}

/// Whole [`WINDOW`]s in `seconds` of timed load.
fn timed_windows(seconds: f64) -> usize {
    (seconds / WINDOW.as_secs_f64()).ceil() as usize
}

/// Quiet windows an open-loop run needs: a third of those `seconds`
/// hold, so that 2500 serve_mix requests in 15 s still count.
fn quiet_needed(seconds: f64) -> usize {
    timed_windows(seconds).div_ceil(3)
}

/// Sends request `i` at `i / rate` seconds from two threads, whether or
/// not earlier ones have been answered. Latency runs from when a request
/// was due, so a stall is charged to every request queued behind it, not
/// only to the one that stalled. A third thread reads `steal_ticks` at
/// each [`WINDOW`] boundary of the timed part, and does nothing else. The
/// timed part lasts `seconds`, then goes on window by window while fewer
/// than [`quiet_needed`] windows were quiet, up to [`MAX_LOAD_FACTOR`]
/// times `seconds`. The third thread calls `at_planned_end` once the
/// first `seconds` are over. Returns the timed samples and each window's
/// steal ticks.
fn scheduled(
    rate: f64,
    warmup: Duration,
    seconds: f64,
    steal_ticks: impl Fn() -> u64 + Sync,
    at_planned_end: impl FnOnce() + Send,
    send: impl Fn(u64) -> (Outcome, bool) + Sync,
) -> (Vec<Sample>, Vec<u64>) {
    let start = Instant::now() + Duration::from_millis(20);
    let (windows, needed) = (timed_windows(seconds), quiet_needed(seconds));
    let stop = AtomicBool::new(false);
    let (send, stop, steal_ticks) = (&send, &stop, &steal_ticks);
    std::thread::scope(|scope| {
        let monitor = scope.spawn(move || {
            let timed = start + warmup;
            sleep_until(timed);
            let mut mark = steal_ticks();
            let mut steal = Vec::new();
            let mut at_planned_end = Some(at_planned_end);
            loop {
                sleep_until(timed + WINDOW * (steal.len() as u32 + 1));
                let now = steal_ticks();
                steal.push(now.saturating_sub(mark));
                mark = now;
                if let Some(f) = at_planned_end.take_if(|_| steal.len() == windows) {
                    f();
                }
                let quiet = steal.iter().filter(|&&t| t <= QUIET_STEAL_TICKS).count();
                let ended = quiet >= needed || steal.len() >= MAX_LOAD_FACTOR * windows;
                if steal.len() >= windows && ended {
                    stop.store(true, Ordering::Relaxed);
                    return steal;
                }
            }
        });
        let threads: Vec<_> = (0..2u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for i in (t..).step_by(2) {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let offset = i as f64 / rate;
                        let due = start + Duration::from_secs_f64(offset);
                        sleep_until(due);
                        let sent = Instant::now();
                        let (outcome, hit) = send(i);
                        let done = Instant::now();
                        let timed = offset - warmup.as_secs_f64();
                        if timed >= 0.0 {
                            samples.push(Sample {
                                latency_ms: (done - due).as_secs_f64() * 1e3,
                                request_us: (done - sent).as_secs_f64() * 1e6,
                                late_ms: (sent - due).as_secs_f64() * 1e3,
                                outcome,
                                hit,
                                scale: 1.0,
                                window: (timed / WINDOW.as_secs_f64()) as usize,
                            });
                        }
                    }
                    samples
                })
            })
            .collect();
        let steal = monitor.join().expect("steal thread panicked");
        // A request or two went out after the last boundary, before the
        // load threads saw the stop.
        let samples = threads
            .into_iter()
            .flat_map(|t| t.join().expect("load thread panicked"))
            .filter(|s| s.window < steal.len())
            .collect();
        (samples, steal)
    })
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Coordinator forward count and worker memory maps at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct ClusterSnapshot {
    forwarded: f64,
    maps: usize,
}

impl ClusterSnapshot {
    fn take(service: &Service) -> Result<ClusterSnapshot, String> {
        if !service.is_cluster() {
            return Ok(ClusterSnapshot::default());
        }
        Ok(ClusterSnapshot {
            forwarded: prometheus_sum(&get(service, "/metrics")?, "cluster_forwarded_total"),
            maps: service.worker_maps(),
        })
    }
}

/// A traced run's view of the servers just before the timed load.
#[derive(Debug, Clone, Copy)]
struct Baseline {
    /// The highest request number the front end has handed out, this
    /// very `GET /trace` included: set-up traffic stays out of the
    /// stage figures.
    last_request: u64,
    cluster: ClusterSnapshot,
}

impl Baseline {
    fn take(service: &Service) -> Result<Baseline, String> {
        let last_request = get(service, "/trace")?
            .lines()
            .filter_map(|l| json::parse(l).ok()?.get("request")?.as_f64())
            .fold(0.0, f64::max) as u64;
        Ok(Baseline { last_request, cluster: ClusterSnapshot::take(service)? })
    }
}

/// What a traced run reads from the servers after the timed window.
struct Observed {
    cluster: bool,
    trace: String,
    metrics: String,
    before: Baseline,
    after: ClusterSnapshot,
}

impl Observed {
    fn fetch(service: &Service, before: Baseline) -> Result<Observed, String> {
        let cluster = service.is_cluster();
        let trace = get(service, if cluster { "/trace?federated=1" } else { "/trace" })?;
        Ok(Observed {
            cluster,
            trace,
            metrics: get(service, "/metrics")?,
            before,
            after: ClusterSnapshot::take(service)?,
        })
    }

    /// Fills the per-layer metrics this workload exercises. Returns
    /// whether the replayed cells matched the simulator's own runner.
    fn layer_metrics(
        &self,
        w: Workload,
        seed: u64,
        layers: &Path,
        values: &mut BTreeMap<&'static str, f64>,
    ) -> Result<bool, String> {
        let after = self.before.last_request.to_string();
        let stages = run_layers(layers, &["stages", &after], &self.trace)?;
        copy_declared(&stages, values);
        let stat = |key: &str| stages.get(key).copied().unwrap_or(0.0);
        if self.cluster {
            let forwarded = self.after.forwarded - self.before.cluster.forwarded;
            let new_maps = self.after.maps as f64 - self.before.cluster.maps as f64;
            values.insert("serve.span_dropped", stat("trace.dropped"));
            values.insert("cluster.forwarded", forwarded);
            values.insert(
                "cluster.failovers",
                prometheus_sum(&self.metrics, "cluster_failovers_total"),
            );
            values.insert("cluster.orphans", stat("trace.orphans"));
            values.insert("cluster.worker_maps_per_forward", new_maps / forwarded.max(1.0));
        } else {
            values.insert(
                "serve.span_dropped",
                prometheus_sum(&self.metrics, "hbc_span_dropped_total"),
            );
            values.insert(
                "serve.cache_evictions",
                prometheus_sum(&self.metrics, "serve_cache_evictions_total"),
            );
        }
        let replay = match w {
            Workload::ColdFig6 => "replay-fig6",
            Workload::ColdFig3 => "replay-fig3",
            Workload::ServeMix | Workload::ClusterMix => return Ok(true),
        };
        let s = workload::derive(seed, Stream::Measured, 0).to_string();
        let out = run_layers(layers, &[replay, &s], "")?;
        copy_declared(&out, values);
        Ok(out.get("replay.mismatches") == Some(&0.0))
    }
}

/// Takes over every value the layer probe printed under a declared name.
fn copy_declared(out: &BTreeMap<String, f64>, values: &mut BTreeMap<&'static str, f64>) {
    for (k, v) in out {
        if let Some(slot) = values.get_mut(k.as_str()) {
            *slot = *v;
        }
    }
}

/// Runs the layer probe binary with `stdin` as its input and parses its
/// `name value` lines.
fn run_layers(layers: &Path, args: &[&str], stdin: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut child = Command::new(layers)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", layers.display()))?;
    let mut pipe = child.stdin.take().expect("stdin is piped");
    let written = pipe.write_all(stdin.as_bytes());
    drop(pipe);
    let out = child.wait_with_output().map_err(|e| format!("layer probe: {e}"))?;
    if written.is_err() || !out.status.success() {
        return Err(format!("layer probe {} failed ({})", args.join(" "), out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| {
            l.split_once(' ')
                .and_then(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
                .ok_or_else(|| format!("layer probe printed {l:?}"))
        })
        .collect()
}

fn get(service: &Service, path: &str) -> Result<String, String> {
    match http::request(service.addr(), "GET", path, b"", HOT_TIMEOUT) {
        Ok(r) if r.status == 200 => Ok(String::from_utf8_lossy(&r.body).into_owned()),
        Ok(r) => Err(format!("GET {path} answered {}", r.status)),
        Err(e) => Err(format!("GET {path} failed: {e}")),
    }
}

/// The sum over every label set of the Prometheus sample `name`.
fn prometheus_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| l.strip_prefix(name).is_some_and(|rest| rest.starts_with([' ', '{'])))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_sums_across_labels_only_for_the_exact_name() {
        let text = "# HELP cluster_forwarded_total x\n\
                    cluster_forwarded_total{worker=\"a\"} 3\n\
                    cluster_forwarded_total{worker=\"b\"} 4\n\
                    cluster_forwarded_total_other 100\n";
        assert_eq!(prometheus_sum(text, "cluster_forwarded_total"), 7.0);
        assert_eq!(prometheus_sum("hbc_span_dropped_total 0\n", "hbc_span_dropped_total"), 0.0);
        assert_eq!(prometheus_sum("", "missing"), 0.0);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // 200 req/s over two threads: each thread owes a request every
        // 10 ms. Request 10 stalls 100 ms, so the next ~9 requests of its
        // thread go out late, and their latency includes that wait.
        let (samples, _) = scheduled(
            200.0,
            Duration::ZERO,
            1.0,
            || 0,
            || {},
            |i| {
                if i == 10 {
                    std::thread::sleep(Duration::from_millis(100));
                }
                (Outcome::Ok, false)
            },
        );
        assert!((198..=200).contains(&samples.len()), "{} samples", samples.len());
        let late: Vec<&Sample> = samples.iter().filter(|s| s.late_ms > 20.0).collect();
        assert!(late.len() >= 5, "{} late requests", late.len());
        for s in &late {
            assert!(s.latency_ms >= s.late_ms, "latency must include the wait");
            assert!(s.request_us < 20_000.0, "service time excludes the wait");
        }
        assert!(samples.iter().any(|s| s.late_ms > 80.0 && s.latency_ms > 80.0));
        let on_time = samples.iter().filter(|s| s.late_ms < 5.0).count();
        assert!(on_time >= 40, "the other thread keeps its schedule: {on_time}");
    }

    #[test]
    fn fast_failures_do_not_lower_the_latency() {
        let sample = |latency_ms, outcome| Sample {
            latency_ms,
            request_us: latency_ms * 1e3,
            late_ms: 0.0,
            outcome,
            hit: false,
            scale: 1.0,
            window: 0,
        };
        let mut samples: Vec<Sample> = (0..10).map(|_| sample(100.0, Outcome::Ok)).collect();
        samples.extend((0..10).map(|_| sample(0.1, Outcome::Transport)));
        samples.extend((0..10).map(|_| sample(0.2, Outcome::Status(502))));
        samples.push(sample(0.3, Outcome::Mismatch));
        let latencies: Vec<f64> = served(&samples).iter().map(|s| s.latency_ms).collect();
        assert_eq!(latencies.len(), 10);
        assert_eq!(percentile(&latencies, 50.0), 100.0);
    }

    #[test]
    fn quiet_windows_are_the_little_stolen_or_the_least_stolen() {
        let quiet = quiet_windows(&[0, 0, 5, 0, 9, 1], 2);
        assert_eq!(quiet, [true, true, false, true, false, true]);
        // Too few windows at or under the threshold: the two least stolen.
        assert_eq!(quiet_windows(&[12, 8, 30, 9], 2), [false, true, false, true]);
        assert_eq!(quiet_windows(&[8, 8, 8], 1), [true; 3]);
        // No steal reported: every window counts.
        assert_eq!(quiet_windows(&[0; 4], 2), [true; 4]);
    }

    #[test]
    fn a_stolen_window_extends_the_load_up_to_its_limit() {
        // The first window loses 20 ticks, the next none: one more window.
        let calls = std::sync::atomic::AtomicU64::new(0);
        let burst = || [0, 20, 20][calls.fetch_add(1, Ordering::Relaxed).min(2) as usize];
        let mut reads_at_planned_end = Vec::new();
        let planned_end = || reads_at_planned_end.push(calls.load(Ordering::Relaxed));
        let ok = |_| (Outcome::Ok, false);
        let (samples, steal) =
            scheduled(100.0, Duration::from_millis(50), 1.0, burst, planned_end, ok);
        assert_eq!(steal, [20, 0]);
        // Once, after the read that closed the planned window.
        assert_eq!(reads_at_planned_end, [2]);
        assert_eq!(quiet_windows(&steal, quiet_needed(1.0)), [false, true]);
        for w in 0..2 {
            // A request due on a boundary may round into either window.
            let n = samples.iter().filter(|s| s.window == w).count();
            assert!((99..=101).contains(&n), "window {w} has {n}");
        }
        // Every window loses 10 ticks: the load stops at its limit, and
        // the least stolen windows count.
        let calls = std::sync::atomic::AtomicU64::new(0);
        let steady = || 10 * calls.fetch_add(1, Ordering::Relaxed);
        let (_, steal) = scheduled(100.0, Duration::from_millis(50), 1.0, steady, || {}, ok);
        assert_eq!(steal, [10; MAX_LOAD_FACTOR]);
        assert_eq!(quiet_windows(&steal, quiet_needed(1.0)), [true; MAX_LOAD_FACTOR]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![(metrics::END_TO_END[2], 0.8127)],
        };
        let v = json::parse(&r.to_json_line()).expect("valid JSON");
        let json::Value::Obj(pairs) = &v else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(json::Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit"), Some(&json::Value::Str("s".to_string())));
    }
}
