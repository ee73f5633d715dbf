//! The three workloads and the per-layer analysis they share.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pbrs_gateway::GatewayClient;
use pbrs_obs::Stage;
use pbrs_store::{DaemonConfig, PlacementPolicy, RepairDaemon};

use crate::backend::{Recorder, Span};
use crate::loadgen::{self, Fail, Kind, Op, Outcome, RunReport};
use crate::oracle::{self, Rng, Zipf};
use crate::probes;
use crate::stack::{self, population, Object, Stack, StackSpec};
use crate::stats::{self, Metrics};

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub epoch: Instant,
    pub work: PathBuf,
}

/// A workload's result: metrics, the op tally, and any correctness
/// problem found (one is enough to fail the run).
#[derive(Default)]
pub struct Report {
    pub m: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    fn tally(&mut self, outcomes: &[Outcome]) {
        self.attempted += outcomes.len() as u64;
        for o in outcomes.iter().filter(|o| o.fail.is_some()) {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems
                    .push(format!("{:?} {} failed: {:?}", o.kind, o.name, o.fail));
            }
        }
    }

    /// Tallies a rung of the capacity ladder. Overload answers (BUSY,
    /// deadline expiry, no answer within the drain) make the rung miss
    /// its limit but are what a gateway past its capacity should do, so
    /// they do not fail the run; any other failure does.
    fn tally_rung(&mut self, outcomes: &[Outcome]) {
        let kept: Vec<Outcome> = outcomes
            .iter()
            .filter(|o| !matches!(o.fail, Some(Fail::Busy | Fail::Expired | Fail::Unanswered)))
            .cloned()
            .collect();
        self.attempted += (outcomes.len() - kept.len()) as u64;
        self.tally(&kept);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Drain allowance after the last arrival before a request counts as
/// unanswered.
const DRAIN: Duration = Duration::from_secs(10);

fn lat(outcomes: &[Outcome], kind: Kind, pick: impl Fn(&Outcome) -> bool) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.kind == kind && o.fail.is_none() && pick(o))
        .map(Outcome::latency_ms)
        .collect()
}

fn never_stop() -> AtomicBool {
    AtomicBool::new(false)
}

/// Set-ups per run on `get-remote` and `mixed-local`. `setup_s` is
/// their median, so one set-up caught by an fsync stall does not move
/// it; every set-up leaves its files (see [`Stack::stop`]), so each one
/// more costs disk space.
const SETUP_REPEATS: usize = 5;

/// Sets up `times` stacks in a row and returns the last one to measure
/// on; `setup_s` is the median set-up time. `prepare` ingests and
/// wounds. Each earlier stack is stopped before the next set-up is
/// timed; its files stay (see [`Stack::stop`]).
fn setup_repeated(
    ctx: &Ctx,
    spec: &StackSpec,
    times: usize,
    rep: &mut Report,
    mut prepare: impl FnMut(&Stack) -> Result<Vec<f64>, String>,
) -> Result<(Stack, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut put_ms = Vec::new();
    let mut last: Option<Stack> = None;
    for i in 0..times {
        if let Some(spare) = last.take() {
            spare.stop();
        }
        let t = Instant::now();
        let stack = Stack::build(&ctx.work.join(format!("stack-{i}")), spec, ctx.epoch)
            .map_err(|e| format!("build stack: {e}"))?;
        put_ms.extend(prepare(&stack)?);
        secs.push(t.elapsed().as_secs_f64());
        last = Some(stack);
    }
    let each: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up times: {} s", each.join(" "));
    rep.m.put("setup_s", stats::median(&secs), "s");
    Ok((last.ok_or("no stack")?, put_ms))
}

/// `cpu_us_per_op` and `chunk_bytes_per_op` of `ops` operations that
/// took `cpu_us` of process CPU and moved `chunk_bytes` to and from the
/// disks.
fn put_costs(m: &mut Metrics, cpu_us: u64, chunk_bytes: u64, ops: usize) {
    let ops = ops.max(1) as f64;
    m.put("cpu_us_per_op", cpu_us as f64 / ops, "us");
    m.put("chunk_bytes_per_op", chunk_bytes as f64 / ops, "bytes");
}

/// Thread CPU snapshot plus the recorder and socket counters, taken
/// around a measured phase.
struct Marks {
    cpu: Vec<(String, u64)>,
    /// CPU of the whole process, exited threads included, µs.
    process_cpu_us: u64,
    read_ops: u64,
    read_bytes: u64,
    write_ops: u64,
    write_bytes: u64,
    socket_rx: u64,
    link_bytes: u64,
    link_wait_s: f64,
}

impl Marks {
    /// Process CPU (µs) and chunk bytes read and written since `before`.
    fn costs_since(&self, before: &Marks) -> (u64, u64) {
        (
            self.process_cpu_us - before.process_cpu_us,
            self.read_bytes + self.write_bytes - before.read_bytes - before.write_bytes,
        )
    }
}

fn marks(stack: &Stack) -> Marks {
    Marks {
        cpu: stats::thread_cpu(),
        process_cpu_us: stats::process_cpu_us(),
        read_ops: Recorder::get(&stack.rec.read_ops),
        read_bytes: Recorder::get(&stack.rec.read_bytes),
        write_ops: Recorder::get(&stack.rec.write_ops),
        write_bytes: Recorder::get(&stack.rec.write_bytes),
        socket_rx: stack.store.socket_counters().bytes_received,
        link_bytes: stack.link.as_ref().map_or(0, |l| l.bytes()),
        link_wait_s: stack.link.as_ref().map_or(0.0, |l| l.wait_s()),
    }
}

/// Per-layer metrics of one traced phase: the GETs and PUTs in
/// `outcomes`, the backend spans recorded meanwhile, and the counters
/// between `before` and `after`.
fn layers(
    stack: &Stack,
    outcomes: &[Outcome],
    spans: &[Span],
    before: &Marks,
    after: &Marks,
    gw: &GwSnap,
    rep: &mut Report,
) {
    let m = &mut rep.m;
    let ops = outcomes.len().max(1) as f64;
    let gets: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.kind == Kind::Get && o.fail.is_none())
        .collect();
    let puts = outcomes.iter().filter(|o| o.kind == Kind::Put).count();
    let cpu =
        |prefix: &str, but: &[&str]| stats::cpu_delta(&before.cpu, &after.cpu, prefix, but) as f64;

    // loadgen: generator lag, backlog, CPU.
    let lags: Vec<f64> = outcomes
        .iter()
        .map(|o| o.sent_us.saturating_sub(o.due_us) as f64 / 1000.0)
        .collect();
    m.put("loadgen.lag_p99_ms", stats::quantile(&lags, 0.99), "ms");
    m.put(
        "loadgen.cpu_us_per_op",
        (cpu("pb-load", &[]) + cpu("perfbench", &[])) / ops,
        "us",
    );

    // gateway: CPU by thread, queue and flush stages, shed requests.
    m.put(
        "gateway.reactor_cpu_us_per_op",
        cpu("gw-reactor", &[]) / ops,
        "us",
    );
    m.put(
        "gateway.worker_cpu_us_per_op",
        cpu("gw-worker", &[]) / ops,
        "us",
    );
    m.put("gateway.queue_p99_us", gw.queue_p99_us, "us");
    m.put("gateway.flush_p50_us", gw.flush_p50_us, "us");
    m.put("gateway.requests_shed", gw.shed, "count");

    // backend: spans tied to each GET through its trace id.
    let mut by_trace: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut read_ops = Vec::new();
    let mut read_bytes = Vec::new();
    let mut read_durs = Vec::new();
    let mut conc = Vec::new();
    let mut gw_self = Vec::new();
    let mut bad_containment = 0usize;
    let mut bad_sum = 0usize;
    let store_self = m.get("store.self_us_per_op").unwrap_or(0.0);
    let stripe_len = stack.store.stripe_data_len() as f64;
    for g in &gets {
        let reads: Vec<&&Span> = by_trace
            .get(&g.trace)
            .map(|v| v.iter().filter(|s| !s.write).collect())
            .unwrap_or_default();
        let mut iv: Vec<(u64, u64)> = reads.iter().map(|s| (s.start_us, s.end_us)).collect();
        let union = stats::union_len(&mut iv) as f64;
        let sum: f64 = reads.iter().map(|s| (s.end_us - s.start_us) as f64).sum();
        read_ops.push(reads.len() as f64);
        read_bytes.push(reads.iter().map(|s| s.bytes).sum::<u64>() as f64);
        read_durs.extend(reads.iter().map(|s| s.io_us() as f64));
        conc.push(stats::ratio(sum, union));
        // Every span must sit inside its GET (1 ms of clock slack), and
        // lag plus backend time cannot exceed what the client saw.
        if reads
            .iter()
            .any(|s| s.start_us + 1000 < g.sent_us || s.end_us > g.done_us + 1000)
        {
            bad_containment += 1;
        }
        let total = g.done_us.saturating_sub(g.due_us) as f64;
        let lag = g.sent_us.saturating_sub(g.due_us) as f64;
        if lag + union > total + 1000.0 {
            bad_sum += 1;
        }
        let stripes = (g.bytes as f64 / stripe_len).ceil();
        gw_self.push((total - lag - union - stripes * store_self).max(0.0));
    }
    m.put("gateway.self_us_per_get", stats::mean(&gw_self), "us");
    m.put("backend.read_ops_per_get", stats::mean(&read_ops), "count");
    m.put(
        "backend.read_bytes_per_get",
        stats::mean(&read_bytes),
        "bytes",
    );
    m.put(
        "backend.read_p50_us",
        stats::quantile(&read_durs, 0.5),
        "us",
    );
    m.put(
        "backend.read_p99_us",
        stats::quantile(&read_durs, 0.99),
        "us",
    );
    m.put("backend.read_concurrency", stats::mean(&conc), "ratio");
    let writes: Vec<f64> = spans
        .iter()
        .filter(|s| s.write)
        .map(|s| (s.end_us - s.start_us) as f64)
        .collect();
    m.put(
        "backend.write_ops_per_put",
        stats::ratio((after.write_ops - before.write_ops) as f64, puts as f64),
        "count",
    );
    if !writes.is_empty() {
        m.put("backend.write_p99_us", stats::quantile(&writes, 0.99), "us");
    }
    m.put(
        "backend.errors",
        Recorder::get(&stack.rec.errors) as f64,
        "count",
    );
    m.put(
        "bench.accounting_ok",
        f64::from(u8::from(bad_containment == 0 && bad_sum == 0)),
        "bool",
    );
    println!(
        "accounting: {} traced GETs; {bad_containment} with a backend span outside the GET, \
         {bad_sum} whose lag + backend time exceeds the client time (bounds: 1 ms)",
        gets.len()
    );

    // link: what the phase's reads paid the shaper (the repair figures
    // of repair-shaped, when already set, stay).
    if m.get("link.bytes").is_none() {
        m.put(
            "link.bytes",
            (after.link_bytes - before.link_bytes) as f64,
            "bytes",
        );
        m.put("link.wait_s", after.link_wait_s - before.link_wait_s, "s");
    }

    // chunkd: server op latency, CPU, socket bytes.
    let mut srv_p50 = Vec::new();
    let mut srv_p99 = Vec::new();
    for s in &stack.servers {
        for (name, summary) in s.op_latency() {
            if name.contains("read") && summary.count > 0 {
                srv_p50.push(summary.p50_us as f64);
                srv_p99.push(summary.p99_us as f64);
            }
        }
    }
    let remote = !stack.servers.is_empty();
    let reads = (after.read_ops - before.read_ops) as f64;
    let payload = (after.read_bytes - before.read_bytes) as f64;
    let rx = (after.socket_rx - before.socket_rx) as f64;
    let srv50 = stats::median(&srv_p50);
    m.put("chunkd.server_read_p50_us", srv50, "us");
    m.put("chunkd.server_read_p99_us", stats::median(&srv_p99), "us");
    m.put(
        "chunkd.client_minus_server_p50_us",
        if remote {
            stats::quantile(&read_durs, 0.5) - srv50
        } else {
            0.0
        },
        "us",
    );
    m.put(
        "chunkd.server_cpu_us_per_op",
        stats::ratio(cpu("chunkd-", &["chunkd-demux"]), reads),
        "us",
    );
    m.put(
        "chunkd.client_cpu_us_per_op",
        stats::ratio(cpu("chunkd-demux", &[]), reads),
        "us",
    );
    m.put(
        "chunkd.socket_rx_bytes_per_get",
        stats::ratio(rx, gets.len() as f64),
        "bytes",
    );
    m.put("chunkd.wire_overhead", stats::ratio(rx, payload), "ratio");
    m.put(
        "chunkd.reconnects",
        stack
            .remotes
            .iter()
            .map(|r| r.reconnect_stats().attempts)
            .sum::<u64>() as f64,
        "count",
    );
}

/// Fills every per-layer metric a workload did not exercise with 0 (the
/// repair figures off repair-shaped, `chunkd.*` on local disks), so each
/// traced run reports the full set.
fn zero_fill(m: &mut Metrics, names: &[(&str, &str)]) {
    for (name, unit) in names {
        if m.get(name).is_none() {
            m.put(name, 0.0, unit);
        }
    }
}

fn degraded_share(outcomes: &[Outcome]) -> f64 {
    let gets: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.kind == Kind::Get && o.fail.is_none())
        .collect();
    stats::ratio(
        gets.iter().filter(|o| o.degraded()).count() as f64,
        gets.len() as f64,
    )
}

// ---------------------------------------------------------------------
// get-remote
// ---------------------------------------------------------------------

const GR_OBJECTS: usize = 24;
const GR_WOUND_READ_SHARE: f64 = 0.2;
/// Offered GET rates (req/s) of the ladder a traced run climbs after the
/// reference rung `GR_REF`, which every run measures for `--seconds`.
const GR_LADDER: [f64; 7] = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0];
const GR_REF: usize = 1;
/// Seconds per ladder rung other than the reference.
const GR_RUNG_S: f64 = 2.0;
/// p99 limit a rung must meet to count towards `get_max_rps`.
const GR_P99_LIMIT_MS: f64 = 250.0;
/// Unmeasured load before the ladder, seconds.
const GR_WARMUP_S: f64 = 1.5;

pub fn get_remote(ctx: &Ctx, names: &[(&str, &str)]) -> Result<Report, String> {
    let mut rep = Report::default();
    let spec = StackSpec {
        code: "piggyback-10-4",
        chunk_len: 16 * 1024,
        remote: true,
        placement: PlacementPolicy::RackDisjoint,
        rack_rate: None,
    };
    let stripe = 10 * spec.chunk_len;
    // Every object spans exactly two stripes (the second partly filled),
    // so each GET does the same chunk reads whichever sizes the seed
    // draws for the popular ranks.
    let objects = population(ctx.seed, "obj", GR_OBJECTS, stripe * 3 / 2, 2 * stripe);
    let zipf = Zipf::new(GR_OBJECTS, 1.0);
    let (wounded, wound_share) = oracle::wound_by_read_share(
        zipf.probs(),
        GR_WOUND_READ_SHARE,
        &mut Rng::new(ctx.seed ^ 0x3ed),
    );
    let (stack, put_ms) = setup_repeated(ctx, &spec, SETUP_REPEATS, &mut rep, |s| {
        let lat = s.ingest(&objects)?;
        for &i in &wounded {
            s.wound(&objects[i].name).map_err(|e| e.to_string())?;
        }
        Ok(lat)
    })?;
    let ingest_writes = Recorder::get(&stack.rec.write_ops) as f64;
    rep.m.put("put_p50_ms", stats::median(&put_ms), "ms");
    rep.m
        .put("put_p99_ms", stats::quantile(&put_ms, 0.99), "ms");
    rep.m.put(
        "bench.wounded_object_share",
        wounded.len() as f64 / GR_OBJECTS as f64,
        "ratio",
    );
    rep.m.put("bench.wounded_read_share", wound_share, "ratio");

    let mut rng = Rng::new(ctx.seed ^ 0x6e7);
    let drive =
        |rate: f64, secs: f64, trace_seed: u64, rng: &mut Rng| -> Result<RunReport, String> {
            let arrivals = loadgen::poisson(rng, rate, 0.05, secs);
            let mut pick = Rng::new(rng.next_u64());
            loadgen::run(
                stack.gateway.local_addr(),
                ctx.epoch,
                &arrivals,
                || {
                    let o = &objects[zipf.sample(&mut pick)];
                    Some(Op {
                        kind: Kind::Get,
                        name: o.name.clone(),
                        key: o.key,
                        len: o.len,
                        user: 0,
                    })
                },
                |_| {},
                trace_seed,
                &never_stop(),
                DRAIN,
            )
            .map_err(|e| e.to_string())
        };
    let ref_rate = GR_LADDER[GR_REF];
    // Connections, caches and the reactor settle before anything is timed.
    let warm = drive(ref_rate, GR_WARMUP_S, 0, &mut rng)?;
    rep.tally(&warm.outcomes);

    let traced = if ctx.trace {
        Some(traced_pass(&stack, &mut rep, || {
            drive(ref_rate, ctx.seconds, ctx.seed | 1, &mut rng)
        })?)
    } else {
        None
    };
    let before = marks(&stack);
    let run = drive(ref_rate, ctx.seconds, 0, &mut rng)?;
    let (cpu_us, chunk_bytes) = marks(&stack).costs_since(&before);
    put_costs(&mut rep.m, cpu_us, chunk_bytes, run.outcomes.len());
    rep.tally(&run.outcomes);
    let all = lat(&run.outcomes, Kind::Get, |_| true);
    rep.m.put("get_p10_ms", stats::quantile(&all, 0.1), "ms");
    rep.m.put("get_p50_ms", stats::median(&all), "ms");
    rep.m.put("get_p99_ms", stats::quantile(&all, 0.99), "ms");
    let degraded = lat(&run.outcomes, Kind::Get, |o| o.degraded());
    rep.m.put(
        "get_degraded_p99_ms",
        stats::quantile(&degraded, 0.99),
        "ms",
    );
    rep.m.put("bench.get_samples", all.len() as f64, "count");
    rep.m
        .put("loadgen.backlog_max", run.backlog_max as f64, "count");
    rep.m.put(
        "store.degraded_read_share",
        degraded_share(&run.outcomes),
        "ratio",
    );

    if ctx.trace {
        // The ladder: rungs below the reference count as met by the
        // reference's own result; above it, climb until a rung misses.
        let ref_ok = stats::quantile(&all, 0.99) <= GR_P99_LIMIT_MS
            && run.outcomes.iter().all(|o| o.fail.is_none());
        let mut max_rps = if ref_ok { ref_rate } else { 0.0 };
        for (i, &rate) in GR_LADDER.iter().enumerate() {
            if i == GR_REF || (i > GR_REF && max_rps < GR_LADDER[i - 1]) {
                continue;
            }
            let run = drive(rate, GR_RUNG_S, 0, &mut rng)?;
            rep.tally_rung(&run.outcomes);
            let got = lat(&run.outcomes, Kind::Get, |_| true);
            let p99 = stats::quantile(&got, 0.99);
            let ok = p99 <= GR_P99_LIMIT_MS && run.outcomes.iter().all(|o| o.fail.is_none());
            println!(
                "rung {rate:>6.1} req/s: {} GETs, p50 {:.2} ms, p99 {p99:.2} ms, backlog max {}, {}",
                got.len(),
                stats::median(&got),
                run.backlog_max,
                if ok { "meets the limit" } else { "misses the limit" }
            );
            if ok && (i < GR_REF || max_rps >= GR_LADDER[i - 1]) {
                max_rps = max_rps.max(rate);
            }
        }
        rep.m.put("get_max_rps", max_rps, "req/s");
    }
    let live: u64 = objects.iter().map(|o| o.len).sum();
    rep.m.put(
        "stored_bytes_per_byte",
        stack.stored_bytes() as f64 / live as f64,
        "ratio",
    );
    if let Some(t) = traced {
        probes::codec(spec.code, spec.chunk_len, ctx.seed, &mut rep.m)?;
        probes::store(
            &stack,
            &population(ctx.seed, "probe", 4, stripe, 3 * stripe),
            &mut rep.m,
        )?;
        t.finish(&stack, &mut rep);
        rep.m.put(
            "backend.write_ops_per_put",
            ingest_writes / objects.len() as f64,
            "count",
        );
    }
    rep.m.put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    stack.stop();
    if ctx.trace {
        zero_fill(&mut rep.m, names);
    }
    Ok(rep)
}

/// What a traced pass leaves for the per-layer analysis, which runs
/// after the direct probes have measured the store's own self time.
struct Traced {
    run: RunReport,
    spans: Vec<Span>,
    before: Marks,
    after: Marks,
    gw: GwSnap,
}

/// Runs `pass` with span recording on and keeps what the analysis needs.
fn traced_pass(
    stack: &Stack,
    rep: &mut Report,
    pass: impl FnOnce() -> Result<RunReport, String>,
) -> Result<Traced, String> {
    stack.rec.take_spans();
    stack.rec.set_tracing(true);
    let before = marks(stack);
    let run = pass();
    let after = marks(stack);
    let gw = GwSnap::take(stack);
    stack.rec.set_tracing(false);
    let spans = stack.rec.take_spans();
    let run = run?;
    rep.tally(&run.outcomes);
    Ok(Traced {
        run,
        spans,
        before,
        after,
        gw,
    })
}

impl Traced {
    /// Per-layer metrics, plus the tracing overhead against the
    /// untraced `get_p99_ms` already in `rep`.
    fn finish(self, stack: &Stack, rep: &mut Report) {
        let p99 = stats::quantile(&lat(&self.run.outcomes, Kind::Get, |_| true), 0.99);
        let base = rep.m.get("get_p99_ms").unwrap_or(0.0);
        rep.m
            .put("bench.trace_overhead_pct", (p99 / base - 1.0) * 100.0, "%");
        layers(
            stack,
            &self.run.outcomes,
            &self.spans,
            &self.before,
            &self.after,
            &self.gw,
            rep,
        );
    }
}

/// The gateway's stage and shed figures right after a traced pass,
/// before later load adds to them.
struct GwSnap {
    queue_p99_us: f64,
    flush_p50_us: f64,
    shed: f64,
}

impl GwSnap {
    fn take(stack: &Stack) -> GwSnap {
        let gw = stack.gateway.metrics();
        let lat = gw.latency();
        let mut stages = lat.healthy_get_stages.clone();
        stages.merge(&lat.degraded_get_stages);
        GwSnap {
            queue_p99_us: stages.stage(Stage::Queue).p99() as f64,
            flush_p50_us: stages.stage(Stage::Flush).p50() as f64,
            shed: gw.snapshot().requests_shed as f64,
        }
    }
}

// ---------------------------------------------------------------------
// mixed-local
// ---------------------------------------------------------------------

const ML_NAMES: usize = 64;
const ML_RATE: f64 = 50.0;
/// Every fifth op is a mutation, the rest GETs; mutations alternate
/// DELETE and re-PUT, so every run has the same mix.
const ML_MUTATE_EVERY: u64 = 5;
/// Unmeasured mix before the measured one, seconds.
const ML_WARMUP_S: f64 = 1.5;
/// Deleted names the mix lets pile up before it re-PUTs one for sure.
const ML_MAX_DELETED: usize = 4;

/// Where each name of the pool stands. A name is read only while live
/// and mutated only while no GET of it is in flight, so every GET's
/// expected content (and version) is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NameState {
    /// Live at a version, with this many GETs in flight.
    Live(u64, u32),
    Deleted(u64),
    Busy,
}

fn ml_name(i: usize) -> String {
    format!("mix-{i:04}")
}

/// Picks op number `seq` of the mix and marks a mutated name busy.
fn ml_next(
    s: &mut [NameState],
    seq: u64,
    zipf: &Zipf,
    rng: &mut Rng,
    seed: u64,
    len_of: &dyn Fn(&str, u64) -> u64,
) -> Option<Op> {
    let n = s.len();
    let scan = |start: usize, idle: bool| {
        (0..n).map(|d| (start + d) % n).find_map(|i| match s[i] {
            NameState::Live(v, readers) if !idle || readers == 0 => Some((i, v)),
            _ => None,
        })
    };
    let mutation = (seq % ML_MUTATE_EVERY == ML_MUTATE_EVERY - 1).then_some(seq / ML_MUTATE_EVERY);
    let (i, kind, version) = if let Some(m) = mutation {
        // Mutation number `m`: odd ones re-PUT a deleted name, even ones
        // DELETE an idle live one; each falls back to the other.
        let deleted: Vec<(usize, u64)> = (0..n)
            .filter_map(|i| match s[i] {
                NameState::Deleted(v) => Some((i, v)),
                _ => None,
            })
            .collect();
        let put = m % 2 == 1 || deleted.len() >= ML_MAX_DELETED;
        let idle = scan(rng.below(n), true);
        match idle {
            Some((i, v)) if !put || deleted.is_empty() => (i, Kind::Delete, v),
            _ => {
                let (i, v) = *deleted.get(rng.below(deleted.len().max(1)))?;
                (i, Kind::Put, v + 1)
            }
        }
    } else {
        let (i, v) = scan(zipf.sample(rng), false)?;
        (i, Kind::Get, v)
    };
    s[i] = match (kind, s[i]) {
        (Kind::Get, NameState::Live(v, readers)) => NameState::Live(v, readers + 1),
        _ => NameState::Busy,
    };
    let name = ml_name(i);
    Some(Op {
        kind,
        key: oracle::content_key(seed, &name, version),
        len: len_of(&name, version),
        name,
        user: version,
    })
}

pub fn mixed_local(ctx: &Ctx, names: &[(&str, &str)]) -> Result<Report, String> {
    let mut rep = Report::default();
    let spec = StackSpec {
        code: "piggyback-10-4",
        chunk_len: 4 * 1024,
        remote: false,
        placement: PlacementPolicy::Identity,
        rack_rate: None,
    };
    let stripe = 10 * spec.chunk_len;
    let min_len = stripe * 6 / 10;
    let seed = ctx.seed;
    let len_of = move |name: &str, version: u64| -> u64 {
        min_len as u64
            + oracle::content_key(seed ^ 0x1e4, name, version) % (stripe - min_len + 1) as u64
    };
    let objects: Vec<Object> = (0..ML_NAMES)
        .map(|i| {
            let name = ml_name(i);
            Object {
                key: oracle::content_key(seed, &name, 0),
                len: len_of(&name, 0),
                name,
            }
        })
        .collect();
    let (stack, _) = setup_repeated(ctx, &spec, SETUP_REPEATS, &mut rep, |s| s.ingest(&objects))?;
    let state = Arc::new(Mutex::new(vec![NameState::Live(0, 0); ML_NAMES]));
    let zipf = Arc::new(Zipf::new(ML_NAMES, 1.0));
    let mut rng = Rng::new(seed ^ 0x313);

    let pass = |secs: f64, trace_seed: u64, rng: &mut Rng| -> Result<RunReport, String> {
        let arrivals = loadgen::poisson(rng, ML_RATE, 0.05, secs);
        let mut pick = Rng::new(rng.next_u64());
        let mut seq = 0;
        let (st, st_done, zipf) = (Arc::clone(&state), Arc::clone(&state), Arc::clone(&zipf));
        loadgen::run(
            stack.gateway.local_addr(),
            ctx.epoch,
            &arrivals,
            move || {
                seq += 1;
                ml_next(
                    &mut st.lock().expect("name state lock"),
                    seq,
                    &zipf,
                    &mut pick,
                    seed,
                    &len_of,
                )
            },
            move |o: &Outcome| {
                let i: usize = o.name[4..].parse().expect("mix-NNNN name");
                let mut s = st_done.lock().expect("name state lock");
                // A failed mutation leaves its name busy, so it is never
                // read with a guessed version.
                s[i] = match (o.kind, s[i], o.fail) {
                    (Kind::Get, NameState::Live(v, readers), _) => NameState::Live(v, readers - 1),
                    (Kind::Put, _, None) => NameState::Live(o.user, 0),
                    (Kind::Delete, _, None) => NameState::Deleted(o.user),
                    (_, other, _) => other,
                };
            },
            trace_seed,
            &never_stop(),
            DRAIN,
        )
        .map_err(|e| e.to_string())
    };

    let warm = pass(ML_WARMUP_S, 0, &mut rng)?;
    rep.tally(&warm.outcomes);
    let traced = if ctx.trace {
        Some(traced_pass(&stack, &mut rep, || {
            pass(ctx.seconds, seed | 1, &mut rng)
        })?)
    } else {
        None
    };
    let before = marks(&stack);
    let run = pass(ctx.seconds, 0, &mut rng)?;
    let (cpu_us, chunk_bytes) = marks(&stack).costs_since(&before);
    put_costs(&mut rep.m, cpu_us, chunk_bytes, run.outcomes.len());
    rep.tally(&run.outcomes);
    let gets = lat(&run.outcomes, Kind::Get, |_| true);
    let puts = lat(&run.outcomes, Kind::Put, |_| true);
    let dels = lat(&run.outcomes, Kind::Delete, |_| true);
    rep.m.put("get_p10_ms", stats::quantile(&gets, 0.1), "ms");
    rep.m.put("get_p50_ms", stats::median(&gets), "ms");
    rep.m.put("get_p99_ms", stats::quantile(&gets, 0.99), "ms");
    rep.m.put("bench.get_samples", gets.len() as f64, "count");
    rep.m.put("put_p50_ms", stats::median(&puts), "ms");
    rep.m.put("put_p99_ms", stats::quantile(&puts, 0.99), "ms");
    rep.m
        .put("delete_p99_ms", stats::quantile(&dels, 0.99), "ms");
    rep.m.put("bench.put_samples", puts.len() as f64, "count");
    rep.m.put(
        "store.degraded_read_share",
        degraded_share(&run.outcomes),
        "ratio",
    );
    rep.m
        .put("loadgen.backlog_max", run.backlog_max as f64, "count");
    println!(
        "mix at {ML_RATE} ops/s: {} GETs, {} PUTs, {} DELETEs",
        gets.len(),
        puts.len(),
        dels.len()
    );

    // Every live name must read back exactly; the live set's logical
    // bytes are the base of the storage overhead.
    let final_state = state.lock().expect("name state lock").clone();
    let mut client =
        GatewayClient::connect(stack.gateway.local_addr()).map_err(|e| e.to_string())?;
    let mut live_bytes = 0u64;
    for (i, st) in final_state.iter().enumerate() {
        let name = ml_name(i);
        rep.attempted += 1;
        let ok = match *st {
            NameState::Live(v, _) => {
                let want = oracle::content(
                    oracle::content_key(seed, &name, v),
                    len_of(&name, v) as usize,
                );
                live_bytes += want.len() as u64;
                client.get(&name).is_ok_and(|g| g.data == want)
            }
            NameState::Deleted(_) => client.get(&name).is_err(),
            NameState::Busy => true,
        };
        if !ok {
            rep.failed += 1;
            rep.problems
                .push(format!("final read of {name} ({st:?}) disagrees"));
        }
    }
    // A scrub sweeps the chunks of deleted names first, so the ratio is
    // the steady-state overhead of the live set, not of the moment's
    // garbage.
    stack.store.scrub().map_err(|e| e.to_string())?;
    rep.m.put(
        "stored_bytes_per_byte",
        stats::ratio(stack.stored_bytes() as f64, live_bytes as f64),
        "ratio",
    );
    if let Some(t) = traced {
        probes::codec(spec.code, spec.chunk_len, seed, &mut rep.m)?;
        probes::store(
            &stack,
            &population(seed, "probe", 8, min_len, stripe),
            &mut rep.m,
        )?;
        t.finish(&stack, &mut rep);
    }
    rep.m.put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    stack.stop();
    if ctx.trace {
        zero_fill(&mut rep.m, names);
    }
    Ok(rep)
}

// ---------------------------------------------------------------------
// repair-shaped
// ---------------------------------------------------------------------

const RS_CHUNK: usize = 16 * 1024;
/// Per-rack uplink rate, bytes/s: slow enough that the rebuild is
/// link-bound.
const RS_RATE: f64 = 512.0 * 1024.0;
/// Multi-stripe objects per second of `--seconds`, so the rebuild grows
/// with the measuring time.
const RS_BULK_PER_SECOND: f64 = 1.0;
const RS_FG_OBJECTS: usize = 24;
const RS_FG_RATE: f64 = 8.0;
/// The pool disk whose chunkd server loses everything.
const RS_LOST: usize = 0;

/// One rebuild of the lost disk under one code.
struct RepairPass {
    setup_s: f64,
    put_ms: Vec<f64>,
    repair_s: f64,
    stats: pbrs_store::DaemonStats,
    repair_cpu_us: u64,
    fg: RunReport,
    /// Process CPU (µs) and chunk bytes over the rebuild.
    cost: (u64, u64),
    link_bytes: u64,
    link_wait_s: f64,
    repair_wait_s: f64,
    fg_bytes: u64,
    conserved: bool,
    stored_per_byte: f64,
}

/// Chunk payload the foreground GETs in `outcomes` read, worked out from
/// each GET's stripes and degraded stripes: a healthy stripe reads its
/// `k` data chunks; a degraded one (shard `RS_LOST` gone, as `Identity`
/// placement puts shard i on disk i) reads the
/// other `k - 1` and then the parts of the rebuild's helper ranges that
/// are not data chunks already read. This is counted apart from the
/// shaper, which it is checked against.
fn foreground_read_bytes(stack: &Stack, outcomes: &[Outcome]) -> Result<u64, String> {
    let code = stack.store.code();
    let k = code.params().data_shards();
    let chunk = stack.store.chunk_len() as u64;
    let stripe = stack.store.stripe_data_len() as u64;
    let mut available = vec![true; code.params().total_shards()];
    available[RS_LOST] = false;
    // Every helper is in another rack, so every survivor ranks the same.
    let extra: u64 = code
        .repair_reads_ranked(RS_LOST, &available, chunk as usize, &|_| 1)
        .map_err(|e| e.to_string())?
        .iter()
        .filter(|r| r.shard >= k)
        .map(|r| r.len as u64)
        .sum();
    Ok(outcomes
        .iter()
        .filter(|o| o.kind == Kind::Get)
        .map(|o| {
            let stripes = o.bytes.div_ceil(stripe);
            stripes * k as u64 * chunk - o.degraded_stripes * (chunk - extra)
        })
        .sum())
}

fn repair_pass(
    ctx: &Ctx,
    code: &'static str,
    traced: bool,
    idx: usize,
    rep: &mut Report,
) -> Result<RepairPass, String> {
    let spec = StackSpec {
        code,
        chunk_len: RS_CHUNK,
        remote: true,
        placement: PlacementPolicy::Identity,
        rack_rate: Some(RS_RATE),
    };
    let stripe = 10 * RS_CHUNK;
    let bulk_objects = (ctx.seconds * RS_BULK_PER_SECOND).ceil() as usize;
    let bulk = population(ctx.seed, "bulk", bulk_objects, 3 * stripe + 1, 4 * stripe);
    let fg_objects = population(ctx.seed, "fg", RS_FG_OBJECTS, stripe * 3 / 4, stripe);
    let t = Instant::now();
    let stack = Stack::build(&ctx.work.join(format!("repair-{idx}")), &spec, ctx.epoch)
        .map_err(|e| format!("build stack: {e}"))?;
    let mut put_ms = stack.ingest(&bulk)?;
    put_ms.extend(stack.ingest(&fg_objects)?);
    let ingest_writes = Recorder::get(&stack.rec.write_ops) as f64;
    let lost = stack.servers[RS_LOST].root();
    fs::remove_dir_all(lost).map_err(|e| e.to_string())?;
    if let Some(parent) = lost.parent() {
        stack::settle(parent);
    }
    let setup_s = t.elapsed().as_secs_f64();

    let zipf = Zipf::new(RS_FG_OBJECTS, 1.0);
    let mut rng = Rng::new(ctx.seed ^ 0x4e9 ^ idx as u64);
    // A steady reader: evenly spaced arrivals for far longer than any
    // rebuild; the stream stops when the rebuild is done.
    let arrivals: Vec<f64> = (0..(600.0 * RS_FG_RATE) as usize)
        .map(|i| i as f64 / RS_FG_RATE)
        .collect();
    let stop = AtomicBool::new(false);
    let rec = &stack.rec;
    let link = stack
        .link
        .as_ref()
        .ok_or("repair-shaped runs on shaped links")?;
    rec.set_tracing(traced);
    rec.take_spans();
    let rw0 = Recorder::get(&rec.repair_link_wait_us);
    let before = marks(&stack);
    let (repair_s, stats, repair_cpu_us, fg) = thread::scope(|sc| -> Result<_, String> {
        let fg = thread::Builder::new()
            .name("pb-load-send".into())
            .spawn_scoped(sc, || {
                let mut pick = Rng::new(rng.next_u64());
                loadgen::run(
                    stack.gateway.local_addr(),
                    ctx.epoch,
                    &arrivals,
                    || {
                        let o = &fg_objects[zipf.sample(&mut pick)];
                        Some(Op {
                            kind: Kind::Get,
                            name: o.name.clone(),
                            key: o.key,
                            len: o.len,
                            user: 0,
                        })
                    },
                    |_| {},
                    if traced { ctx.seed | 1 } else { 0 },
                    &stop,
                    DRAIN,
                )
            })
            .map_err(|e| e.to_string())?;
        let cpu0 = stats::thread_cpu();
        let t = Instant::now();
        let daemon = RepairDaemon::start(Arc::clone(&stack.store), DaemonConfig::default());
        let scan = daemon.scan_now().map_err(|e| e.to_string());
        daemon.wait_idle();
        let repair_s = t.elapsed().as_secs_f64();
        let cpu1 = stats::thread_cpu();
        let stats = daemon.shutdown();
        // Relaxed: the sender polls it before each arrival.
        stop.store(true, Ordering::Relaxed);
        let fg = fg
            .join()
            .map_err(|_| "foreground thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        let scan = scan?;
        if scan.lost_disks != [RS_LOST] {
            return Err(format!("scan saw lost disks {:?}", scan.lost_disks));
        }
        Ok((
            repair_s,
            stats,
            stats::cpu_delta(&cpu0, &cpu1, "pbrs-repair", &[]),
            fg,
        ))
    })?;
    let after = marks(&stack);
    let cost = after.costs_since(&before);
    let gw = GwSnap::take(&stack);
    rec.set_tracing(false);
    let spans = rec.take_spans();
    let link_bytes = after.link_bytes - before.link_bytes;
    let link_wait_s = after.link_wait_s - before.link_wait_s;
    let repair_wait_s = (Recorder::get(&rec.repair_link_wait_us) - rw0) as f64 / 1e6;

    // Conservation: the shaper carried exactly the daemon's cross-rack
    // helper bytes plus what the foreground GETs had to read, each
    // counted without the shaper.
    let fg_bytes = foreground_read_bytes(&stack, &fg.outcomes)?;
    let conserved = link_bytes == stats.cross_rack_bytes + fg_bytes;
    rep.check(conserved, || {
        format!(
            "{code}: link carried {link_bytes} bytes, daemon cross-rack {} + foreground {fg_bytes}",
            stats.cross_rack_bytes
        )
    });
    rep.check(stats.failures == 0, || {
        format!("{code}: {} repairs failed", stats.failures)
    });

    // The rebuilt disk must scrub clean and every object read back
    // exactly; these reads do not pay the link.
    link.set_open(true);
    let scrub = stack.store.scrub().map_err(|e| e.to_string())?;
    rep.check(scrub.is_clean(), || {
        format!(
            "{code}: scrub after repair found {} damaged chunks",
            scrub.damages.len()
        )
    });
    let mut client =
        GatewayClient::connect(stack.gateway.local_addr()).map_err(|e| e.to_string())?;
    let mut logical = 0u64;
    for o in bulk.iter().chain(&fg_objects) {
        rep.attempted += 1;
        logical += o.len;
        let ok = client.get(&o.name).is_ok_and(|g| {
            g.degraded_stripes == 0 && g.data == oracle::content(o.key, o.len as usize)
        });
        if !ok {
            rep.failed += 1;
            rep.problems.push(format!(
                "{code}: {} does not read back healthy and exact after repair",
                o.name
            ));
        }
    }
    let stored_per_byte = stack.stored_bytes() as f64 / logical as f64;
    println!(
        "{code}: setup {setup_s:.2} s, rebuilt {} chunks in {repair_s:.3} s, helper {} B, \
         link {link_bytes} B (foreground {fg_bytes}), link wait {link_wait_s:.2} s, \
         {} foreground GETs",
        stats.chunks_repaired,
        stats.helper_bytes,
        fg.outcomes.len()
    );
    if traced {
        let mut m = Metrics::default();
        probes::store(
            &stack,
            &population(ctx.seed, "probe", 2, stripe, 2 * stripe),
            &mut m,
        )?;
        for name in [
            "store.stripe_read_healthy_us",
            "store.stripe_read_degraded_us",
            "store.put_us_per_stripe",
            "store.delete_us",
            "store.self_us_per_op",
        ] {
            rep.m.put(name, m.get(name).unwrap_or(0.0), "us");
        }
        layers(&stack, &fg.outcomes, &spans, &before, &after, &gw, rep);
        let objects = (bulk.len() + fg_objects.len()) as f64;
        rep.m.put(
            "backend.write_ops_per_put",
            ingest_writes / objects,
            "count",
        );
    }
    stack.stop();
    Ok(RepairPass {
        setup_s,
        put_ms,
        repair_s,
        stats,
        repair_cpu_us,
        fg,
        cost,
        link_bytes,
        link_wait_s,
        repair_wait_s,
        fg_bytes,
        conserved,
        stored_per_byte,
    })
}

fn helper_per_byte(p: &RepairPass) -> f64 {
    stats::ratio(p.stats.helper_bytes as f64, p.stats.bytes_written as f64)
}

pub fn repair_shaped(ctx: &Ctx, names: &[(&str, &str)]) -> Result<Report, String> {
    let mut rep = Report::default();
    let pb = repair_pass(ctx, "piggyback-10-4", false, 0, &mut rep)?;
    let rs = repair_pass(ctx, "rs-10-4", false, 1, &mut rep)?;
    let mut fg: Vec<Outcome> = pb.fg.outcomes.clone();
    fg.extend(rs.fg.outcomes.iter().cloned());
    rep.tally(&fg);
    let gets = lat(&fg, Kind::Get, |_| true);
    rep.m
        .put("setup_s", stats::median(&[pb.setup_s, rs.setup_s]), "s");
    rep.m.put("get_p10_ms", stats::quantile(&gets, 0.1), "ms");
    rep.m.put("get_p50_ms", stats::median(&gets), "ms");
    rep.m.put("get_p99_ms", stats::quantile(&gets, 0.99), "ms");
    rep.m.put(
        "get_degraded_p99_ms",
        stats::quantile(&lat(&fg, Kind::Get, |o| o.degraded()), 0.99),
        "ms",
    );
    rep.m.put("bench.get_samples", gets.len() as f64, "count");
    let mut puts = pb.put_ms.clone();
    puts.extend(&rs.put_ms);
    rep.m.put("put_p50_ms", stats::median(&puts), "ms");
    rep.m.put("put_p99_ms", stats::quantile(&puts, 0.99), "ms");
    rep.m.put(
        "stored_bytes_per_byte",
        stats::median(&[pb.stored_per_byte, rs.stored_per_byte]),
        "ratio",
    );
    // The rebuilds' ops: chunks rebuilt plus foreground GETs.
    let ops = pb.stats.chunks_repaired as usize
        + rs.stats.chunks_repaired as usize
        + pb.fg.outcomes.len()
        + rs.fg.outcomes.len();
    put_costs(
        &mut rep.m,
        pb.cost.0 + rs.cost.0,
        pb.cost.1 + rs.cost.1,
        ops,
    );
    rep.m.put("repair_s", pb.repair_s, "s");
    rep.m.put("repair_rs_s", rs.repair_s, "s");
    rep.m.put(
        "bench.repair_time_ratio",
        pb.repair_s / rs.repair_s,
        "ratio",
    );
    let (hp, hr) = (helper_per_byte(&pb), helper_per_byte(&rs));
    rep.m.put("repair_helper_bytes_per_byte", hp, "ratio");
    rep.m.put("bench.helper_ratio_vs_rs", hp / hr, "ratio");
    rep.check((hp / hr - 0.70).abs() <= 0.02, || {
        format!(
            "piggyback helper bytes per rebuilt byte are {:.4} of RS's, not 0.70 +- 0.02",
            hp / hr
        )
    });
    rep.m
        .put("store.degraded_read_share", degraded_share(&fg), "ratio");
    let workers = DaemonConfig::default().workers as f64;
    rep.m.put("link.rate_bytes_per_s", RS_RATE, "bytes/s");
    rep.m.put("link.bytes", pb.link_bytes as f64, "bytes");
    rep.m.put("link.wait_s", pb.link_wait_s, "s");
    rep.m.put(
        "link.utilization",
        pb.stats.cross_rack_bytes as f64 / (RS_RATE * workers * pb.repair_s),
        "ratio",
    );
    rep.m.put(
        "link.repair_wait_share",
        pb.repair_wait_s / (workers * pb.repair_s),
        "ratio",
    );
    rep.m
        .put("link.foreground_bytes", pb.fg_bytes as f64, "bytes");
    rep.m.put(
        "link.conservation_ok",
        f64::from(u8::from(pb.conserved && rs.conserved)),
        "bool",
    );
    probes::repair_metrics(&mut rep.m, &pb.stats, pb.repair_cpu_us);
    if ctx.trace {
        let traced = repair_pass(ctx, "piggyback-10-4", true, 2, &mut rep)?;
        rep.tally(&traced.fg.outcomes);
        let p99 = stats::quantile(&lat(&traced.fg.outcomes, Kind::Get, |_| true), 0.99);
        let base = stats::quantile(&lat(&pb.fg.outcomes, Kind::Get, |_| true), 0.99);
        rep.m
            .put("bench.trace_overhead_pct", (p99 / base - 1.0) * 100.0, "%");
        probes::codec("piggyback-10-4", RS_CHUNK, ctx.seed, &mut rep.m)?;
    }
    rep.m.put(
        "loadgen.backlog_max",
        pb.fg.backlog_max.max(rs.fg.backlog_max) as f64,
        "count",
    );
    rep.m.put("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    if ctx.trace {
        zero_fill(&mut rep.m, names);
    }
    Ok(rep)
}
