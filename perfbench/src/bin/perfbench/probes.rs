//! Direct calls into single layers, timed from outside: the `erasure`
//! and `gf` kernels on the workload's own stripe shape, and the store's
//! `ObjectReader::read_stripe`, `BlockStore::put` / `delete` and
//! `RepairDaemon` on the workload's own stack.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbrs_erasure::{ShardSet, ShardSetMut};
use pbrs_obs::trace::{ScopedCtx, TraceCtx};
use pbrs_store::{DaemonConfig, RepairDaemon};

use crate::backend::Span;
use crate::oracle;
use crate::stack::{Object, Stack};
use crate::stats::{self, Metrics};

/// Runs `f` until `budget` has passed (at least `min_reps` times) and
/// returns the median time per call, µs.
fn time_calls(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&samples)
}

/// `erasure.*` and `gf.*` on one stripe of `code` at `chunk_len`.
pub fn codec(code_name: &str, chunk_len: usize, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let code = pbrs_core::registry::build_str(code_name).map_err(|e| e.to_string())?;
    let p = code.params();
    let (k, n) = (p.data_shards(), p.total_shards());
    let budget = Duration::from_millis(150);
    let mut stripe = oracle::content(oracle::content_key(seed, "codec-probe", 0), n * chunk_len);
    {
        let (data, parity) = stripe.split_at_mut(k * chunk_len);
        let data = ShardSet::new(data, k, chunk_len).map_err(|e| e.to_string())?;
        let mut parity = ShardSetMut::new(parity, n - k, chunk_len).map_err(|e| e.to_string())?;
        let us = time_calls(budget, 20, || {
            code.encode_into(&data, &mut parity)
                .expect("encode a well-formed stripe");
        });
        m.put("erasure.encode_stripe_us", us, "us");
    }
    let encoded = stripe.clone();
    let mut present = vec![true; n];
    present[0] = false;
    let us = time_calls(budget, 20, || {
        stripe[..chunk_len].fill(0);
        let mut set = ShardSetMut::new(&mut stripe, n, chunk_len).expect("stripe view");
        code.reconstruct_in_place(&mut set, &present)
            .expect("one lost shard is recoverable");
    });
    if stripe != encoded {
        return Err("reconstruct_in_place rebuilt different bytes".into());
    }
    m.put("erasure.reconstruct_stripe_us", us, "us");
    let helpers = ShardSet::new(&encoded, n, chunk_len).map_err(|e| e.to_string())?;
    let mut out = vec![0u8; chunk_len];
    let us = time_calls(budget, 20, || {
        code.repair_into(0, &helpers, &mut out)
            .expect("repair shard 0");
    });
    if out[..] != encoded[..chunk_len] {
        return Err("repair_into rebuilt different bytes".into());
    }
    m.put("erasure.repair_chunk_us", us, "us");
    let reads = code
        .repair_reads(0, &present, chunk_len)
        .map_err(|e| e.to_string())?;
    let helper_bytes: usize = reads.iter().map(|r| r.len).sum();
    m.put(
        "erasure.helper_bytes_per_repair",
        helper_bytes as f64,
        "bytes",
    );

    // gf: one generator-matrix product of r rows over k sources.
    let mut rng = oracle::Rng::new(seed);
    let rows: Vec<Vec<u8>> = (0..n - k)
        .map(|_| (0..k).map(|_| rng.next_u64() as u8 | 1).collect())
        .collect();
    let row_refs: Vec<&[u8]> = rows.iter().map(Vec::as_slice).collect();
    let srcs: Vec<&[u8]> = encoded[..k * chunk_len].chunks(chunk_len).collect();
    let mut outs_buf = vec![0u8; (n - k) * chunk_len];
    let us = time_calls(budget, 20, || {
        let mut outs: Vec<&mut [u8]> = outs_buf.chunks_mut(chunk_len).collect();
        pbrs_gf::slice_ops::matrix_mul_into(&row_refs, &srcs, &mut outs);
        black_box(&outs);
    });
    m.put("gf.matrix_mul_mb_s", (k * chunk_len) as f64 / us, "MB/s");
    Ok(())
}

/// A call's self time: its duration less the time its backend spans
/// cover.
fn self_time(spans: &[Span], trace: u64, dur_us: f64) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.trace == trace)
        .map(|s| (s.start_us, s.end_us))
        .collect();
    (dur_us - stats::union_len(&mut iv) as f64).max(0.0)
}

/// `store.*` from direct calls: PUTs of `probes` through
/// `BlockStore::put`, healthy stripe reads, degraded reads after
/// wounding, a `RepairDaemon` pass over the wounds, then DELETEs.
pub fn store(stack: &Stack, probes: &[Object], m: &mut Metrics) -> Result<(), String> {
    let store = &stack.store;
    let rec = &stack.rec;
    let was_tracing = rec.tracing();
    rec.set_tracing(true);
    rec.take_spans();
    let mut put_us = Vec::new();
    for o in probes {
        let data = oracle::content(o.key, o.len as usize);
        let t = Instant::now();
        let info = store.put(&o.name, &data[..]).map_err(|e| e.to_string())?;
        put_us.push(t.elapsed().as_secs_f64() * 1e6 / info.stripes.max(1) as f64);
    }
    m.put("store.put_us_per_stripe", stats::median(&put_us), "us");
    let writes: Vec<f64> = rec
        .take_spans()
        .iter()
        .filter(|s| s.write)
        .map(|s| (s.end_us - s.start_us) as f64)
        .collect();
    m.put("backend.write_p99_us", stats::quantile(&writes, 0.99), "us");

    let mut ctx_seq = 0u64;
    let mut read_all = |m: &mut Metrics, degraded: bool| -> Result<(), String> {
        let mut per_stripe = Vec::new();
        let mut self_us = Vec::new();
        rec.take_spans();
        let mut calls = Vec::new();
        for o in probes {
            let mut reader = store.reader(&o.name).map_err(|e| e.to_string())?;
            let mut buf = vec![0u8; reader.stripe_len()];
            let mut got = Vec::with_capacity(o.len as usize);
            for s in 0..reader.stripes() {
                ctx_seq += 1;
                let trace = oracle::mix(0xd1_2ec7 ^ ctx_seq) | 1;
                let ctx = TraceCtx::from_raw(trace, trace);
                let scope = ScopedCtx::enter(ctx);
                let t = Instant::now();
                let (len, was_degraded) =
                    reader.read_stripe(s, &mut buf).map_err(|e| e.to_string())?;
                let dur = t.elapsed().as_secs_f64() * 1e6;
                drop(scope);
                if was_degraded != degraded {
                    return Err(format!("{} stripe {s}: degraded={was_degraded}", o.name));
                }
                got.extend_from_slice(&buf[..len]);
                calls.push((trace, dur));
                per_stripe.push(dur);
            }
            if got != oracle::content(o.key, o.len as usize) {
                return Err(format!("direct read of {} returned wrong bytes", o.name));
            }
        }
        let spans = rec.take_spans();
        for (trace, dur) in calls {
            self_us.push(self_time(&spans, trace, dur));
        }
        if degraded {
            m.put(
                "store.stripe_read_degraded_us",
                stats::median(&per_stripe),
                "us",
            );
        } else {
            m.put(
                "store.stripe_read_healthy_us",
                stats::median(&per_stripe),
                "us",
            );
            m.put("store.self_us_per_op", stats::median(&self_us), "us");
        }
        Ok(())
    };
    read_all(m, false)?;
    for o in probes {
        stack.wound(&o.name).map_err(|e| e.to_string())?;
    }
    read_all(m, true)?;

    let cpu0 = stats::thread_cpu();
    let daemon = RepairDaemon::start(Arc::clone(store), DaemonConfig::default());
    daemon.scan_now().map_err(|e| e.to_string())?;
    daemon.wait_idle();
    let cpu1 = stats::thread_cpu();
    let d = daemon.shutdown();
    repair_metrics(m, &d, stats::cpu_delta(&cpu0, &cpu1, "pbrs-repair", &[]));

    let mut del_us = Vec::new();
    for o in probes {
        let t = Instant::now();
        store.delete(&o.name).map_err(|e| e.to_string())?;
        del_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.put("store.delete_us", stats::median(&del_us), "us");
    rec.take_spans();
    rec.set_tracing(was_tracing);
    if d.failures > 0 {
        return Err(format!("{} repairs failed", d.failures));
    }
    Ok(())
}

/// `store.repair_*` from a daemon's counters and its workers' CPU.
pub fn repair_metrics(m: &mut Metrics, d: &pbrs_store::DaemonStats, cpu_us: u64) {
    m.put("store.repair_stripes", d.stripes_repaired as f64, "count");
    m.put("store.repair_helper_bytes", d.helper_bytes as f64, "bytes");
    m.put(
        "store.repair_cross_rack_bytes",
        d.cross_rack_bytes as f64,
        "bytes",
    );
    m.put("store.repair_failures", d.failures as f64, "count");
    m.put(
        "store.repair_cpu_us_per_stripe",
        stats::ratio(cpu_us as f64, d.stripes_repaired as f64),
        "us",
    );
}
