//! Sample statistics, `/proc` readings and the result line.

use std::fs;

/// The `q`-quantile (0..=1) of `values`, linearly interpolated between
/// order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Clock ticks per second of `/proc/*/stat` CPU times (the Linux ABI
/// value on every mainstream architecture).
const CLK_TCK: u64 = 100;

/// CPU time (user + system, microseconds) of every live thread of this
/// process, with the thread's name.
pub fn thread_cpu() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Ok(stat) = fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ...`: comm may hold spaces, so split at the
        // last ')'.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let name = stat[open + 1..close].to_string();
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        // After the comm: state is field 3, utime 14 and stime 15.
        let ticks = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<u64>().ok());
        if let (Some(u), Some(s)) = (ticks(14), ticks(15)) {
            out.push((name, (u + s) * 1_000_000 / CLK_TCK));
        }
    }
    out
}

/// CPU time (user + system, microseconds) of this whole process,
/// threads that have exited included.
pub fn process_cpu_us() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    let Some(close) = stat.rfind(')') else {
        return 0;
    };
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let ticks = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<u64>().ok());
    ticks(14)
        .zip(ticks(15))
        .map_or(0, |(u, s)| (u + s) * 1_000_000 / CLK_TCK)
}

/// CPU microseconds of the threads whose name starts with `prefix` and
/// not with any of `but_not`.
pub fn cpu_us(snapshot: &[(String, u64)], prefix: &str, but_not: &[&str]) -> u64 {
    snapshot
        .iter()
        .filter(|(n, _)| n.starts_with(prefix) && !but_not.iter().any(|b| n.starts_with(b)))
        .map(|(_, us)| us)
        .sum()
}

/// CPU spent by a thread group between two snapshots. Threads that
/// exited in between are lost, so take the second snapshot while the
/// measured threads are still alive.
pub fn cpu_delta(a: &[(String, u64)], b: &[(String, u64)], prefix: &str, but_not: &[&str]) -> u64 {
    cpu_us(b, prefix, but_not).saturating_sub(cpu_us(a, prefix, but_not))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| n == name) {
            slot.1 = value;
        } else {
            self.0.push((name.to_string(), value, unit.to_string()));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// One human-readable line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }

    /// The result line: `names` picks (and orders) the metrics it
    /// carries, with their units; a metric never measured reads 0.
    pub fn result_json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        names: &[(&str, &str)],
    ) -> String {
        let fields: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[3.0, 1.0], 0.5), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn union_merges_overlaps() {
        let mut iv = vec![(5, 10), (0, 2), (8, 12), (12, 13), (20, 21)];
        assert_eq!(union_len(&mut iv), 2 + 8 + 1);
    }

    #[test]
    fn proc_readings_see_this_thread() {
        assert!(!thread_cpu().is_empty());
        assert!(peak_rss_mib() > 0.0);
    }
}
