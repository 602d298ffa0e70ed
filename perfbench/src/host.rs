//! Provenance of a result: the host it ran on and the noise it saw.

use std::time::Instant;

use sa_metrics::JsonWriter;

/// Host facts recorded with every result.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built this binary.
    pub rustc: &'static str,
    steal_start: Option<u64>,
    start: Instant,
}

impl Host {
    /// Snapshots the host at the start of a run.
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            steal_start: steal_jiffies(),
            start: Instant::now(),
        }
    }

    /// Steal jiffies the hypervisor took from this VM since [`Host::probe`]
    /// (0 when `/proc/stat` has no steal column).
    pub fn steal_since_start(&self) -> u64 {
        match (self.steal_start, steal_jiffies()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Writes the provenance block as the fields of an open JSON object.
    pub fn write_json(&self, j: &mut JsonWriter, seeds: &[(&str, u64)]) {
        j.field_uint("nproc", self.nproc as u64)
            .field_str("cpu_model", &self.cpu_model)
            .field_str("rustc", self.rustc)
            .field_uint("steal_jiffies", self.steal_since_start())
            .field_float("wall_s", self.start.elapsed().as_secs_f64());
        j.key("seeds").begin_object();
        for (name, seed) in seeds {
            j.field_uint(name, *seed);
        }
        j.end_object();
    }
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
