//! Measurement plumbing shared by every workload: robust statistics, the
//! peak-RSS reader, output fingerprints, the paper-deviation metric and
//! the one-line JSON result.

use std::fmt::Debug;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median of the fastest tenth of a non-empty sample of host times.
///
/// Contention from other tenants of the machine (shared caches and memory
/// bandwidth) only ever slows a batch down, by up to a third, and comes
/// and goes over seconds, so the median of all batches jumps with the
/// share of a run spent contended. The fastest tenth estimates the
/// program's own cost; its median keeps one lucky batch from setting the
/// figure.
pub fn quiet_median(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(10));
    median(&v)
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// CPU time this process has used since it started, seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Unlike wall time it leaves out the time the process sat runnable while
/// the host ran something else: other processes, or on a virtual machine
/// other guests (steal time). The benchmark is single-threaded, so this is
/// the simulator's own host time; it counts every thread, so work moved
/// onto other threads cannot hide from it.
///
/// # Panics
///
/// Panics if the clock is unavailable: the benchmark runs on Linux only.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// dump, returning kibibytes.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// Peak resident set of this process so far, MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM` line:
/// the benchmark runs on Linux only.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// FNV-1a over a value's `Debug` rendering. `Debug` prints every field,
/// and floats in shortest round-trip form, so two values hash equal
/// exactly when they are bit-identical (all NaNs aside).
pub fn fingerprint<T: Debug + ?Sized>(value: &T) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// Median relative deviation from the paper, percent, over
/// `(ours, paper)` pairs. `None` when there is nothing to compare.
pub fn paper_dev_pct(pairs: &[(f64, f64)]) -> Option<f64> {
    let devs: Vec<f64> = pairs
        .iter()
        .filter(|(_, paper)| *paper != 0.0)
        .map(|(ours, paper)| ((ours - paper) / paper).abs() * 100.0)
        .collect();
    (!devs.is_empty()).then(|| median(&devs))
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Non-finite values are
/// reported as 0 (JSON has no NaN); no metric should ever be non-finite.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("string write");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_median_ignores_contended_batches() {
        // Fastest tenth of 12 is 2 batches: median of 1.0 and 1.1.
        let times = [1.6, 1.0, 1.5, 1.1, 1.4, 1.3, 1.7, 1.2, 1.8, 1.9, 1.3, 1.4];
        assert!((quiet_median(&times) - 1.05).abs() < 1e-12);
        assert_eq!(quiet_median(&[2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status =
            "Name:\tedgebench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12_345));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn live_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = cpu_s();
        let mut x = 0u64;
        while cpu_s() - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0 && cpu_s() > t0);
    }

    #[test]
    fn paper_dev_is_median_relative_percent() {
        // Deviations 10%, 50%, 0% -> median 10%.
        let pairs = [(110.0, 100.0), (1.0, 2.0), (3.0, 3.0)];
        let dev = paper_dev_pct(&pairs).expect("pairs");
        assert!((dev - 10.0).abs() < 1e-9, "{dev}");
        // Even count: mean of the middle pair (10% and 20%).
        let dev = paper_dev_pct(&[(11.0, 10.0), (8.0, 10.0)]).expect("pairs");
        assert!((dev - 15.0).abs() < 1e-9, "{dev}");
        // Zero paper values carry no relative deviation.
        assert_eq!(paper_dev_pct(&[(1.0, 0.0)]), None);
        assert_eq!(paper_dev_pct(&[]), None);
    }

    #[test]
    fn fingerprint_is_bitwise() {
        assert_eq!(fingerprint(&[1.0f64, 2.0]), fingerprint(&[1.0f64, 2.0]));
        assert_ne!(fingerprint(&0.1f64), fingerprint(&(0.1f64 + f64::EPSILON)));
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_json(true, 3, 0, &[Metric::new("a_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
