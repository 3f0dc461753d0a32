//! The repository benchmark: runs one named workload of the EdgeReasoning
//! simulator from a seed, checks its simulated output, and prints every
//! metric by name and unit; the last line of standard output is one JSON
//! object.
//!
//! ```text
//! edgebench --workload <characterize|fleet_storm|agent_sessions>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` follows every
//! round of batches with a traced one and reports the per-layer ledger
//! instead. Everything runs single-threaded in this process, so host
//! timings measure the simulator and not the scheduler. Host time is what
//! the simulator takes to run, in process CPU time for the end-to-end
//! metrics; simulated time is what the modelled Orin would take.

mod characterize;
mod fleet;
mod harness;
mod layers;
mod ledger;
mod probe;
mod sessions;

use std::process::ExitCode;
use std::time::Instant;

use edgereasoning_soc::runtime::item_seed;
use harness::{
    cpu_s, fingerprint, median, peak_rss_mb, quiet_median, result_json, secs_since, Metric,
};
use layers::{ratio, PerLayer};
use ledger::Ledger;

const USAGE: &str =
    "usage: edgebench --workload <characterize|fleet_storm|agent_sessions> --seed <n> --seconds <s> --trace <0|1>";

/// Workload size: the benchmark's, or a shrunken one for warm-up and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one timed batch of a workload produced.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Simulated requests offered (characterize: evaluated question
    /// samples, each one simulated generation).
    pub sim_requests: u64,
    /// Study cells completed (a whole serving scenario is one cell).
    pub cells: u64,
    /// Simulated requests failed or shed (characterize: samples that
    /// truncated without an answer), as a share of those offered.
    pub sim_fail_frac: f64,
    /// Share of simulated requests that met their SLO (characterize:
    /// questions answered correctly).
    pub sim_slo_attainment: f64,
    /// Median relative deviation from the paper's published rows, percent.
    pub paper_dev_pct: f64,
    /// Hash of the simulated output, bit for bit.
    pub fingerprint: u64,
    /// Failed checks (audit, ledger, coverage); empty when correct.
    pub violations: Vec<String>,
}

/// One traced run: its batch, the ledger and the per-layer metrics.
pub struct Traced {
    pub batch: Batch,
    pub ledger: Ledger,
    pub layers: PerLayer,
    /// Ledger label of the unattributed remainder.
    pub residual: &'static str,
}

pub trait Workload {
    /// One timed batch.
    fn run(&self) -> Batch;
    /// The same batch with spans around each layer the benchmark calls,
    /// priced and closed against its own wall time.
    fn trace(&self) -> Traced;
}

/// The benchmark's workloads, by CLI name.
pub const WORKLOADS: [&str; 3] = ["characterize", "fleet_storm", "agent_sessions"];

/// The parts a workload's run is split into: independent instances on
/// seeds derived from the workload seed, timed in turn. Short batches let
/// the quiet estimator find the machine's quiet windows, while the
/// simulated metrics pool every part, so they rest on as many simulated
/// requests as one long batch would.
pub fn parts(name: &str) -> u64 {
    match name {
        "characterize" => 1,
        _ => 4,
    }
}

/// The seed of part `k` of a run on `seed`; part 0 runs on the seed itself.
pub fn part_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        item_seed(seed, k)
    }
}

/// Builds a workload's inputs (and warms it up at full scale).
pub fn setup(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "characterize" => Box::new(characterize::Characterize::setup(seed, scale)),
        "fleet_storm" => Box::new(fleet::FleetStorm::setup(seed, scale)),
        "agent_sessions" => Box::new(sessions::AgentSessions::setup(seed, scale)),
        _ => return None,
    })
}

/// Pools the first batches of a run's parts: request and cell counts add
/// up, and the simulated shares are weighted by each part's requests.
fn pool(parts: &[&Batch]) -> Batch {
    let requests: u64 = parts.iter().map(|b| b.sim_requests).sum();
    let weighted = |share: fn(&Batch) -> f64| {
        let total: f64 = parts.iter().map(|b| share(b) * b.sim_requests as f64).sum();
        ratio(total, requests as f64)
    };
    Batch {
        sim_requests: requests,
        cells: parts.iter().map(|b| b.cells).sum(),
        sim_fail_frac: weighted(|b| b.sim_fail_frac),
        sim_slo_attainment: weighted(|b| b.sim_slo_attainment),
        paper_dev_pct: weighted(|b| b.paper_dev_pct),
        fingerprint: fingerprint(&parts.iter().map(|b| b.fingerprint).collect::<Vec<_>>()),
        violations: Vec::new(),
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The end-to-end metrics of a run whose parts together produced `pooled`
/// in a quiet time of `batch_s`, after set-ups of quiet time `setup_s`, at
/// a peak resident set of `rss_mb`.
fn end_to_end(pooled: &Batch, batch_s: f64, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("sim_req_per_s", pooled.sim_requests as f64 / batch_s, "1/s"),
        Metric::new("cells_per_s", pooled.cells as f64 / batch_s, "1/s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", rss_mb, "MiB"),
        Metric::new("sim_fail_frac", pooled.sim_fail_frac, "ratio"),
        Metric::new("sim_slo_attainment", pooled.sim_slo_attainment, "ratio"),
        Metric::new("paper_dev_pct", pooled.paper_dev_pct, "%"),
    ]
}

/// Sum over parts of each part's quiet time.
fn quiet_total(per_part: &[Vec<f64>]) -> f64 {
    per_part.iter().map(|t| quiet_median(t)).sum()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("edgebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Set every part up once (the first from process start), then each
    // part again after each of its timed batches below, so the set-ups
    // sample the whole run as the batches do.
    let n_parts = parts(&args.workload) as usize;
    let seeds: Vec<u64> = (0..n_parts as u64)
        .map(|k| part_seed(args.seed, k))
        .collect();
    // Batches and set-ups are timed in process CPU time (`cpu_s`); the
    // first set-up's clock starts with the process.
    let mut setup_times = vec![Vec::new(); n_parts];
    let mut workloads = Vec::with_capacity(n_parts);
    for (k, &seed) in seeds.iter().enumerate() {
        let t0 = if k == 0 { 0.0 } else { cpu_s() };
        workloads
            .push(setup(&args.workload, seed, Scale::Full).expect("workload name was validated"));
        setup_times[k].push(cpu_s() - t0);
    }

    // Rounds of one timed batch per part, each on identical inputs, until
    // the wall-clock budget is spent; with tracing, each round is followed
    // by a traced batch of part 0, so both sample the same machine
    // conditions.
    let t_measure = Instant::now();
    let mut times = vec![Vec::new(); n_parts];
    // The same batches in wall time: printed beside the CPU times, and
    // part 0's give the tracing overhead against the traced batches'.
    let mut walls = vec![Vec::new(); n_parts];
    let mut batches: Vec<Vec<Batch>> = vec![Vec::new(); n_parts];
    let mut traced: Vec<Traced> = Vec::new();
    // Peak memory of one set-up and one batch of every part: later rounds
    // repeat the same work, and how many fit in the budget depends on the
    // machine.
    let mut rss_mb = 0.0;
    loop {
        for (k, workload) in workloads.iter().enumerate() {
            let (wall0, t0) = (Instant::now(), cpu_s());
            let batch = workload.run();
            times[k].push(cpu_s() - t0);
            walls[k].push(secs_since(wall0));
            batches[k].push(batch);
            let t0 = cpu_s();
            drop(setup(&args.workload, seeds[k], Scale::Full));
            setup_times[k].push(cpu_s() - t0);
        }
        if batches[0].len() == 1 {
            rss_mb = peak_rss_mb();
        }
        if args.trace {
            traced.push(workloads[0].trace());
        }
        if secs_since(t_measure) >= args.seconds {
            break;
        }
    }
    let batch_s = quiet_total(&times);
    for (k, t) in times.iter().enumerate() {
        eprintln!(
            "part {k} batch host CPU seconds: {}",
            t.iter()
                .map(|t| format!("{t:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    let firsts: Vec<&Batch> = batches.iter().map(|b| &b[0]).collect();
    let pooled = pool(&firsts);
    let all = batches
        .iter()
        .enumerate()
        .flat_map(|(k, b)| b.iter().map(move |batch| (k, batch)))
        .chain(traced.iter().map(|t| (0, &t.batch)));
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, (k, b)) in all.enumerate() {
        attempted += 1;
        let mut problems = b.violations.clone();
        let expected = firsts[k].fingerprint;
        if b.fingerprint != expected {
            problems.push(format!(
                "fingerprint {:016x} differs from part {k}'s first batch's {expected:016x}",
                b.fingerprint
            ));
        }
        if !problems.is_empty() {
            failed += 1;
            eprintln!("batch {i} (part {k}) failed its checks:");
            for p in &problems {
                eprintln!("  {p}");
            }
        }
    }
    let per_part_median: f64 = times.iter().map(|t| median(t)).sum();
    let slowest = times.iter().flatten().copied().fold(0.0, f64::max);
    let wall_s = quiet_total(&walls);
    println!(
        "workload {} seed {}: {} rounds of {n_parts} parts, host CPU s per round quiet {batch_s:.6} \
         median {per_part_median:.6} (wall quiet {wall_s:.6}), slowest batch {slowest:.6}, \
         output fingerprint {:016x}",
        args.workload,
        args.seed,
        batches[0].len(),
        pooled.fingerprint
    );

    // The ledger is the quietest traced batch's; the tracing overhead
    // compares the quiet times of the traced and untraced part-0 batches.
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.ledger.wall_s).collect();
    let quietest = traced
        .iter_mut()
        .min_by(|a, b| a.ledger.wall_s.total_cmp(&b.ledger.wall_s));
    let metrics = match quietest {
        Some(t) => {
            t.ledger.traced_quiet_s = quiet_median(&traced_walls);
            t.ledger.untraced_quiet_s = quiet_median(&walls[0]);
            t.layers.trace_overhead_s = t.ledger.overhead_s();
            print!("{}", t.ledger.render(t.residual));
            t.layers.metrics()
        }
        None => end_to_end(&pooled, batch_s, quiet_total(&setup_times), rss_mb),
    };
    for m in &metrics {
        println!("  {:<30} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    fn batch(sim_requests: u64, sim_fail_frac: f64) -> Batch {
        Batch {
            sim_requests,
            cells: 1,
            sim_fail_frac,
            sim_slo_attainment: 1.0 - sim_fail_frac,
            paper_dev_pct: 1.0,
            fingerprint: sim_requests,
            violations: Vec::new(),
        }
    }

    #[test]
    fn cli_takes_every_flag_and_rejects_the_rest() {
        let a = args("--workload fleet_storm --seed 7 --seconds 2 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_storm", 7, 2.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload characterize --seconds 1 --trace 0").is_err());
        assert!(args("--workload characterize --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload characterize --seed 1 --seconds 0 --trace 0").is_err());
    }

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// with the same unit, and nothing else is.
    #[test]
    fn metrics_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let printed: Vec<Metric> = end_to_end(&batch(1, 0.1), 1.0, 1.0, 1.0)
            .into_iter()
            .chain(PerLayer::default().metrics())
            .collect();
        for m in &printed {
            let entry = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
            assert!(
                declared.contains(&entry),
                "{} ({}) is not declared",
                m.name,
                m.unit
            );
        }
        assert_eq!(declared.matches("\"unit\"").count(), printed.len());
    }

    /// Pooled shares weigh each part by its simulated requests; counts add.
    #[test]
    fn pooling_weighs_parts_by_requests() {
        let (a, b) = (batch(100, 0.1), batch(300, 0.3));
        let p = pool(&[&a, &b]);
        assert_eq!((p.sim_requests, p.cells), (400, 2));
        assert!(
            (p.sim_fail_frac - 0.25).abs() < 1e-12,
            "{}",
            p.sim_fail_frac
        );
        assert!((p.sim_slo_attainment - 0.75).abs() < 1e-12);
        assert_eq!(p.paper_dev_pct, 1.0);
        assert_eq!(pool(&[&a]).sim_fail_frac, a.sim_fail_frac);
        assert_ne!(pool(&[&a, &b]).fingerprint, pool(&[&b, &a]).fingerprint);
    }

    /// Part 0 runs on the workload seed; the other parts on distinct seeds.
    #[test]
    fn parts_run_on_distinct_seeds() {
        assert_eq!(parts("characterize"), 1);
        assert_eq!(part_seed(5, 0), 5);
        let seeds: Vec<u64> = (0..parts("fleet_storm")).map(|k| part_seed(5, k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    /// The same seed twice on a shrunken workload gives the same output,
    /// and the traced pass reproduces the untraced one bit for bit.
    #[test]
    fn same_seed_same_fingerprint() {
        for name in WORKLOADS {
            let a = setup(name, 3, Scale::Smoke).expect("known workload");
            let b = setup(name, 3, Scale::Smoke).expect("known workload");
            let (ra, rb) = (a.run(), b.run());
            assert!(ra.violations.is_empty(), "{name}: {:?}", ra.violations);
            assert_eq!(ra.fingerprint, rb.fingerprint, "{name}");
            let traced = a.trace();
            assert_eq!(traced.batch.fingerprint, ra.fingerprint, "{name} traced");
            let other = setup(name, 4, Scale::Smoke).expect("known workload").run();
            assert_ne!(
                other.fingerprint, ra.fingerprint,
                "{name}: the seed must matter"
            );
        }
    }
}
