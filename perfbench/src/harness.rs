//! One workload process: the end-to-end protocol, the exactness check and
//! the result line.
//!
//! Protocol (closed loop, one caller):
//! 1. generate the input from the seed and write it to a CSV file (untimed);
//! 2. read the CSV back with `egg_data::io::read_csv_file`, the CLI's
//!    ingestion path; every read must match the generated data bit for bit;
//! 3. the exactness check on a `check_n`-point instance against `ExactSync`;
//! 4. one untimed warm-up solve, then timed `cluster()` solves until the
//!    run's seconds are spent, each followed by [`INGESTS_PER_SOLVE`] more
//!    timed reads. Every solve must reproduce the warm-up bit for bit.
//!    `solve_s` is the fastest solve, `setup_s` the median read time.
//!
//! With tracing on, step 4 alternates an untimed-API `cluster()` solve with
//! a [`traced_solve`] of the same input and reports [`PER_LAYER`] instead
//! of [`END_TO_END`].

use std::ffi::OsString;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use egg_data::io::{read_csv_file, write_csv_file};
use egg_data::metrics::same_partition;
use egg_data::Dataset;
use egg_sync_core::{Backend, ClusterAlgorithm, Clustering, ExactSync};

use crate::traced::{layer_metrics, self_times_ns, traced_solve, TracedRun, Tracer, PER_LAYER};
use crate::workloads::Workload;

/// End-to-end metrics `--trace 0` reports, `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("solve_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("structure_mib", "MiB"),
    ("setup_s", "s"),
];

/// CSV ingests timed after every timed solve, on top of the first one that
/// loads the input; `setup_s` is the median of all of them. Spreading them
/// over the run lets set-up and solve times see the same machine load: a
/// burst of ingests at the start of a run drifts with the load of that one
/// moment (median shifts of 30% between back-to-back runs on a noisy host).
pub const INGESTS_PER_SOLVE: usize = 4;

/// Environment overrides the engine reads (`UpdateOptions::default()`,
/// `Executor`) or the figure harnesses honor. Any of them would silently
/// change what a workload measures, so the benchmark refuses to run.
pub const GUARDED_ENV: [&str; 7] = [
    "EGG_FORCE_SCALAR",
    "EGG_FORCE_UNFUSED",
    "EGG_NUM_SHARDS",
    "EGG_FORCE_SCOPED",
    "EGG_THREADS",
    "EGG_BENCH_SCALE",
    "EGG_DATA_DIR",
];

/// Names of the [`GUARDED_ENV`] variables present in `vars`.
pub fn env_overrides(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Vec<String> {
    let mut found: Vec<String> = vars
        .into_iter()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| GUARDED_ENV.contains(&k.as_str()))
        .collect();
    found.sort();
    found
}

/// Directory for the run's scratch CSV and trace file:
/// `$CARGO_TARGET_DIR/benchmark`, or `target/benchmark` under the working
/// directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// Attempted and failed operations of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
}

impl Ops {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What a solve must reproduce exactly.
#[derive(Debug, Clone, Copy)]
pub struct Outcome<'a> {
    /// Both termination terms held.
    pub converged: bool,
    /// Iterations executed.
    pub iterations: usize,
    /// Dense cluster labels.
    pub labels: &'a [u32],
    /// Final positions.
    pub coords: &'a [f64],
}

impl<'a> From<&'a Clustering> for Outcome<'a> {
    fn from(c: &'a Clustering) -> Self {
        Self {
            converged: c.converged,
            iterations: c.iterations,
            labels: &c.labels,
            coords: c.final_coords.coords(),
        }
    }
}

impl<'a> From<&'a TracedRun> for Outcome<'a> {
    fn from(r: &'a TracedRun) -> Self {
        Self {
            converged: r.converged,
            iterations: r.iterations,
            labels: &r.labels,
            coords: &r.final_coords,
        }
    }
}

/// A solve succeeds when it converged and reproduced the reference's
/// partition, iteration count and final coordinates bit for bit.
pub fn reproduces(reference: Outcome, run: Outcome) -> bool {
    run.converged
        && run.iterations == reference.iterations
        && run.labels == reference.labels
        && bits_equal(run.coords, reference.coords)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The exactness check: the workload's engine on `data` yields the
/// partition of the brute-force `ExactSync` oracle.
pub fn exact_on(w: &Workload, data: &Dataset) -> bool {
    let egg = w.engine().cluster(data);
    let oracle = ExactSync::new(w.epsilon).cluster(data);
    egg.converged && oracle.converged && same_partition(&oracle.labels, &egg.labels)
}

/// `solve_s` of a run: its fastest timed solve. Every solve does the same
/// deterministic work, so a slower one measures the host, not the engine:
/// on a shared virtual machine each vCPU runs up to 1.6× slower in spells
/// of milliseconds to minutes as neighbouring load comes and goes (CPU
/// time inflates with wall time, so it is not time spent descheduled). The
/// median follows the share of the run spent slowed; the fastest of a
/// run's 40–150 solves follows only whether some solve escaped it.
pub fn fastest(solves: &[f64]) -> f64 {
    solves.iter().copied().fold(f64::INFINITY, f64::min)
}

/// CPUs a single-threaded run rotates over: every CPU this process may
/// run on. A lone busy thread otherwise stays on the vCPU it started on
/// for the whole run, and the two vCPUs of one virtual machine ran at full
/// speed 51% and 25% of the time in back-to-back 20 s windows; rotating
/// cut the spread of `setup_s` across seeds from 0.30–0.42 to 0.10–0.14.
#[cfg(target_os = "linux")]
pub fn rotation_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let got = unsafe { sched_getaffinity(0, CPU_SET_WORDS * 8, mask.as_mut_ptr()) };
    if got != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Move the calling thread to the `i`-th of `cpus`, round robin; nothing
/// when `cpus` is empty. Failure leaves the thread where it was.
#[cfg(target_os = "linux")]
pub fn pin_round_robin(cpus: &[usize], i: usize) {
    let Some(&cpu) = cpus.get(i % cpus.len().max(1)) else {
        return;
    };
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, CPU_SET_WORDS * 8, mask.as_ptr()) };
}

/// 64-bit words of glibc's `cpu_set_t` (1024 CPUs).
#[cfg(target_os = "linux")]
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(not(target_os = "linux"))]
pub fn rotation_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_round_robin(_cpus: &[usize], _i: usize) {}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Result of one workload run: the benchmark's last output line.
#[derive(Debug)]
pub struct Report {
    /// Operation tally; the run is correct when none failed.
    pub ops: Ops,
    /// `(name, unit, value)` in output order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops.failed == 0,
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        )
    }
}

/// `(key, value)` provenance of a run: seed, host, commit and the
/// effective engine configuration.
pub fn provenance(w: &Workload, seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_owned(), |s| s.trim().to_owned());
    let algo = w.engine();
    vec![
        ("workload", w.name.to_owned()),
        ("seed", seed.to_string()),
        ("n", w.n.to_string()),
        ("epsilon", w.epsilon.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("git", git),
        ("backend", format!("{:?}", algo.backend)),
        ("threads", w.threads.to_string()),
        ("options", format!("{:?}", algo.options)),
    ]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write the run's spans, with self times, after its provenance.
fn write_trace(
    path: &std::path::Path,
    prov: &[(&'static str, String)],
    tracer: &Tracer,
) -> std::io::Result<()> {
    let spans = tracer.spans();
    let own = self_times_ns(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{")?;
    for (k, v) in prov {
        write!(w, "{}: {}, ", json_str(k), json_str(v))?;
    }
    writeln!(w, "\"spans\": [")?;
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\": \"{}\", \"solve\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{sep}",
            s.name, s.solve, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// Run `w` for `seed`: set-up, exactness check, warm-up, then solves until
/// `seconds` are spent (at least one). Human-readable lines go to `out`;
/// the caller prints [`Report::json`] last.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut impl Write,
) -> std::io::Result<Report> {
    let prov = provenance(w, seed);
    let line: Vec<String> = prov.iter().map(|(k, v)| format!("{k}={v}")).collect();
    writeln!(out, "# {}", line.join(" "))?;

    let algo = w.engine();
    let mut ops = Ops::default();

    // 1. input → CSV, untimed; the name is unique per process and call so
    // concurrent runs never share a file
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let csv = dir.join(format!(
        "{}-{seed}-{}-{}.csv",
        w.name,
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let generated = w.generate(w.n, seed);
    write_csv_file(&csv, &generated, None)?;

    // A single-threaded run moves between CPUs before every timed read and
    // solve (see `rotation_cpus`). A sharded run starts a sideline thread,
    // which would inherit the pin and share the main thread's CPU, so it
    // and multi-worker runs are left to the scheduler.
    let cpus = if w.threads == 1 && w.num_shards == 1 {
        rotation_cpus()
    } else {
        Vec::new()
    };

    // 2. set-up: the CLI's ingestion path
    let mut setup = Vec::new();
    let mut ingest = |ops: &mut Ops| {
        pin_round_robin(&cpus, setup.len());
        let t = Instant::now();
        let loaded = read_csv_file(&csv);
        setup.push(t.elapsed().as_secs_f64());
        let loaded = loaded
            .ok()
            .filter(|d| d.dim() == generated.dim() && bits_equal(d.coords(), generated.coords()));
        ops.record(loaded.is_some());
        loaded
    };
    let input = ingest(&mut ops).unwrap_or_else(|| generated.clone());

    // 3. exactness against the brute-force oracle
    ops.record(exact_on(w, &w.generate(w.check_n, seed)));

    // 4. warm-up: the reference every later solve must reproduce
    let reference = algo.cluster(&input);
    ops.record(reference.converged);

    let start = Instant::now();
    let mut solves = Vec::new();
    let mut tracer = Tracer::default();
    let mut layer_rows: Vec<Vec<f64>> = Vec::new();
    while solves.is_empty() || start.elapsed().as_secs_f64() < seconds {
        pin_round_robin(&cpus, solves.len());
        let t = Instant::now();
        let run = algo.cluster(&input);
        solves.push(t.elapsed().as_secs_f64());
        ops.record(reproduces((&reference).into(), (&run).into()));
        if trace {
            let run = traced_solve(&algo, &input, &mut tracer);
            ops.record(reproduces((&reference).into(), (&run).into()));
            layer_rows.push(layer_metrics(tracer.spans(), &run));
        } else {
            for _ in 0..INGESTS_PER_SOLVE {
                ingest(&mut ops);
            }
        }
    }

    std::fs::remove_file(&csv)?;
    let error_rate = ops.failed as f64 / ops.attempted as f64;
    let samples: Vec<String> = solves.iter().map(|s| format!("{s:.4}")).collect();
    write!(
        out,
        "# {} solves [{}] s, error_rate {error_rate} ({} of {} ops failed)",
        solves.len(),
        samples.join(" "),
        ops.failed,
        ops.attempted
    )?;
    if w.backend == Backend::SimulatedGpu {
        let sim = reference.trace.total_sim_seconds.unwrap_or(0.0);
        write!(out, ", sim_solve_s {sim} s (cost model)")?;
    }
    writeln!(out)?;

    let metrics: Vec<(&'static str, &'static str, f64)> = if trace {
        let path = dir.join(format!("{}.trace.json", w.name));
        write_trace(&path, &prov, &tracer)?;
        writeln!(out, "# spans written to {}", path.display())?;
        let mut values: Vec<f64> = (0..PER_LAYER.len())
            .map(|i| median(&layer_rows.iter().map(|row| row[i]).collect::<Vec<_>>()))
            .collect();
        let column = |name: &str| PER_LAYER.iter().position(|m| m.0 == name).unwrap();
        values[column("trace.overhead_s")] = values[column("trace.wall_s")] - median(&solves);
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    } else {
        let values = [
            fastest(&solves),
            peak_rss_mib(),
            reference.trace.peak_structure_bytes as f64 / (1u64 << 20) as f64,
            median(&setup),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    for (name, unit, value) in &metrics {
        writeln!(out, "{name} = {value} {unit}")?;
    }
    Ok(Report { ops, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn guard_reports_engine_overrides_only() {
        let vars = |pairs: &[(&str, &str)]| -> Vec<(OsString, OsString)> {
            pairs
                .iter()
                .map(|(k, v)| (OsString::from(k), OsString::from(v)))
                .collect()
        };
        assert!(env_overrides(vars(&[("PATH", "/bin"), ("EGG", "x")])).is_empty());
        assert_eq!(
            env_overrides(vars(&[
                ("EGG_THREADS", "4"),
                ("HOME", "/"),
                ("EGG_FORCE_SCALAR", "")
            ])),
            ["EGG_FORCE_SCALAR", "EGG_THREADS"]
        );
        for name in GUARDED_ENV {
            assert_eq!(env_overrides(vars(&[(name, "1")])), [name]);
        }
    }

    #[test]
    fn csv_round_trip_is_bitwise() {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        for w in &WORKLOADS {
            let data = w.generate(3_000, 11);
            let path = dir.join(format!("roundtrip-{}-{}.csv", w.name, std::process::id()));
            write_csv_file(&path, &data, None).unwrap();
            let back = read_csv_file(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(back.dim(), data.dim());
            assert!(bits_equal(back.coords(), data.coords()), "{}", w.name);
        }
    }

    #[test]
    fn wrong_or_unconverged_solves_count_as_failed_ops() {
        let w = &WORKLOADS[0];
        let data = w.generate(300, 5);
        let reference = w.engine().cluster(&data);
        assert!(reference.converged && reference.num_clusters > 1);
        let mut ops = Ops::default();
        let same = w.engine().cluster(&data);
        ops.record(reproduces((&reference).into(), (&same).into()));
        assert_eq!((ops.attempted, ops.failed), (1, 0));

        // a corrupted partition: one point moved to another cluster
        let mut corrupted = same.clone();
        let other = corrupted
            .labels
            .iter()
            .copied()
            .find(|&l| l != corrupted.labels[0]);
        corrupted.labels[0] = other.unwrap();
        ops.record(reproduces((&reference).into(), (&corrupted).into()));
        assert_eq!((ops.attempted, ops.failed), (2, 1));

        // a run stopped by the iteration cap, however close its output
        let mut capped = same.clone();
        capped.converged = false;
        ops.record(reproduces((&reference).into(), (&capped).into()));
        assert_eq!((ops.attempted, ops.failed), (3, 2));

        // a last-bit difference in one coordinate
        let mut drifted = same;
        let mut coords = drifted.final_coords.coords().to_vec();
        coords[0] = f64::from_bits(coords[0].to_bits() ^ 1);
        drifted.final_coords = Dataset::from_coords(coords, data.dim());
        ops.record(reproduces((&reference).into(), (&drifted).into()));
        assert_eq!((ops.attempted, ops.failed), (4, 3));
    }

    /// `(name, unit)` pairs of one metric section of `BENCHMARK.json`,
    /// which lists one metric object per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let field = |line: &str, key: &str| -> String {
            let rest = &line[line.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5..];
            rest[..rest.find('"').unwrap()].to_owned()
        };
        section
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    #[test]
    fn every_workload_runs_and_emits_the_declared_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let (head, per_layer) = spec.split_once("\"per_layer\"").unwrap();
        let (workloads, end_to_end) = head.split_once("\"end_to_end\"").unwrap();
        let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(end_to_end), pairs(&END_TO_END));
        assert_eq!(declared(per_layer), pairs(&PER_LAYER));
        for w in &WORKLOADS {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name)));
        }

        for w in &WORKLOADS {
            let tiny = Workload {
                n: 400,
                check_n: 200,
                ..*w
            };
            for trace in [false, true] {
                let mut lines = Vec::new();
                let report = run(&tiny, 3, 0.0, trace, &mut lines).unwrap();
                let text = String::from_utf8(lines).unwrap();
                assert_eq!(
                    report.ops.failed, 0,
                    "{} trace={trace}: {report:?}\n{text}",
                    w.name
                );
                assert!(report.json().starts_with("{\"correct\": true, "));
                // first ingest, check, warm-up, one solve and the ingests
                // after it — or, traced, the solve's traced twin
                let after = if trace { 1 } else { INGESTS_PER_SOLVE as u64 };
                assert_eq!(report.ops.attempted, 4 + after);
                let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                let emitted: Vec<(&str, &str)> =
                    report.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
                assert_eq!(emitted, table, "{}", w.name);
                let json = report.json();
                for (name, unit) in table {
                    assert!(
                        json.contains(&format!("\"{name}\": {{\"value\": "))
                            && json.contains(&format!("\"unit\": \"{unit}\"}}")),
                        "{name} missing from {json}"
                    );
                    assert!(text.contains(&format!("{name} = ")), "{name} not printed");
                }
                if trace {
                    // a sub-millisecond solve makes the value itself noisy;
                    // full-size runs cover over 99.9% of the traced wall
                    let coverage = report.metrics.iter().find(|m| m.0 == "trace.coverage");
                    let coverage = coverage.unwrap().2;
                    assert!(coverage > 0.0 && coverage <= 1.0, "{}: {coverage}", w.name);
                }
            }
        }
    }
}
