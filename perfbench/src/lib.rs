//! End-to-end and per-layer host benchmark of the STAR reproduction.
//!
//! Three workloads, each run single-threaded in one process from a seed:
//!
//! * [`grid`] — the paper's figure grid: the 7 workload kinds × 4 schemes
//!   plus Triad's synthetic cell, fault-free, serially.
//! * [`ycsb`] — one STAR engine on the YCSB-A zipfian mix, warmed until
//!   the metadata cache is full, then timed in repeated segments.
//! * [`sweep`] — fork-strategy crash sweeps of STAR and Anubis with
//!   sampled crash-only faults over a run that fills the metadata cache.
//!
//! A run sets up [`SETUPS`] times (each set-up includes a full warm-up
//! repetition) and then repeats the workload for the requested seconds.
//! Untraced, it reports the end-to-end metrics ([`END_TO_END`]); traced,
//! it interleaves traced and untraced repetitions, runs the layer probes
//! of [`probe`], and reports the per-layer metrics ([`PER_LAYER`]).
//! Every repetition is checked against the set-up's output; see
//! [`Checker`] for what counts as a failure.
//!
//! Host-measured end-to-end times and rates are scaled to a reference
//! host speed by a fixed kernel timed around every set-up and repetition
//! ([`host::HostProbe`]); the raw figures are in the detail line.

pub mod grid;
pub mod host;
pub mod probe;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod ycsb;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use host::json_str;
use stats::{median, quantile, rel_err};
use trace::{LayerTime, Tracer};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Timed repetitions per run at least, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;

/// End-to-end metrics (printed with `--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("cases_per_s", "cases/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_write_ratio", "ratio"),
    ("sim_ipc_ratio", "ratio"),
    ("sim_recovery_us", "us"),
];

/// Per-layer metrics (printed with `--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ns_per_op", "ns"),
    ("workloads.events_per_op", "count"),
    ("mem.access_ns_per_event", "ns"),
    ("mem.fills_per_op", "count"),
    ("mem.writebacks_per_op", "count"),
    ("mem.llc_miss_ratio", "ratio"),
    ("engine.ns_per_op.wb", "ns"),
    ("engine.ns_per_op.strict", "ns"),
    ("engine.ns_per_op.anubis", "ns"),
    ("engine.ns_per_op.star", "ns"),
    ("engine.self_ns_per_op.wb", "ns"),
    ("engine.self_ns_per_op.strict", "ns"),
    ("engine.self_ns_per_op.anubis", "ns"),
    ("engine.self_ns_per_op.star", "ns"),
    ("engine.macs_per_op.wb", "count"),
    ("engine.macs_per_op.strict", "count"),
    ("engine.macs_per_op.anubis", "count"),
    ("engine.macs_per_op.star", "count"),
    ("engine.forced_flushes", "count"),
    ("engine.dirty_fraction", "ratio"),
    ("triad.ns_per_op", "ns"),
    ("crypto.aes_block_ns", "ns"),
    ("crypto.otp_ns", "ns"),
    ("crypto.mac54_ns", "ns"),
    ("crypto.sha256_64B_ns", "ns"),
    ("nvm.write_ns", "ns"),
    ("nvm.reads_per_op", "count"),
    ("nvm.writes_per_op.data", "count"),
    ("nvm.writes_per_op.metadata", "count"),
    ("nvm.writes_per_op.bitmap", "count"),
    ("nvm.writes_per_op.shadow", "count"),
    ("nvm.read_queue_ns_per_read", "ns"),
    ("bitmap.adr_hit_ratio", "ratio"),
    ("bitmap.ra_writes_per_op", "count"),
    ("recovery.recover_ms_p50", "ms"),
    ("recovery.recover_ms_p99", "ms"),
    ("recovery.samples", "count"),
    ("recovery.stale_nodes_per_case", "count"),
    ("faultsim.capture_s", "s"),
    ("faultsim.fork_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.attributed_share", "ratio"),
];

/// Per-layer values keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// [`grid`].
    Grid,
    /// [`ycsb`].
    YcsbStar,
    /// [`sweep`].
    CrashSweep,
}

impl WorkloadName {
    /// Every workload.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::Grid,
        WorkloadName::YcsbStar,
        WorkloadName::CrashSweep,
    ];

    /// Command-line name.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadName::Grid => "grid",
            WorkloadName::YcsbStar => "ycsb-star",
            WorkloadName::CrashSweep => "crash-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.label() == label)
    }
}

/// Input sizes: the benchmark's own, or a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined with.
    Full,
    /// Small enough for a test to run every workload in seconds.
    Tiny,
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: WorkloadName,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed repetitions run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Correctness accounting: every checked unit (a cell's report, a
/// repetition, a crash case, a recovery) is one attempt. A unit fails
/// when its report bytes differ from the set-up's, when a crash case is
/// not `Recovered`, or when a recovery is refused or incorrect; a panic
/// fails the whole run.
#[derive(Debug, Default)]
pub struct Checker {
    /// Units checked.
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checker {
    /// Counts one unit, failing it unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}

/// Simulated results of one set-up; they repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// STAR total NVM writes ÷ WB's (geomean over kinds for the grid).
    pub write_ratio: f64,
    /// STAR IPC ÷ WB IPC (geomean over kinds for the grid).
    pub ipc_ratio: f64,
    /// Modelled STAR recovery time, µs: the median over crash cases (the
    /// mean over kinds for the grid, one case for ycsb-star).
    pub recovery_us: f64,
}

/// Work one repetition completed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Simulated workload operations.
    pub ops: u64,
    /// Independent checked cases (grid cells, engine runs, crash cases).
    pub cases: u64,
}

/// A workload, as [`run`] drives it.
pub trait Bench: Sized {
    /// One complete set-up, warm-up repetition included. `traced` set-ups
    /// also keep what the traced repetitions and probes replay.
    fn setup(seed: u64, scale: Scale, traced: bool, chk: &mut Checker) -> Self;
    /// The warm-up's outputs, which every repetition must reproduce.
    fn reference(&self) -> &[String];
    /// Simulated results of the set-up.
    fn sim(&self) -> Sim;
    /// One untraced repetition.
    fn rep(&mut self, chk: &mut Checker) -> Work;
    /// One traced repetition; returns the per-layer values it measured.
    fn rep_traced(&mut self, t: &mut Tracer, chk: &mut Checker) -> (Work, Layers);
    /// Layer probes run once after the traced repetitions; returns every
    /// per-layer value the repetitions did not.
    fn probes(&mut self, t: &mut Tracer, chk: &mut Checker) -> Layers;
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No check failed.
    pub correct: bool,
    /// Units checked.
    pub attempted: u64,
    /// Units failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Simulated results (identical for identical seeds).
    pub sim: Sim,
    /// Per-span totals of the traced run (empty when untraced).
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Traced wall clock: summed top-level spans (0 when untraced).
    pub traced_wall_ns: u64,
    /// Supporting detail as one JSON object: host fingerprint, paper
    /// errors, sample counts, failures and the traced layer split.
    pub detail: String,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A JSON number (non-finite values, which JSON cannot carry, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        WorkloadName::Grid => drive::<grid::Grid>(opts),
        WorkloadName::YcsbStar => drive::<ycsb::Ycsb>(opts),
        WorkloadName::CrashSweep => drive::<sweep::Sweep>(opts),
    }
}

fn drive<B: Bench>(opts: &Options) -> Outcome {
    let start = Instant::now();
    let mut chk = Checker::default();
    let mut host_probe = host::HostProbe::new();
    let mut raw_setup_s = Vec::with_capacity(SETUPS);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench: Option<B> = None;
    let mut first: Option<Vec<String>> = None;
    for i in 0..SETUPS {
        // The previous set-up is dropped first, so each one starts from
        // the same empty state.
        drop(bench.take());
        let t = Instant::now();
        let b = B::setup(opts.seed, opts.scale, opts.trace, &mut chk);
        let secs = t.elapsed().as_secs_f64();
        raw_setup_s.push(secs);
        setup_s.push(secs / host_probe.slowdown());
        match &first {
            Some(r) => chk.check(r.as_slice() == b.reference(), || {
                format!("set-up {i} differs from set-up 0")
            }),
            None => first = Some(b.reference().to_vec()),
        }
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let to_first_rep = start.elapsed().as_secs_f64();
    let sim = bench.sim();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"workload\":\"{}\",\"seed\":{},\"mode\":\"{}\",\"host\":{},\
         \"setup_samples_s\":{},\"raw_setup_samples_s\":{},\
         \"process_start_to_first_rep_s\":{},",
        opts.workload.label(),
        opts.seed,
        if opts.trace { "traced" } else { "end-to-end" },
        host::Fingerprint::probe().to_json(),
        json_list(&setup_s),
        json_list(&raw_setup_s),
        json_num(to_first_rep),
    );

    let (metrics, layers, traced_wall_ns) = if opts.trace {
        let mut t = Tracer::new();
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let mut rep_layers: Vec<Layers> = Vec::new();
        let reps_start = Instant::now();
        while traced.len() < MIN_REPS || reps_start.elapsed() < budget {
            let at = Instant::now();
            let work = bench.rep(&mut chk);
            plain.push(work.ops as f64 / at.elapsed().as_secs_f64());
            let ((work, layers), ns) = t.timed("rep", |t| bench.rep_traced(t, &mut chk));
            traced.push(work.ops as f64 / (ns * 1e-9));
            rep_layers.push(layers);
        }
        let mut values = merge_medians(&rep_layers);
        for (k, v) in bench.probes(&mut t, &mut chk) {
            values.entry(k).or_insert(v);
        }
        let summary = t.summary();
        let wall = t.root_wall_ns();
        let rep_total = trace::total_ns(&summary, "rep");
        let rep_self = summary.get("rep").map_or(0.0, |l| l.self_ns as f64);
        values.insert("trace.overhead", median(&plain) / median(&traced) - 1.0);
        values.insert("trace.attributed_share", 1.0 - rep_self / rep_total);
        let _ = write!(
            detail,
            "\"reps\":{{\"traced\":{},\"untraced\":{}}},\"paper\":{{{}}},",
            traced.len(),
            plain.len(),
            paper_layers(&values)
        );
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: *values
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured")),
                unit,
            })
            .collect();
        (metrics, summary, wall)
    } else {
        let mut raw_ops_rate = Vec::new();
        let mut ops_rate = Vec::new();
        let mut case_rate = Vec::new();
        let reps_start = Instant::now();
        while ops_rate.len() < MIN_REPS || reps_start.elapsed() < budget {
            let at = Instant::now();
            let work = bench.rep(&mut chk);
            let secs = at.elapsed().as_secs_f64();
            let slowdown = host_probe.slowdown();
            raw_ops_rate.push(work.ops as f64 / secs);
            ops_rate.push(work.ops as f64 / secs * slowdown);
            case_rate.push(work.cases as f64 / secs * slowdown);
        }
        let quartiles = |v: &[f64]| json_list(&[0.25, 0.5, 0.75].map(|q| quantile(v, q)));
        let _ = write!(
            detail,
            "\"reps\":{},\"ops_per_s_quartiles\":{},\"raw_ops_per_s_quartiles\":{},\
             \"host_probe_ms_quartiles\":{},\"host_probe_ref_ms\":{},\"paper\":{{{}}},",
            ops_rate.len(),
            quartiles(&ops_rate),
            quartiles(&raw_ops_rate),
            quartiles(host_probe.samples_ms()),
            json_num(host::HOST_PROBE_REF_MS),
            paper_sim(&sim)
        );
        let values = [
            median(&setup_s),
            median(&ops_rate),
            median(&case_rate),
            host::peak_rss_mib().unwrap_or(f64::NAN),
            sim.write_ratio,
            sim.ipc_ratio,
            sim.recovery_us,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
        (metrics, BTreeMap::new(), 0)
    };

    let _ = write!(
        detail,
        "\"sim\":{{\"write_ratio\":{},\"ipc_ratio\":{},\"recovery_us\":{}}},\
         \"fail_ratio\":{},\"failures\":[{}],\"layer_split\":{}}}",
        json_num(sim.write_ratio),
        json_num(sim.ipc_ratio),
        json_num(sim.recovery_us),
        json_num(chk.failed as f64 / chk.attempted.max(1) as f64),
        chk.failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(","),
        layer_split_json(&layers, traced_wall_ns),
    );
    Outcome {
        correct: chk.failed == 0,
        attempted: chk.attempted,
        failed: chk.failed,
        metrics,
        sim,
        layers,
        traced_wall_ns,
        detail,
    }
}

/// Per-key median over the traced repetitions.
fn merge_medians(reps: &[Layers]) -> Layers {
    let mut keys: Vec<&'static str> = reps.iter().flat_map(|r| r.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let vals: Vec<f64> = reps.iter().filter_map(|r| r.get(k).copied()).collect();
            (k, median(&vals))
        })
        .collect()
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
    format!("[{}]", items.join(","))
}

fn paper_entry(name: &str, measured: f64, paper: f64) -> String {
    format!(
        "{}:{{\"measured\":{},\"paper\":{},\"rel_err\":{}}}",
        json_str(name),
        json_num(measured),
        json_num(paper),
        json_num(rel_err(measured, paper))
    )
}

/// Relative error of the simulated end-to-end figures against the paper.
fn paper_sim(sim: &Sim) -> String {
    use star_bench::paper::{FIG11_STAR_VS_WB, FIG12_STAR_IPC};
    [
        paper_entry("sim_write_ratio", sim.write_ratio, FIG11_STAR_VS_WB),
        paper_entry("sim_ipc_ratio", sim.ipc_ratio, FIG12_STAR_IPC),
        // The paper gives recovery time only at full 4 MB caches (Fig.
        // 14b), not per sampled crash point, so there is no reference.
        "\"sim_recovery_us\":null".into(),
    ]
    .join(",")
}

/// Relative error of the per-layer figures the paper also reports.
fn paper_layers(values: &Layers) -> String {
    use star_bench::paper::{FIG14A_DIRTY_FRACTION, TABLE2_HIT_RATIOS};
    let table2_8 = TABLE2_HIT_RATIOS
        .iter()
        .find(|(lines, _)| *lines == probe::TABLE2_ADR_LINES)
        .map(|(_, pct)| pct / 100.0)
        .expect("Table II has an 8-line row");
    let get = |k: &str| values.get(k).copied().unwrap_or(f64::NAN);
    [
        paper_entry(
            "bitmap.adr_hit_ratio",
            get("bitmap.adr_hit_ratio"),
            table2_8,
        ),
        paper_entry(
            "engine.dirty_fraction",
            get("engine.dirty_fraction"),
            FIG14A_DIRTY_FRACTION,
        ),
    ]
    .join(",")
}

/// The traced layer split: per span name, count, total and self time,
/// and self time as a share of the traced wall clock.
fn layer_split_json(layers: &BTreeMap<&'static str, LayerTime>, wall_ns: u64) -> String {
    let items: Vec<String> = layers
        .iter()
        .map(|(name, l)| {
            format!(
                "{}:{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"self_share\":{}}}",
                json_str(name),
                l.count,
                l.total_ns,
                l.self_ns,
                json_num(l.self_ns as f64 / wall_ns.max(1) as f64)
            )
        })
        .collect();
    format!(
        "{{\"wall_ns\":{},\"spans\":{{{}}}}}",
        wall_ns,
        items.join(",")
    )
}
