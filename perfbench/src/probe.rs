//! Layer probes: timed calls into each crate's public functions.
//!
//! Every probe works from outside the program. A workload's event stream
//! is recorded once (`Workload::run` into a `VecSink`) and then replayed
//! into the layer under test: `CacheHierarchy::access` for `mem`,
//! `SecureMemory::on_events` for `engine`, `NvmDevice::write` for `nvm`,
//! `star_core::recover` for `recovery`. Counts come from the counters the
//! crates already expose (`RunReport`, `HierarchyStats`, `BitmapStats`).

use std::collections::BTreeSet;
use std::hint::black_box;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

use star_core::persist::CrashRequested;
use star_core::triad::{TriadConfig, TriadMemory};
use star_core::{recover, CrashPlan, RunReport, SchemeKind, SecureMemConfig, SecureMemory};
use star_crypto::mac::{MacInput, MacKey};
use star_crypto::{one_time_pad, Aes128, Sha256};
use star_faultsim::{install_panic_filter, CrashExplorer, ForkPoint};
use star_mem::hierarchy::HierarchyStats;
use star_mem::{CacheHierarchy, MemEvent, MemSideOp, TraceSink, VecSink};
use star_nvm::{AccessClass, NvmDevice, WriteCause};
use star_workloads::{Workload, WorkloadKind};

use crate::stats::{median, per, quantile};
use crate::trace::Tracer;
use crate::{Checker, Layers};

/// ADR bitmap lines of the Table II row the hit ratio is compared with.
pub const TABLE2_ADR_LINES: usize = 8;
/// Seed of the crash-point sampler. Fixed, so every workload seed
/// crashes at the same fractions of its persist schedule.
pub const SAMPLE_SEED: u64 = 1;
/// Write-journal capacity of the captured engines (as in star-faultsim).
const CAPTURE_JOURNAL: usize = 4096;
/// Write-journal capacity of the engine whose writes `nvm.write_ns`
/// replays.
const REPLAY_JOURNAL: usize = 1 << 17;
/// Data lines of Triad's synthetic cell (as in the bench baseline).
const TRIAD_DATA_LINES: u64 = 4096;

/// The four schemes, in the paper's order.
pub const SCHEMES: [SchemeKind; 4] = SchemeKind::ALL;

/// Span name of an engine replay under `scheme`.
pub fn engine_span(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::WriteBack => "engine.wb",
        SchemeKind::Strict => "engine.strict",
        SchemeKind::Anubis => "engine.anubis",
        SchemeKind::Star => "engine.star",
    }
}

/// The per-scheme metric names: `ns_per_op`, `self_ns_per_op`,
/// `macs_per_op`.
fn scheme_keys(scheme: SchemeKind) -> [&'static str; 3] {
    match scheme {
        SchemeKind::WriteBack => [
            "engine.ns_per_op.wb",
            "engine.self_ns_per_op.wb",
            "engine.macs_per_op.wb",
        ],
        SchemeKind::Strict => [
            "engine.ns_per_op.strict",
            "engine.self_ns_per_op.strict",
            "engine.macs_per_op.strict",
        ],
        SchemeKind::Anubis => [
            "engine.ns_per_op.anubis",
            "engine.self_ns_per_op.anubis",
            "engine.macs_per_op.anubis",
        ],
        SchemeKind::Star => [
            "engine.ns_per_op.star",
            "engine.self_ns_per_op.star",
            "engine.macs_per_op.star",
        ],
    }
}

fn scheme_index(scheme: SchemeKind) -> usize {
    SCHEMES
        .iter()
        .position(|&s| s == scheme)
        .expect("every scheme is listed")
}

/// The counters of a [`RunReport`] the layer metrics are built from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Instructions retired.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: f64,
    /// NVM line reads.
    pub reads: u64,
    /// NVM line writes per [`AccessClass::ALL`] class.
    pub writes: [u64; 4],
    /// Simulated NVM read queueing, ps.
    pub read_queue_ps: u64,
    /// MAC computations.
    pub macs: u64,
    /// STAR forced flushes.
    pub forced: u64,
    /// STAR bitmap accesses.
    pub bitmap_accesses: u64,
    /// STAR bitmap accesses that hit ADR.
    pub adr_hits: u64,
    /// STAR bitmap lines spilled to the recovery area.
    pub ra_writes: u64,
}

impl Counters {
    /// The counters of `report`.
    pub fn of(report: &RunReport) -> Self {
        let bitmap = report.bitmap.unwrap_or_default();
        Self {
            instructions: report.instructions,
            cycles: report.cycles,
            reads: report.nvm.total_reads(),
            writes: AccessClass::ALL.map(|c| report.nvm.writes(c)),
            read_queue_ps: report.nvm.read_queue_ps,
            macs: report.mac_computations,
            forced: report.forced_flushes,
            bitmap_accesses: bitmap.accesses,
            adr_hits: bitmap.adr_hits,
            ra_writes: bitmap.ra_writes,
        }
    }

    /// What accrued since `base`.
    pub fn since(self, base: Counters) -> Counters {
        Counters {
            instructions: self.instructions - base.instructions,
            cycles: self.cycles - base.cycles,
            reads: self.reads - base.reads,
            writes: std::array::from_fn(|i| self.writes[i] - base.writes[i]),
            read_queue_ps: self.read_queue_ps - base.read_queue_ps,
            macs: self.macs - base.macs,
            forced: self.forced - base.forced,
            bitmap_accesses: self.bitmap_accesses - base.bitmap_accesses,
            adr_hits: self.adr_hits - base.adr_hits,
            ra_writes: self.ra_writes - base.ra_writes,
        }
    }

    /// Adds `other` in.
    pub fn add(&mut self, other: &Counters) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.reads += other.reads;
        for (w, o) in self.writes.iter_mut().zip(other.writes) {
            *w += o;
        }
        self.read_queue_ps += other.read_queue_ps;
        self.macs += other.macs;
        self.forced += other.forced;
        self.bitmap_accesses += other.bitmap_accesses;
        self.adr_hits += other.adr_hits;
        self.ra_writes += other.ra_writes;
    }

    /// All NVM writes.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles
    }
}

/// Records `ops` operations of `wl` (`Workload::run` into a `VecSink`).
pub fn record(wl: &mut dyn Workload, ops: usize) -> Vec<MemEvent> {
    let mut sink = VecSink::new();
    wl.run(ops, &mut sink);
    sink.events
}

/// Replays `events` through `h` (`CacheHierarchy::access`), skipping the
/// compute batches the engine retires without touching the caches.
pub fn replay_hierarchy(h: &mut CacheHierarchy, events: &[MemEvent]) {
    let mut out: Vec<MemSideOp> = Vec::new();
    for &event in events {
        if matches!(event, MemEvent::Work { .. }) {
            continue;
        }
        out.clear();
        h.access(event, &mut out);
    }
    black_box(&out);
}

/// `after - before` for hierarchy statistics.
pub fn hierarchy_since(after: HierarchyStats, before: HierarchyStats) -> HierarchyStats {
    HierarchyStats {
        l1_hits: after.l1_hits - before.l1_hits,
        l2_hits: after.l2_hits - before.l2_hits,
        l3_hits: after.l3_hits - before.l3_hits,
        llc_misses: after.llc_misses - before.llc_misses,
        writebacks: after.writebacks - before.writebacks,
    }
}

/// A recorded stream to replay: `warm` brings a fresh engine to the
/// state the measured `events` start from (empty for a cold start).
#[derive(Debug, Clone, Copy)]
pub struct Stream<'a> {
    /// Events replayed untimed first.
    pub warm: &'a [MemEvent],
    /// The measured events.
    pub events: &'a [MemEvent],
    /// Workload operations in `events`.
    pub ops: u64,
    /// Engine configuration.
    pub cfg: &'a SecureMemConfig,
}

impl Stream<'_> {
    /// Replays the stream into a fresh engine under `scheme` and `cfg`,
    /// timing the measured part in span `span`. Returns the engine and
    /// the counters and time of the measured part.
    pub fn engine(
        &self,
        t: &mut Tracer,
        span: &'static str,
        scheme: SchemeKind,
        cfg: &SecureMemConfig,
        journal: bool,
    ) -> (SecureMemory, Counters, f64) {
        let mut mem = SecureMemory::new(scheme, cfg.clone());
        mem.on_events(self.warm);
        if journal {
            mem.enable_write_journal(REPLAY_JOURNAL);
        }
        let base = Counters::of(&mem.report());
        let ((), ns) = t.timed(span, |_| mem.on_events(self.events));
        let counters = Counters::of(&mem.report()).since(base);
        (mem, counters, ns)
    }
}

/// Timings and counts of the `workloads` and `mem` layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemAcc {
    /// Time recording operations.
    pub gen_ns: f64,
    /// Operations recorded.
    pub gen_ops: u64,
    /// Time replaying through the hierarchy.
    pub mem_ns: f64,
    /// Operations replayed through the hierarchy.
    pub mem_ops: u64,
    /// Events replayed through the hierarchy.
    pub events: u64,
    /// Hierarchy statistics of the replays.
    pub stats: HierarchyStats,
}

impl MemAcc {
    /// Adds one hierarchy replay.
    pub fn add_replay(&mut self, ns: f64, ops: u64, events: u64, stats: HierarchyStats) {
        self.mem_ns += ns;
        self.mem_ops += ops;
        self.events += events;
        self.stats.absorb(&stats);
    }

    /// Hierarchy time per operation (what `engine.self_ns_per_op`
    /// subtracts).
    pub fn mem_ns_per_op(&self) -> f64 {
        per(self.mem_ns, self.mem_ops as f64)
    }

    /// The `workloads.*` and `mem.*` metrics.
    pub fn layers(&self, out: &mut Layers) {
        let s = &self.stats;
        let ops = self.mem_ops as f64;
        let llc_accesses = (s.l3_hits + s.llc_misses) as f64;
        out.insert(
            "workloads.gen_ns_per_op",
            per(self.gen_ns, self.gen_ops as f64),
        );
        out.insert("workloads.events_per_op", per(self.events as f64, ops));
        out.insert(
            "mem.access_ns_per_event",
            per(self.mem_ns, self.events as f64),
        );
        out.insert("mem.fills_per_op", per(s.llc_misses as f64, ops));
        out.insert("mem.writebacks_per_op", per(s.writebacks as f64, ops));
        out.insert("mem.llc_miss_ratio", per(s.llc_misses as f64, llc_accesses));
    }
}

/// Timings and counters of engine replays, per scheme.
#[derive(Debug, Clone, Default)]
pub struct EngineAcc {
    ns: [f64; 4],
    ops: [u64; 4],
    counters: [Counters; 4],
    star_dirty: Vec<f64>,
}

impl EngineAcc {
    /// Adds one replay of `ops` operations under `scheme`.
    pub fn add(&mut self, scheme: SchemeKind, ns: f64, ops: u64, counters: &Counters) {
        let i = scheme_index(scheme);
        self.ns[i] += ns;
        self.ops[i] += ops;
        self.counters[i].add(counters);
    }

    /// Records STAR's dirty metadata fraction at the end of a replay.
    pub fn add_star_dirty(&mut self, fraction: f64) {
        self.star_dirty.push(fraction);
    }

    /// The `engine.*` metrics of `schemes`; self time subtracts the
    /// hierarchy replay time per op, `mem_ns_per_op`. STAR's forced
    /// flushes, dirty fraction and RA spills ride along with STAR.
    pub fn engine_layers(&self, schemes: &[SchemeKind], mem_ns_per_op: f64, out: &mut Layers) {
        for &scheme in schemes {
            let i = scheme_index(scheme);
            let ops = self.ops[i] as f64;
            let ns_per_op = per(self.ns[i], ops);
            let [total, own, macs] = scheme_keys(scheme);
            out.insert(total, ns_per_op);
            out.insert(own, ns_per_op - mem_ns_per_op);
            out.insert(macs, per(self.counters[i].macs as f64, ops));
            if scheme == SchemeKind::Star {
                let star = &self.counters[i];
                out.insert("engine.forced_flushes", star.forced as f64);
                out.insert(
                    "engine.dirty_fraction",
                    self.star_dirty.iter().sum::<f64>() / self.star_dirty.len() as f64,
                );
                out.insert("bitmap.ra_writes_per_op", per(star.ra_writes as f64, ops));
            }
        }
    }

    /// The `nvm.*` counts, per operation averaged over the four schemes.
    pub fn nvm_layers(&self, out: &mut Layers) {
        let mut sum = Counters::default();
        for c in &self.counters {
            sum.add(c);
        }
        let ops = self.ops.iter().sum::<u64>() as f64;
        out.insert("nvm.reads_per_op", per(sum.reads as f64, ops));
        let names = [
            "nvm.writes_per_op.data",
            "nvm.writes_per_op.metadata",
            "nvm.writes_per_op.bitmap",
            "nvm.writes_per_op.shadow",
        ];
        for (name, writes) in names.into_iter().zip(sum.writes) {
            out.insert(name, per(writes as f64, ops));
        }
        out.insert(
            "nvm.read_queue_ns_per_read",
            per(sum.read_queue_ps as f64 / 1e3, sum.reads as f64),
        );
    }
}

/// `bitmap.adr_hit_ratio`: STAR replayed with the Table II 8-line ADR
/// budget; the mean of the per-stream ratios, as Table II averages its
/// workloads.
pub fn bitmap_table2(t: &mut Tracer, streams: &[Stream<'_>], out: &mut Layers) {
    let ratios: Vec<f64> = streams
        .iter()
        .filter_map(|s| {
            let mut cfg = s.cfg.clone();
            cfg.adr_bitmap_lines = TABLE2_ADR_LINES;
            let (_, c, _) = s.engine(t, "bitmap.table2_replay", SchemeKind::Star, &cfg, false);
            (c.bitmap_accesses > 0).then(|| c.adr_hits as f64 / c.bitmap_accesses as f64)
        })
        .collect();
    out.insert(
        "bitmap.adr_hit_ratio",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );
}

/// `nvm.write_ns`: each stream's STAR writes, journaled during a replay,
/// replayed again through a fresh `NvmDevice::write`.
pub fn nvm_writes(t: &mut Tracer, streams: &[Stream<'_>], out: &mut Layers) {
    let mut ns = 0.0;
    let mut writes = 0u64;
    for s in streams {
        let (mem, _, _) = s.engine(t, "engine.star_journaled", SchemeKind::Star, s.cfg, true);
        let records: Vec<_> = mem
            .write_journal()
            .expect("journal enabled")
            .records()
            .copied()
            .collect();
        let mut dev = NvmDevice::new(s.cfg.nvm);
        let ((), write_ns) = t.timed("nvm.write", |_| {
            for r in &records {
                let cause = match r.class {
                    AccessClass::Data => WriteCause::Data,
                    AccessClass::Metadata => WriteCause::CounterBlock,
                    AccessClass::BitmapLine => WriteCause::BitmapLine,
                    AccessClass::ShadowTable => WriteCause::ShadowTable,
                };
                black_box(dev.write(r.addr, r.new_line, cause, r.complete_at_ps));
            }
        });
        ns += write_ns;
        writes += records.len() as u64;
    }
    out.insert("nvm.write_ns", per(ns, writes as f64));
}

/// Median ns per call of `f` over five batches of `iters` calls.
fn per_call_ns(t: &mut Tracer, span: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(5);
    t.span(span, |_| {
        for _ in 0..5 {
            let at = Instant::now();
            for i in 0..iters {
                f(i);
            }
            samples.push(at.elapsed().as_nanos() as f64 / iters as f64);
        }
    });
    median(&samples)
}

/// `crypto.*`: the primitives' public functions, timed in-process.
pub fn crypto(t: &mut Tracer, iters: u64, out: &mut Layers) {
    let aes = Aes128::from_seed(1);
    let key = MacKey::from_seed(2);
    let counters = [9u64; 8];
    let line = [0xabu8; 64];
    let mut block = [7u8; 16];
    out.insert(
        "crypto.aes_block_ns",
        per_call_ns(t, "crypto.aes", iters, |_| {
            block = aes.encrypt_block(black_box(&block));
        }),
    );
    black_box(block);
    out.insert(
        "crypto.otp_ns",
        per_call_ns(t, "crypto.otp", iters, |i| {
            black_box(one_time_pad(black_box(&aes), black_box(i), black_box(42)));
        }),
    );
    out.insert(
        "crypto.mac54_ns",
        per_call_ns(t, "crypto.mac54", iters, |i| {
            black_box(
                MacInput::new()
                    .u64(black_box(i))
                    .u64s(black_box(&counters))
                    .u64(black_box(17))
                    .mac54(&key),
            );
        }),
    );
    out.insert(
        "crypto.sha256_64B_ns",
        per_call_ns(t, "crypto.sha256", iters / 4, |i| {
            let mut data = line;
            data[0] = i as u8;
            black_box(Sha256::digest(black_box(&data)));
        }),
    );
}

/// Triad's synthetic cell: `ops` write-throughs over a small memory.
pub fn triad_cell(ops: usize) -> TriadMemory {
    let mut m = TriadMemory::new(TriadConfig {
        data_lines: TRIAD_DATA_LINES,
        persist_levels: 2,
        ..TriadConfig::default()
    });
    for i in 0..ops as u64 {
        m.write_data((i * 37) % TRIAD_DATA_LINES, i + 1);
    }
    m
}

/// The output of Triad's cell that repetitions compare.
pub fn triad_bytes(m: &TriadMemory) -> String {
    format!("triad {:?} root {:?}", m.nvm_stats(), m.root())
}

/// `triad.ns_per_op`, timed over the synthetic cell.
pub fn triad(t: &mut Tracer, ops: usize, out: &mut Layers) {
    let (m, ns) = t.timed("triad", |_| triad_cell(ops));
    black_box(m);
    out.insert("triad.ns_per_op", per(ns, ops as f64));
}

/// One crash-capture job: a run of `ops` operations of `kind` under
/// `scheme` and `cfg`, crashed at `cases` sampled persist points.
#[derive(Debug, Clone)]
pub struct CaptureSpec {
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Workload kind.
    pub kind: WorkloadKind,
    /// Workload seed.
    pub seed: u64,
    /// Operations in the run.
    pub ops: usize,
    /// Engine configuration.
    pub cfg: SecureMemConfig,
    /// Crash points sampled.
    pub cases: usize,
}

impl CaptureSpec {
    /// The explorer that samples this job's crash points.
    pub fn explorer(&self) -> CrashExplorer {
        CrashExplorer::new(self.scheme, self.kind, self.ops, self.seed)
            .with_config(self.cfg.clone())
            .with_max_cases(self.cases)
            .with_sample_seed(SAMPLE_SEED)
    }
}

/// The fork-strategy capture pass, driven through public calls: the
/// schedule pre-pass (`CrashExplorer::schedule_by_op`), then one run
/// that checkpoints (`SecureMemory::fork`) before each op committing a
/// sampled point and re-steps a fork with the crash armed to seize the
/// `ForkPoint`. Each `SecureMemory::fork` is its own span.
///
/// This mirrors what `CrashExplorer::explore` does internally: the public
/// `CrashExplorer::capture` lacks explore's commit-op hint and
/// checkpoints before every op, which costs seconds per run here.
pub fn capture(t: &mut Tracer, spec: &CaptureSpec, chk: &mut Checker) -> Vec<ForkPoint> {
    install_panic_filter();
    let explorer = spec.explorer();
    let (schedule, op_of_point) = t.span("faultsim.schedule", |_| explorer.schedule_by_op());
    let points = explorer.chosen_points(schedule.len() as u64);
    let commit_ops: BTreeSet<usize> = points
        .iter()
        .map(|&seq| op_of_point[(seq - 1) as usize])
        .collect();
    t.span("faultsim.capture", |t| {
        let mut engine = SecureMemory::new(spec.scheme, spec.cfg.clone());
        engine.enable_persist_log();
        engine.enable_write_journal(CAPTURE_JOURNAL);
        let mut wl = spec.kind.instantiate(spec.seed);
        let mut forks = Vec::with_capacity(points.len());
        let mut next = 0;
        for op in 0..spec.ops {
            if next == points.len() {
                break;
            }
            if !commit_ops.contains(&op) {
                wl.step(&mut engine);
                continue;
            }
            let mut ck_engine = t.span("faultsim.fork", |_| engine.fork());
            let ck_wl = wl.fork_box();
            wl.step(&mut engine);
            let after = engine.persist_points();
            while next < points.len() && points[next] <= after {
                let seq = points[next];
                next += 1;
                let mut fork = t.span("faultsim.fork", |_| ck_engine.fork());
                let mut steps = ck_wl.fork_box();
                fork.arm(CrashPlan::at(seq));
                match catch_unwind(AssertUnwindSafe(|| steps.step(&mut fork))) {
                    Err(payload) => match payload.downcast::<CrashRequested>() {
                        Ok(crash) => forks.push(ForkPoint::seize(fork, *crash)),
                        Err(payload) => resume_unwind(payload),
                    },
                    Ok(()) => chk.check(false, || {
                        format!("crash armed at point {seq} did not fire on re-step")
                    }),
                }
            }
        }
        chk.check(next == points.len(), || {
            format!("captured {next} of {} sampled points", points.len())
        });
        forks
    })
}

/// `recovery.*` and `faultsim.*`: captures every job, then times
/// `star_core::recover` on a copy of each seized image.
pub fn recovery(t: &mut Tracer, specs: &[CaptureSpec], chk: &mut Checker, out: &mut Layers) {
    let mut recover_ms = Vec::new();
    let mut stale = Vec::new();
    let capture_mark = t.mark();
    for spec in specs {
        let forks = capture(t, spec, chk);
        for point in &forks {
            let mut image = point.image.clone();
            let (rec, ns) = t.timed("recovery.recover", |_| recover(&mut image));
            recover_ms.push(ns * 1e-6);
            stale.push(point.stale_count as f64);
            let seq = point.crash.seq;
            match rec {
                Ok(report) => chk.check(report.correct, || {
                    format!("{:?} recovery at point {seq} is incorrect", spec.scheme)
                }),
                Err(e) => chk.check(false, || {
                    format!("{:?} recovery at point {seq} refused: {e}", spec.scheme)
                }),
            }
        }
    }
    let summary = t.summary_since(capture_mark);
    let fork_ms: Vec<f64> = t.spans()[capture_mark..]
        .iter()
        .filter(|s| s.name == "faultsim.fork")
        .map(|s| s.dur_ns() as f64 * 1e-6)
        .collect();
    out.insert("recovery.recover_ms_p50", median(&recover_ms));
    out.insert("recovery.recover_ms_p99", quantile(&recover_ms, 0.99));
    out.insert("recovery.samples", recover_ms.len() as f64);
    out.insert(
        "recovery.stale_nodes_per_case",
        stale.iter().sum::<f64>() / stale.len().max(1) as f64,
    );
    out.insert(
        "faultsim.capture_s",
        summary
            .get("faultsim.capture")
            .map_or(0.0, |l| l.total_ns as f64 * 1e-9),
    );
    out.insert("faultsim.fork_ms", median(&fork_ms));
}
