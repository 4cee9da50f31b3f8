//! `ycsb-star`: one STAR engine on the YCSB-A zipfian mix (the paper's
//! Table I configuration), warmed until the metadata cache is full, then
//! timed in repeated segments. This is the steady per-op path of the
//! paper's scheme: about 3.6 fills per write-back, read-heavier than the
//! grid's data structures.
//!
//! The set-up warms one engine and keeps it as a snapshot; every
//! repetition forks the snapshot (`SecureMemory::fork`, with the
//! workload's `fork_box`) and runs the same segment, so each repetition
//! must reproduce the warm-up repetition's report bytes.

use star_core::{recover, SchemeKind, SecureMemConfig, SecureMemory};
use star_mem::{CacheHierarchy, MemEvent, TraceSink};
use star_workloads::{Workload, WorkloadKind};

use crate::probe::{
    self, engine_span, hierarchy_since, CaptureSpec, Counters, EngineAcc, MemAcc, Stream, SCHEMES,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Bench, Checker, Layers, Scale, Sim, Work};

/// Input sizes of ycsb-star.
#[derive(Debug, Clone, Copy)]
pub struct YcsbParams {
    /// Warm-up operations before the snapshot.
    pub warm_ops: usize,
    /// Operations per repetition.
    pub rep_ops: usize,
    /// Sampled crash points per scheme in the recovery probe.
    pub capture_cases: usize,
    /// Calls per batch in the crypto probe.
    pub crypto_iters: u64,
    /// Operations of Triad's synthetic cell.
    pub triad_ops: usize,
}

impl YcsbParams {
    /// The sizes for `scale`.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                warm_ops: 50_000,
                rep_ops: 100_000,
                capture_cases: 16,
                crypto_iters: 200_000,
                triad_ops: 2_000,
            },
            Scale::Tiny => Self {
                warm_ops: 300,
                rep_ops: 300,
                capture_cases: 2,
                crypto_iters: 2_000,
                triad_ops: 60,
            },
        }
    }
}

/// What a traced set-up keeps for the traced repetitions and probes.
#[derive(Debug)]
struct Traced {
    /// The warm-up stream.
    warm_events: Vec<MemEvent>,
    /// A bare hierarchy warmed with the same stream.
    warm_hier: CacheHierarchy,
    /// Hierarchy replay time per op, per traced repetition.
    mem_ns_per_op: Vec<f64>,
    /// The last traced repetition's stream.
    last: Option<Vec<MemEvent>>,
}

/// ycsb-star's set-up state.
pub struct Ycsb {
    seed: u64,
    p: YcsbParams,
    cfg: SecureMemConfig,
    snap: SecureMemory,
    snap_wl: Box<dyn Workload>,
    reference: Vec<String>,
    sim: Sim,
    traced: Option<Traced>,
}

impl Ycsb {
    fn check_rep(&self, chk: &mut Checker, bytes: &str) {
        chk.check(self.reference[0] == bytes, || {
            "ycsb-star repetition differs from its warm-up".into()
        });
    }

    fn work(&self) -> Work {
        Work {
            ops: self.p.rep_ops as u64,
            cases: 1,
        }
    }
}

impl Bench for Ycsb {
    fn setup(seed: u64, scale: Scale, traced: bool, chk: &mut Checker) -> Self {
        let p = YcsbParams::of(scale);
        let cfg = SecureMemConfig::default();
        let mut snap = SecureMemory::new(SchemeKind::Star, cfg.clone());
        let mut snap_wl = WorkloadKind::Ycsb.instantiate(seed);
        let traced = if traced {
            let warm_events = probe::record(&mut *snap_wl, p.warm_ops);
            snap.on_events(&warm_events);
            let mut warm_hier = CacheHierarchy::new(cfg.hierarchy);
            probe::replay_hierarchy(&mut warm_hier, &warm_events);
            Some(Traced {
                warm_events,
                warm_hier,
                mem_ns_per_op: Vec::new(),
                last: None,
            })
        } else {
            snap_wl.run(p.warm_ops, &mut snap);
            None
        };
        let snap_counters = Counters::of(&snap.report());

        // The warm-up repetition.
        let mut mem = snap.fork();
        snap_wl.fork_box().run(p.rep_ops, &mut mem);
        let report = mem.report();
        let star = Counters::of(&report).since(snap_counters);

        // WB over the same segment, for the simulated ratios.
        let mut wb = SecureMemory::new(SchemeKind::WriteBack, cfg.clone());
        let mut wb_wl = WorkloadKind::Ycsb.instantiate(seed);
        wb_wl.run(p.warm_ops, &mut wb);
        let base = Counters::of(&wb.report());
        wb_wl.run(p.rep_ops, &mut wb);
        let wb = Counters::of(&wb.report()).since(base);

        // Crash at the end of the segment (full metadata cache).
        let mut image = mem.crash();
        let recovery_us = match recover(&mut image) {
            Ok(rec) => {
                chk.check(rec.correct, || "ycsb/star recovery is incorrect".into());
                rec.recovery_time_ns as f64 / 1e3
            }
            Err(e) => {
                chk.check(false, || format!("ycsb/star recovery refused: {e}"));
                f64::NAN
            }
        };
        Ycsb {
            seed,
            p,
            cfg,
            snap,
            snap_wl,
            reference: vec![report.to_json()],
            sim: Sim {
                write_ratio: star.total_writes() as f64 / wb.total_writes() as f64,
                ipc_ratio: star.ipc() / wb.ipc(),
                recovery_us,
            },
            traced,
        }
    }

    fn reference(&self) -> &[String] {
        &self.reference
    }

    fn sim(&self) -> Sim {
        self.sim
    }

    fn rep(&mut self, chk: &mut Checker) -> Work {
        let mut mem = self.snap.fork();
        self.snap_wl.fork_box().run(self.p.rep_ops, &mut mem);
        self.check_rep(chk, &mem.report().to_json());
        self.work()
    }

    fn rep_traced(&mut self, t: &mut Tracer, chk: &mut Checker) -> (Work, Layers) {
        let ops = self.p.rep_ops as u64;
        let mut mem = t.span("engine.fork", |_| self.snap.fork());
        let mut wl = self.snap_wl.fork_box();
        let (events, gen_ns) =
            t.timed("workloads.gen", |_| probe::record(&mut *wl, self.p.rep_ops));
        let traced = self
            .traced
            .as_mut()
            .expect("traced run has a traced set-up");
        let mut h = traced.warm_hier.clone();
        let ((), mem_ns) = t.timed("mem.access", |_| probe::replay_hierarchy(&mut h, &events));
        t.span(engine_span(SchemeKind::Star), |_| mem.on_events(&events));
        let bytes = mem.report().to_json();

        let mut mem_acc = MemAcc {
            gen_ns,
            gen_ops: ops,
            ..MemAcc::default()
        };
        let stats = hierarchy_since(h.stats(), traced.warm_hier.stats());
        mem_acc.add_replay(mem_ns, ops, events.len() as u64, stats);
        let mut out = Layers::new();
        mem_acc.layers(&mut out);
        traced.mem_ns_per_op.push(mem_acc.mem_ns_per_op());
        traced.last = Some(events);
        self.check_rep(chk, &bytes);
        (self.work(), out)
    }

    fn probes(&mut self, t: &mut Tracer, chk: &mut Checker) -> Layers {
        let traced = self
            .traced
            .as_mut()
            .expect("traced run has a traced set-up");
        let events = traced.last.take().expect("a traced repetition ran");
        let stream = Stream {
            warm: &traced.warm_events,
            events: &events,
            ops: self.p.rep_ops as u64,
            cfg: &self.cfg,
        };
        let mut out = Layers::new();
        // Every scheme replays the same segment from the same warmed
        // state, so the per-scheme costs compare. (The traced
        // repetition's own STAR span also pays the snapshot fork's
        // copy-on-write, which fresh engines do not.)
        let mut engines = EngineAcc::default();
        for scheme in SCHEMES {
            let (mem, counters, ns) =
                stream.engine(t, engine_span(scheme), scheme, &self.cfg, false);
            engines.add(scheme, ns, stream.ops, &counters);
            if scheme == SchemeKind::Star {
                engines.add_star_dirty(mem.report().dirty_fraction());
            }
        }
        engines.engine_layers(&SCHEMES, median(&traced.mem_ns_per_op), &mut out);
        engines.nvm_layers(&mut out);
        probe::bitmap_table2(t, &[stream], &mut out);
        probe::nvm_writes(t, &[stream], &mut out);
        probe::crypto(t, self.p.crypto_iters, &mut out);
        probe::triad(t, self.p.triad_ops, &mut out);
        let specs = [SchemeKind::Star, SchemeKind::Anubis].map(|scheme| CaptureSpec {
            scheme,
            kind: WorkloadKind::Ycsb,
            seed: self.seed,
            ops: self.p.warm_ops + self.p.rep_ops,
            cfg: self.cfg.clone(),
            cases: self.p.capture_cases,
        });
        probe::recovery(t, &specs, chk, &mut out);
        out
    }
}
