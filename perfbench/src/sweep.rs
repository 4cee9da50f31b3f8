//! `crash-sweep`: fork-strategy crash sweeps (`CrashExplorer::explore`)
//! of STAR and Anubis under crash-only faults, at sampled persist points
//! of an array run long enough to fill the paper's 512 KB metadata cache
//! (the Fig. 14a regime). Recovery, machine forks and SHA-256 dominate;
//! the cache hierarchy runs only in the capture pass.
//!
//! Every case must come back `Recovered`, and every repetition must
//! reproduce the warm-up sweep's report bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use star_core::{SchemeKind, SecureMemConfig, SecureMemory};
use star_faultsim::{CrashExplorer, ExploreReport, Outcome};
use star_mem::{CacheHierarchy, TraceSink};
use star_workloads::{Workload, WorkloadKind};

use crate::probe::{
    self, engine_span, CaptureSpec, Counters, EngineAcc, MemAcc, Stream, SAMPLE_SEED, SCHEMES,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Bench, Checker, Layers, Scale, Sim, Work};

/// The swept workload kind.
pub const KIND: WorkloadKind = WorkloadKind::Array;
/// The swept schemes.
pub const SWEPT: [SchemeKind; 2] = [SchemeKind::Star, SchemeKind::Anubis];

/// Input sizes of crash-sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepParams {
    /// Operations in the swept run.
    pub ops: usize,
    /// Sampled crash points per scheme.
    pub cases: usize,
    /// Calls per batch in the crypto probe.
    pub crypto_iters: u64,
    /// Operations of Triad's synthetic cell.
    pub triad_ops: usize,
}

impl SweepParams {
    /// The sizes for `scale`.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                ops: 12_000,
                cases: 32,
                crypto_iters: 200_000,
                triad_ops: 2_000,
            },
            Scale::Tiny => Self {
                ops: 200,
                cases: 3,
                crypto_iters: 2_000,
                triad_ops: 60,
            },
        }
    }
}

/// The swept engine configuration: Table I (512 KB metadata cache, 16
/// ADR bitmap lines) over a data region covering the workload heap.
pub fn sweep_config() -> SecureMemConfig {
    SecureMemConfig::builder()
        .data_lines(star_workloads::micro::HEAP_BASE + star_workloads::micro::HEAP_LINES)
        .build()
        .expect("the heap-sized Table I configuration is consistent")
}

/// A workload that counts the operations the explorer steps.
struct Counted {
    inner: Box<dyn Workload>,
    steps: Arc<AtomicU64>,
}

impl Workload for Counted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn step(&mut self, sink: &mut dyn TraceSink) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.step(sink);
    }

    fn fork_box(&self) -> Box<dyn Workload> {
        Box::new(Counted {
            inner: self.inner.fork_box(),
            steps: Arc::clone(&self.steps),
        })
    }
}

/// crash-sweep's set-up state.
#[derive(Debug)]
pub struct Sweep {
    seed: u64,
    p: SweepParams,
    cfg: SecureMemConfig,
    reference: Vec<String>,
    sim: Sim,
}

fn explore_span(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Star => "faultsim.explore.star",
        _ => "faultsim.explore.anubis",
    }
}

impl Sweep {
    /// One sweep of `scheme`; `steps` counts the operations stepped.
    fn explore(&self, scheme: SchemeKind, steps: &Arc<AtomicU64>) -> ExploreReport {
        let seed = self.seed;
        let steps = Arc::clone(steps);
        CrashExplorer::with_workload_factory(
            scheme,
            self.cfg.clone(),
            KIND.label(),
            self.p.ops,
            Arc::new(move || {
                Box::new(Counted {
                    inner: KIND.instantiate(seed),
                    steps: Arc::clone(&steps),
                }) as Box<dyn Workload>
            }),
        )
        .with_max_cases(self.p.cases)
        .with_sample_seed(SAMPLE_SEED)
        .explore()
    }

    /// Checks a sweep against the warm-up's bytes and every case's
    /// outcome; returns the cases adjudicated.
    fn check(&self, chk: &mut Checker, i: usize, report: &ExploreReport) -> u64 {
        for case in &report.cases {
            chk.check(case.outcome == Outcome::Recovered, || {
                format!(
                    "{:?} crash at point {} was {}: {}",
                    report.scheme, case.crash_at, case.outcome, case.detail
                )
            });
        }
        if let Some(reference) = self.reference.get(i) {
            chk.check(*reference == report.to_json(), || {
                format!("{:?} sweep differs from its warm-up", report.scheme)
            });
        }
        report.cases.len() as u64
    }
}

/// STAR and WB live runs of the swept workload: the simulated write and
/// IPC ratios.
fn live_ratios(seed: u64, ops: usize, cfg: &SecureMemConfig) -> (f64, f64) {
    let run = |scheme| {
        let mut mem = SecureMemory::new(scheme, cfg.clone());
        KIND.instantiate(seed).run(ops, &mut mem);
        Counters::of(&mem.report())
    };
    let star = run(SchemeKind::Star);
    let wb = run(SchemeKind::WriteBack);
    (
        star.total_writes() as f64 / wb.total_writes() as f64,
        star.ipc() / wb.ipc(),
    )
}

impl Bench for Sweep {
    fn setup(seed: u64, scale: Scale, _traced: bool, chk: &mut Checker) -> Self {
        let p = SweepParams::of(scale);
        let cfg = sweep_config();
        let (write_ratio, ipc_ratio) = live_ratios(seed, p.ops, &cfg);
        let mut sweep = Sweep {
            seed,
            p,
            cfg,
            reference: Vec::new(),
            sim: Sim {
                write_ratio,
                ipc_ratio,
                recovery_us: 0.0,
            },
        };
        let steps = Arc::new(AtomicU64::new(0));
        let mut star_recovery_us = Vec::new();
        for (i, scheme) in SWEPT.into_iter().enumerate() {
            let report = sweep.explore(scheme, &steps);
            sweep.check(chk, i, &report);
            if scheme == SchemeKind::Star {
                star_recovery_us
                    .extend(report.cases.iter().map(|c| c.recovery_time_ns as f64 / 1e3));
            }
            sweep.reference.push(report.to_json());
        }
        sweep.sim.recovery_us = median(&star_recovery_us);
        sweep
    }

    fn reference(&self) -> &[String] {
        &self.reference
    }

    fn sim(&self) -> Sim {
        self.sim
    }

    fn rep(&mut self, chk: &mut Checker) -> Work {
        let steps = Arc::new(AtomicU64::new(0));
        let mut cases = 0;
        for (i, scheme) in SWEPT.into_iter().enumerate() {
            let report = self.explore(scheme, &steps);
            cases += self.check(chk, i, &report);
        }
        Work {
            ops: steps.load(Ordering::Relaxed),
            cases,
        }
    }

    fn rep_traced(&mut self, t: &mut Tracer, chk: &mut Checker) -> (Work, Layers) {
        let steps = Arc::new(AtomicU64::new(0));
        let mut cases = 0;
        for (i, scheme) in SWEPT.into_iter().enumerate() {
            let report = t.span(explore_span(scheme), |_| self.explore(scheme, &steps));
            cases += self.check(chk, i, &report);
        }
        let work = Work {
            ops: steps.load(Ordering::Relaxed),
            cases,
        };
        (work, Layers::new())
    }

    fn probes(&mut self, t: &mut Tracer, chk: &mut Checker) -> Layers {
        let ops = self.p.ops as u64;
        let (events, gen_ns) = t.timed("workloads.gen", |_| {
            probe::record(&mut *KIND.instantiate(self.seed), self.p.ops)
        });
        let mut h = CacheHierarchy::new(self.cfg.hierarchy);
        let ((), mem_ns) = t.timed("mem.access", |_| probe::replay_hierarchy(&mut h, &events));
        let mut mem_acc = MemAcc {
            gen_ns,
            gen_ops: ops,
            ..MemAcc::default()
        };
        mem_acc.add_replay(mem_ns, ops, events.len() as u64, h.stats());
        let stream = Stream {
            warm: &[],
            events: &events,
            ops,
            cfg: &self.cfg,
        };
        let mut engines = EngineAcc::default();
        for scheme in SCHEMES {
            let (mem, counters, ns) =
                stream.engine(t, engine_span(scheme), scheme, &self.cfg, false);
            engines.add(scheme, ns, ops, &counters);
            if scheme == SchemeKind::Star {
                engines.add_star_dirty(mem.report().dirty_fraction());
            }
        }
        let mut out = Layers::new();
        mem_acc.layers(&mut out);
        engines.engine_layers(&SCHEMES, mem_acc.mem_ns_per_op(), &mut out);
        engines.nvm_layers(&mut out);
        probe::bitmap_table2(t, &[stream], &mut out);
        probe::nvm_writes(t, &[stream], &mut out);
        probe::crypto(t, self.p.crypto_iters, &mut out);
        probe::triad(t, self.p.triad_ops, &mut out);
        let specs = SWEPT.map(|scheme| CaptureSpec {
            scheme,
            kind: KIND,
            seed: self.seed,
            ops: self.p.ops,
            cfg: self.cfg.clone(),
            cases: self.p.cases,
        });
        probe::recovery(t, &specs, chk, &mut out);
        out
    }
}
