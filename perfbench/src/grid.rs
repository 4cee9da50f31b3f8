//! `grid`: the paper's figure grid — the 7 workload kinds × {wb, strict,
//! anubis, star} plus Triad's synthetic cell, fault-free and serial, each
//! cell on a fresh engine with the paper's Table I configuration. This is
//! what `figures` users wait for.
//!
//! A repetition runs every cell on the live path (`Workload::run` straight
//! into `SecureMemory`). The traced repetition records each cell's stream
//! and replays it into the engine, with one extra replay per kind through
//! a bare `CacheHierarchy` so the engine's self time can be separated from
//! the hierarchy it contains.

use star_core::{recover, SchemeKind, SecureMemConfig, SecureMemory};
use star_mem::{CacheHierarchy, TraceSink};
use star_workloads::WorkloadKind;

use crate::probe::{self, engine_span, CaptureSpec, Counters, EngineAcc, MemAcc, Stream, SCHEMES};
use crate::stats::{geomean, per};
use crate::trace::Tracer;
use crate::{Bench, Checker, Layers, Scale, Sim, Work};

/// Input sizes of the grid.
#[derive(Debug, Clone, Copy)]
pub struct GridParams {
    /// Operations per cell (Triad's cell too).
    pub ops: usize,
    /// Sampled crash points per (kind, scheme) in the recovery probe.
    pub capture_cases: usize,
    /// Calls per batch in the crypto probe.
    pub crypto_iters: u64,
}

impl GridParams {
    /// The sizes for `scale`.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                ops: 2_000,
                capture_cases: 4,
                crypto_iters: 200_000,
            },
            Scale::Tiny => Self {
                ops: 60,
                capture_cases: 2,
                crypto_iters: 2_000,
            },
        }
    }
}

/// The grid's set-up state.
#[derive(Debug)]
pub struct Grid {
    seed: u64,
    p: GridParams,
    cfg: SecureMemConfig,
    reference: Vec<String>,
    sim: Sim,
}

/// One cell on the live path.
fn cell(
    kind: WorkloadKind,
    scheme: SchemeKind,
    seed: u64,
    p: &GridParams,
    cfg: &SecureMemConfig,
) -> SecureMemory {
    let mut mem = SecureMemory::new(scheme, cfg.clone());
    let mut wl = kind.instantiate(seed);
    wl.run(p.ops, &mut mem);
    mem
}

fn cell_name(i: usize) -> String {
    match WorkloadKind::ALL.get(i / SCHEMES.len()) {
        Some(kind) => format!("{}/{}", kind.label(), SCHEMES[i % SCHEMES.len()].label()),
        None => "synthetic/triad".into(),
    }
}

impl Grid {
    fn check_cell(&self, chk: &mut Checker, i: usize, bytes: &str) {
        chk.check(self.reference[i] == bytes, || {
            format!("grid cell {} differs from its warm-up", cell_name(i))
        });
    }

    fn work(&self) -> Work {
        let cells = WorkloadKind::ALL.len() * SCHEMES.len() + 1;
        Work {
            ops: (cells * self.p.ops) as u64,
            cases: cells as u64,
        }
    }
}

impl Bench for Grid {
    fn setup(seed: u64, scale: Scale, _traced: bool, chk: &mut Checker) -> Self {
        let p = GridParams::of(scale);
        let cfg = SecureMemConfig::default();
        let mut reference = Vec::new();
        let (mut writes, mut ipc, mut recovery_us) = (Vec::new(), Vec::new(), Vec::new());
        for kind in WorkloadKind::ALL {
            let mut wb = None;
            for scheme in SCHEMES {
                let mem = cell(kind, scheme, seed, &p, &cfg);
                let report = mem.report();
                reference.push(report.to_json());
                match scheme {
                    SchemeKind::WriteBack => wb = Some(report),
                    SchemeKind::Star => {
                        let wb = wb.as_ref().expect("WB runs before STAR");
                        writes.push(report.total_writes() as f64 / wb.total_writes() as f64);
                        ipc.push(report.ipc / wb.ipc);
                        let mut image = mem.crash();
                        match recover(&mut image) {
                            Ok(rec) => {
                                chk.check(rec.correct, || {
                                    format!("{kind}/star recovery is incorrect")
                                });
                                recovery_us.push(rec.recovery_time_ns as f64 / 1e3);
                            }
                            Err(e) => {
                                chk.check(false, || format!("{kind}/star recovery refused: {e}"))
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        let triad = probe::triad_cell(p.ops);
        reference.push(probe::triad_bytes(&triad));
        let (_, _, verified) = triad.crash_and_recover();
        chk.check(verified, || "Triad recovery failed verification".into());
        Grid {
            seed,
            p,
            cfg,
            reference,
            sim: Sim {
                write_ratio: geomean(&writes),
                ipc_ratio: geomean(&ipc),
                recovery_us: recovery_us.iter().sum::<f64>() / recovery_us.len() as f64,
            },
        }
    }

    fn reference(&self) -> &[String] {
        &self.reference
    }

    fn sim(&self) -> Sim {
        self.sim
    }

    fn rep(&mut self, chk: &mut Checker) -> Work {
        let mut i = 0;
        for kind in WorkloadKind::ALL {
            for scheme in SCHEMES {
                let bytes = cell(kind, scheme, self.seed, &self.p, &self.cfg)
                    .report()
                    .to_json();
                self.check_cell(chk, i, &bytes);
                i += 1;
            }
        }
        let bytes = probe::triad_bytes(&probe::triad_cell(self.p.ops));
        self.check_cell(chk, i, &bytes);
        self.work()
    }

    fn rep_traced(&mut self, t: &mut Tracer, chk: &mut Checker) -> (Work, Layers) {
        let ops = self.p.ops as u64;
        let mut mem_acc = MemAcc::default();
        let mut engines = EngineAcc::default();
        let mut i = 0;
        for kind in WorkloadKind::ALL {
            for scheme in SCHEMES {
                let (events, gen_ns) = t.timed("workloads.gen", |_| {
                    probe::record(&mut *kind.instantiate(self.seed), self.p.ops)
                });
                mem_acc.gen_ns += gen_ns;
                mem_acc.gen_ops += ops;
                if scheme == SchemeKind::WriteBack {
                    let mut h = CacheHierarchy::new(self.cfg.hierarchy);
                    let ((), ns) =
                        t.timed("mem.access", |_| probe::replay_hierarchy(&mut h, &events));
                    mem_acc.add_replay(ns, ops, events.len() as u64, h.stats());
                }
                let (mem, ns) = t.timed(engine_span(scheme), |_| {
                    let mut mem = SecureMemory::new(scheme, self.cfg.clone());
                    mem.on_events(&events);
                    mem
                });
                let report = mem.report();
                engines.add(scheme, ns, ops, &Counters::of(&report));
                if scheme == SchemeKind::Star {
                    engines.add_star_dirty(report.dirty_fraction());
                }
                self.check_cell(chk, i, &report.to_json());
                i += 1;
            }
        }
        let (triad, triad_ns) = t.timed("triad", |_| probe::triad_cell(self.p.ops));
        self.check_cell(chk, i, &probe::triad_bytes(&triad));

        let mut out = Layers::new();
        mem_acc.layers(&mut out);
        engines.engine_layers(&SCHEMES, mem_acc.mem_ns_per_op(), &mut out);
        engines.nvm_layers(&mut out);
        out.insert("triad.ns_per_op", per(triad_ns, ops as f64));
        (self.work(), out)
    }

    fn probes(&mut self, t: &mut Tracer, chk: &mut Checker) -> Layers {
        let recorded: Vec<_> = WorkloadKind::ALL
            .iter()
            .map(|kind| probe::record(&mut *kind.instantiate(self.seed), self.p.ops))
            .collect();
        let streams: Vec<Stream<'_>> = recorded
            .iter()
            .map(|events| Stream {
                warm: &[],
                events,
                ops: self.p.ops as u64,
                cfg: &self.cfg,
            })
            .collect();
        let mut out = Layers::new();
        probe::bitmap_table2(t, &streams, &mut out);
        probe::nvm_writes(t, &streams, &mut out);
        probe::crypto(t, self.p.crypto_iters, &mut out);
        let specs: Vec<CaptureSpec> = WorkloadKind::ALL
            .iter()
            .flat_map(|&kind| {
                [SchemeKind::Star, SchemeKind::Anubis].map(|scheme| CaptureSpec {
                    scheme,
                    kind,
                    seed: self.seed,
                    ops: self.p.ops,
                    cfg: self.cfg.clone(),
                    cases: self.p.capture_cases,
                })
            })
            .collect();
        probe::recovery(t, &specs, chk, &mut out);
        out
    }
}
