//! Benchmarks of exhaustive crash-schedule sweeps: the fork strategy
//! (execute once, fork the machine at each persist point) against the
//! from-scratch replay oracle. The gated BENCH_PR.json figure comes
//! from `star-bench baseline --sweep-bench`; this bench is the
//! interactive view of the same A/B, on both a persist-every-op
//! workload (array) and the low-persist-rate checkpoint workload the
//! gate runs (ckpt). The `linestore` group times the two NVM-state
//! operations a sweep leans on: a line read on a store with a long fork
//! history, and a device fork.

use star_bench::microbench::{BenchmarkId, Criterion};
use star_bench::sweep_explorer;
use star_core::SchemeKind;
use star_faultsim::{CrashExplorer, ExploreStrategy};
use star_nvm::{Line, LineAddr, NvmConfig, NvmDevice, WriteCause};
use star_workloads::WorkloadKind;
use std::hint::black_box;

const STRATEGIES: [(&str, ExploreStrategy); 2] = [
    ("fork", ExploreStrategy::Fork),
    ("replay", ExploreStrategy::Replay),
];

fn bench_array_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("crash_sweep/exhaustive_80op_star_array");
    group.sample_size(10);
    for (label, strategy) in STRATEGIES {
        let explorer = CrashExplorer::new(SchemeKind::Star, WorkloadKind::Array, 80, 42)
            .all_points()
            .with_strategy(strategy);
        group.bench_with_input(BenchmarkId::from_parameter(label), &explorer, |b, e| {
            b.iter(|| black_box(e.explore()))
        });
    }
    group.finish();
}

fn bench_ckpt_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("crash_sweep/exhaustive_400op_star_ckpt");
    group.sample_size(10);
    for (label, strategy) in STRATEGIES {
        let explorer = sweep_explorer(400, 42).with_strategy(strategy);
        group.bench_with_input(BenchmarkId::from_parameter(label), &explorer, |b, e| {
            b.iter(|| black_box(e.explore()))
        });
    }
    group.finish();
}

/// Resident pages in the `linestore` benches: about what a crash-sweep
/// engine holds once its 512 KB metadata cache is full.
const PAGES: u64 = 4096;

/// A device with `PAGES` resident 64-line pages, 8 lines written in
/// each, forked `forks` times with a round of writes before each fork.
fn device_with_history(forks: u64) -> NvmDevice {
    let mut nvm = NvmDevice::new(NvmConfig::default());
    let mut now = 0;
    for page in 0..PAGES {
        for slot in 0..8 {
            let addr = LineAddr::new(page * 64 + slot * 8);
            nvm.write(addr, Line::filled(slot as u8), WriteCause::Data, now);
            now += 1_000;
        }
    }
    for round in 0..forks {
        for page in (round..PAGES).step_by(64) {
            let addr = LineAddr::new(page * 64 + 1);
            nvm.write(addr, Line::filled(round as u8), WriteCause::Data, now);
            now += 1_000;
        }
        drop(nvm.fork());
    }
    nvm
}

fn bench_linestore(c: &mut Criterion) {
    let mut group = c.benchmark_group("linestore");
    for forks in [0u64, 64] {
        let nvm = device_with_history(forks);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("read/forked_{forks}")),
            nvm.store(),
            |b, store| {
                let mut i = 0u64;
                b.iter(|| {
                    // Stride over every page, hitting written and
                    // unwritten slots alike.
                    i = i.wrapping_add(0x9E37_79B9);
                    store.read(black_box(LineAddr::new(i % (PAGES * 64))))
                })
            },
        );
    }
    let mut nvm = device_with_history(0);
    group.sample_size(20);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("nvm_fork/{PAGES}_pages")),
        &(),
        |b, _| b.iter(|| nvm.fork()),
    );
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_linestore(&mut c);
    bench_array_sweep(&mut c);
    bench_ckpt_sweep(&mut c);
    c.report();
}
