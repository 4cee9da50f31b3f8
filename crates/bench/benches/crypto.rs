//! Micro-benchmarks for the crypto substrate: these set the
//! per-access costs the secure-memory model abstracts away.

use star_bench::microbench::Criterion;
use star_crypto::mac::{MacInput, MacKey};
use star_crypto::{one_time_pad, sha256, Aes128, Sha256};
use star_metadata::SitMac;
use std::hint::black_box;

fn bench_aes_block(c: &mut Criterion) {
    let aes = Aes128::from_seed(1);
    let pt = [7u8; 16];
    c.bench_function("aes128/encrypt_block", |b| {
        b.iter(|| aes.encrypt_block(black_box(&pt)))
    });
}

fn bench_otp(c: &mut Criterion) {
    let aes = Aes128::from_seed(1);
    c.bench_function("ctr/one_time_pad_64B", |b| {
        b.iter(|| one_time_pad(black_box(&aes), black_box(0xdead), black_box(42)))
    });
}

fn bench_node_mac(c: &mut Criterion) {
    let key = MacKey::from_seed(2);
    let counters = [9u64; 8];
    c.bench_function("mac/node_mac54", |b| {
        b.iter(|| {
            MacInput::new()
                .u64(black_box(0x1000))
                .u64s(black_box(&counters))
                .u64(black_box(17))
                .mac54(&key)
        })
    });
}

/// The production MAC path: the engine's fixed-layout node MAC.
fn bench_sit_node_mac(c: &mut Criterion) {
    let mac = SitMac::from_seed(2);
    let counters = [9u64; 8];
    c.bench_function("mac/sit_node_mac", |b| {
        b.iter(|| {
            mac.node_mac(
                black_box(0x1000),
                black_box(&counters),
                black_box(17),
                black_box(5),
            )
        })
    });
}

fn bench_sha256(c: &mut Criterion) {
    let data = [0xabu8; 64];
    c.bench_function("sha256/64B", |b| {
        b.iter(|| Sha256::digest(black_box(&data)))
    });
    // One compression on each path: `compress` takes SHA-NI where the
    // host has it, `compress_soft` is the portable fallback.
    let mut state = [0x6a09_e667u32; 8];
    c.bench_function("sha256/compress", |b| {
        b.iter(|| sha256::compress(black_box(&mut state), black_box(&data)))
    });
    c.bench_function("sha256/compress_soft", |b| {
        b.iter(|| sha256::compress_soft(black_box(&mut state), black_box(&data)))
    });
}

fn main() {
    let mut c = Criterion::default();
    bench_aes_block(&mut c);
    bench_otp(&mut c);
    bench_node_mac(&mut c);
    bench_sit_node_mac(&mut c);
    bench_sha256(&mut c);
    c.report();
}
