//! Model-based property test for the paged copy-on-write [`LineStore`].
//!
//! Drives seeded random sequences of write / read / fork / clone-drop
//! operations against a fleet of store instances, each paired with a
//! naive `HashMap<u64, Line>` reference model. The store's paging
//! (64-line frames with residency bitmaps) and page sharing between
//! forks are implementation detail the model knows nothing about — any
//! divergence in observable behaviour fails the test. The fork steps
//! also pin the sharing contract: a fresh fork shares every page, a
//! write unshares only its own page on its own side, and forks without
//! writes add no pages. The same schedules drive [`WearTracker`], whose
//! counter pages sit behind the same copy-on-write page map, against a
//! per-instance `HashMap<u64, u64>` of write counts.

use star_nvm::{Line, LineAddr, LineStore, WearSummary, WearTracker};
use std::collections::{BTreeMap, HashMap};

/// SplitMix64: deterministic, dependency-free test RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Address pool mixing dense low lines (many lines per page frame),
/// page-aligned strides (one line per frame), and far-apart sparse lines
/// (16 GB geometry), so both the packed and sparse paths get traffic.
fn pick_addr(rng: &mut Rng) -> LineAddr {
    let addr = match rng.below(4) {
        0 | 1 => rng.below(256),                    // dense: shared frames
        2 => rng.below(32) * 64,                    // page-aligned stride
        _ => rng.below(64) * 4_096_919 + (1 << 28), // sparse and far
    };
    LineAddr::new(addr)
}

/// Lines per store page (the store maps `addr >> 6` to one frame).
const PAGE_LINES: u64 = 64;

/// One store instance plus its oracle.
#[derive(Clone)]
struct Pair {
    store: LineStore,
    model: HashMap<u64, Line>,
}

impl Pair {
    /// Writes `line` at `addr` on both the store and the model.
    fn write(&mut self, addr: LineAddr, line: Line) {
        self.store.write(addr, line);
        self.model.insert(addr.index(), line);
    }

    /// Written lines in the page holding `addr`, per the model.
    fn lines_in_page_of(&self, addr: LineAddr) -> usize {
        let page = addr.index() / PAGE_LINES;
        self.model
            .keys()
            .filter(|&&a| a / PAGE_LINES == page)
            .count()
    }

    fn check_against_model(&self) {
        // Footprint counts every line ever written, zero overwrites
        // included.
        assert_eq!(
            self.store.footprint_lines(),
            self.model.len(),
            "footprint must match the set of written addresses"
        );
        // Iteration yields exactly the model's content (newest wins).
        let mut seen: HashMap<u64, Line> = HashMap::new();
        for (addr, line) in self.store.iter() {
            assert!(
                seen.insert(addr.index(), line).is_none(),
                "iter yielded line {addr:x} twice"
            );
        }
        assert_eq!(seen.len(), self.model.len());
        for (&addr, line) in &self.model {
            assert_eq!(seen.get(&addr), Some(line), "iter content at {addr:#x}");
        }
    }
}

fn random_line(rng: &mut Rng) -> Line {
    if rng.below(8) == 0 {
        Line::ZERO
    } else {
        Line::filled((rng.next() & 0xff) as u8)
    }
}

fn run_schedule(seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let mut pairs = vec![Pair {
        store: LineStore::new(),
        model: HashMap::new(),
    }];

    for step in 0..ops {
        let which = rng.below(pairs.len() as u64) as usize;
        match rng.below(100) {
            // Write: random content, sometimes an explicit zero line
            // (which must replace older non-zero content).
            0..=44 => {
                let addr = pick_addr(&mut rng);
                let line = random_line(&mut rng);
                pairs[which].write(addr, line);
            }
            // Read: written lines return their newest value, everything
            // else reads zero.
            45..=79 => {
                let addr = pick_addr(&mut rng);
                let p = &pairs[which];
                let expect = p.model.get(&addr.index()).copied().unwrap_or(Line::ZERO);
                assert_eq!(p.store.read(addr), expect, "read {addr:#x} at step {step}");
            }
            // Fork, then write on one side: a fresh fork shares every
            // page by reference, and the write unshares exactly the
            // page it lands in, on the side that wrote.
            80..=91 => {
                let mut fork = pairs[which].clone();
                let footprint = fork.store.footprint_lines();
                assert_eq!(fork.store.shared_lines_with(&pairs[which].store), footprint);
                let addr = pick_addr(&mut rng);
                let line = random_line(&mut rng);
                let page_lines = pairs[which].lines_in_page_of(addr);
                let writer = if rng.below(2) == 0 {
                    &mut fork
                } else {
                    &mut pairs[which]
                };
                writer.write(addr, line);
                assert_eq!(
                    fork.store.shared_lines_with(&pairs[which].store),
                    footprint - page_lines,
                    "a write unshares only its own page (step {step})"
                );
                pairs.push(fork);
            }
            // Fork chain without writes: every generation shares the
            // whole footprint with every other, so no pages are added.
            92..=97 => {
                let p = &pairs[which];
                let child = p.clone();
                let grandchild = child.clone();
                let footprint = p.store.footprint_lines();
                assert_eq!(grandchild.store.shared_lines_with(&p.store), footprint);
                assert_eq!(child.store.shared_lines_with(&grandchild.store), footprint);
                assert_eq!(p.store.shared_lines_with(&grandchild.store), footprint);
                pairs.push(grandchild);
            }
            // Full sweep: footprint + iteration against the oracle.
            _ => pairs[which].check_against_model(),
        }
        // Keep the fleet bounded; dropping exercises Arc release.
        if pairs.len() > 6 {
            let victim = rng.below(pairs.len() as u64) as usize;
            pairs.swap_remove(victim);
        }
    }

    // Final exhaustive sweep over every surviving instance.
    for p in &pairs {
        p.check_against_model();
        for (&addr, line) in &p.model {
            assert_eq!(p.store.read(LineAddr::new(addr)), *line);
        }
    }
}

#[test]
fn random_schedules_match_hashmap_model() {
    for seed in [1, 0xDEAD_BEEF, 42_424_242] {
        run_schedule(seed, 6_000);
    }
}

#[test]
fn long_fork_chain_keeps_every_generation_intact() {
    // Fork after every write, keeping every generation alive, far past
    // any depth a layered store would have had to compact: each
    // generation must still read exactly its own snapshot.
    let mut rng = Rng(7);
    let mut head = Pair {
        store: LineStore::new(),
        model: HashMap::new(),
    };
    let mut generations = Vec::new();
    for _ in 0..200 {
        let addr = pick_addr(&mut rng);
        head.write(addr, Line::filled((rng.next() & 0xff) as u8));
        generations.push(head.clone());
    }
    for g in generations.iter().chain([&head]) {
        g.check_against_model();
        for (&addr, line) in &g.model {
            assert_eq!(g.store.read(LineAddr::new(addr)), *line);
        }
    }
}

/// One wear tracker plus its per-line write-count oracle.
#[derive(Clone)]
struct WearPair {
    wear: WearTracker,
    model: HashMap<u64, u64>,
}

impl WearPair {
    fn check_against_model(&self, rng: &mut Rng) {
        for _ in 0..8 {
            let addr = pick_addr(rng);
            let expect = self.model.get(&addr.index()).copied().unwrap_or(0);
            assert_eq!(self.wear.writes_to(addr), expect, "writes_to {addr:#x}");
        }
        assert_summary(self.wear.summary(), self.model.values().copied());
        assert_summary(
            self.wear.summary_of(|a| a.index() < 256),
            self.model.iter().filter(|(&a, _)| a < 256).map(|(_, &c)| c),
        );
        let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
        for &count in self.model.values() {
            *hist.entry(1 << (63 - count.leading_zeros())).or_insert(0) += 1;
        }
        assert_eq!(
            self.wear.log2_histogram(),
            hist.into_iter().collect::<Vec<_>>()
        );
    }
}

/// Checks a summary against the per-line counts it should cover.
fn assert_summary(s: WearSummary, counts: impl Iterator<Item = u64>) {
    let counts: Vec<u64> = counts.collect();
    let total: u64 = counts.iter().sum();
    let max = counts.iter().copied().max().unwrap_or(0);
    assert_eq!(s.lines_touched, counts.len());
    assert_eq!(s.total_writes, total);
    assert_eq!(s.max_writes, max);
    let mean = if counts.is_empty() {
        0.0
    } else {
        total as f64 / counts.len() as f64
    };
    assert_eq!(s.mean_writes, mean);
    assert_eq!(
        s.concentration,
        if mean == 0.0 { 0.0 } else { max as f64 / mean }
    );
}

fn run_wear_schedule(seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let mut pairs = vec![WearPair {
        wear: WearTracker::new(),
        model: HashMap::new(),
    }];
    for _ in 0..ops {
        let which = rng.below(pairs.len() as u64) as usize;
        match rng.below(100) {
            // Record: a burst of writes to one line, so counts spread
            // across several histogram buckets.
            0..=69 => {
                let addr = pick_addr(&mut rng);
                let p = &mut pairs[which];
                for _ in 0..=rng.below(4) {
                    p.wear.record(addr);
                    *p.model.entry(addr.index()).or_insert(0) += 1;
                }
            }
            // Fork: the copy starts with the same counts and then
            // records independently of its parent.
            70..=84 => {
                let fork = pairs[which].clone();
                pairs.push(fork);
                if pairs.len() > 6 {
                    let victim = rng.below(pairs.len() as u64) as usize;
                    pairs.swap_remove(victim);
                }
            }
            // Check every live instance against its model.
            _ => {
                for p in &pairs {
                    p.check_against_model(&mut rng);
                }
            }
        }
    }
    for p in &pairs {
        p.check_against_model(&mut rng);
    }
}

#[test]
fn wear_fork_schedules_match_hashmap_model() {
    for seed in [3, 0xC0FF_EE00, 77_777_777] {
        run_wear_schedule(seed, 3_000);
    }
}
