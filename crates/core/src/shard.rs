//! Address-sharded secure memory: a front-end that partitions the data
//! address space into N independent security-metadata domains.
//!
//! Each shard is a complete [`SecureMemory`] — its own counter tree,
//! metadata cache, ADR bitmap quota, shadow table and NVM device — so
//! shards never share mutable state and can crash, recover and be
//! driven concurrently without coordination. [`ShardedMemory`] owns the
//! routing: a global data line `g` belongs to shard
//! `g / lines_per_shard` at local address `g % lines_per_shard`
//! (contiguous range partitioning, the layout DESIGN.md §13 documents).
//!
//! Aggregation is the other half: [`ShardedMemory::merged_report`]
//! folds the per-shard [`RunReport`]s with
//! [`merge_reports`], which is commutative
//! and associative over shards — the property the star-shard runner's
//! byte-identity contract (any `--shards`/`--threads` grouping, same
//! bytes) rests on.
//!
//! ```
//! use star_core::shard::ShardedMemory;
//! use star_core::{SchemeKind, SecureMemConfig};
//!
//! let mut mem = ShardedMemory::new(SchemeKind::Star, 4, SecureMemConfig::small());
//! let lines = mem.total_data_lines();
//! for i in 0..200 {
//!     mem.write_data((i * 37) % lines, i);
//!     mem.persist_data((i * 37) % lines);
//! }
//! let merged = mem.merged_report();
//! assert_eq!(
//!     merged.total_writes(),
//!     mem.reports().iter().map(|r| r.total_writes()).sum::<u64>()
//! );
//! ```

use crate::config::{SchemeKind, SecureMemConfig};
use crate::engine::SecureMemory;
use crate::recovery::{recover, RecoveryError, RecoveryReport};
use crate::stats::{merge_reports, RunReport};
use star_mem::{MemEvent, TraceSink};

/// What a fork-based per-shard crash/recover cycle leaves behind: the
/// crashed shard's pre-crash run statistics (the rebooted engine starts
/// its counters cold) and the recovery report.
#[derive(Debug, Clone)]
pub struct ShardCrashOutcome {
    /// The crashed shard's report up to the crash point.
    pub pre_crash: RunReport,
    /// The recovery run over the crashed shard's image.
    pub recovery: RecoveryReport,
}

/// N independent [`SecureMemory`] domains behind one address space.
///
/// All shards run the same scheme and the same per-shard configuration;
/// the front-end routes data accesses by contiguous range, broadcasts
/// persist barriers (an `sfence` orders every domain), and charges
/// compute to the shard of the most recent routed access, so a
/// single-threaded event stream drives the sharded machine
/// deterministically.
#[derive(Debug, Clone)]
pub struct ShardedMemory {
    shards: Vec<SecureMemory>,
    lines_per_shard: u64,
    last_route: usize,
}

impl ShardedMemory {
    /// Builds `count` identical shards of `scheme`, each configured with
    /// `per_shard` (so the machine's total data capacity is
    /// `count × per_shard.data_lines`).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or `per_shard` is invalid.
    pub fn new(scheme: SchemeKind, count: usize, per_shard: SecureMemConfig) -> Self {
        assert!(count > 0, "a sharded memory needs at least one shard");
        let lines_per_shard = per_shard.data_lines;
        let shards = (0..count)
            .map(|_| SecureMemory::new(scheme, per_shard.clone()))
            .collect();
        Self {
            shards,
            lines_per_shard,
            last_route: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Data lines each shard owns.
    pub fn lines_per_shard(&self) -> u64 {
        self.lines_per_shard
    }

    /// Total data lines across all shards.
    pub fn total_data_lines(&self) -> u64 {
        self.lines_per_shard * self.shards.len() as u64
    }

    /// Routes a global data line to `(shard index, local line)`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is outside the sharded data region.
    pub fn route(&self, line: u64) -> (usize, u64) {
        assert!(
            line < self.total_data_lines(),
            "line {line} outside the sharded data region ({} lines)",
            self.total_data_lines()
        );
        (
            (line / self.lines_per_shard) as usize,
            line % self.lines_per_shard,
        )
    }

    /// The shards, in address order.
    pub fn shards(&self) -> &[SecureMemory] {
        &self.shards
    }

    /// One shard's engine.
    pub fn shard(&self, i: usize) -> &SecureMemory {
        &self.shards[i]
    }

    /// Mutable access to one shard's engine.
    pub fn shard_mut(&mut self, i: usize) -> &mut SecureMemory {
        &mut self.shards[i]
    }

    /// Program store of `version` into global data line `line`.
    pub fn write_data(&mut self, line: u64, version: u64) {
        let (s, local) = self.route(line);
        self.last_route = s;
        self.shards[s].write_data(local, version);
    }

    /// Persists global data line `line` (`clwb` semantics).
    pub fn persist_data(&mut self, line: u64) {
        let (s, local) = self.route(line);
        self.last_route = s;
        self.shards[s].persist_data(local);
    }

    /// Program load from global data line `line`.
    pub fn read_data(&mut self, line: u64) -> u64 {
        let (s, local) = self.route(line);
        self.last_route = s;
        self.shards[s].read_data(local)
    }

    /// Persist barrier: broadcast to every shard (a global `sfence`
    /// orders the persists of all domains).
    pub fn fence(&mut self) {
        for s in &mut self.shards {
            s.fence();
        }
    }

    /// Executes `count` compute instructions on the shard of the most
    /// recent routed access (shard 0 before any access) — a simple,
    /// deterministic attribution rule for single-stream drivers.
    pub fn work(&mut self, count: u64) {
        self.shards[self.last_route].work(count);
    }

    /// Latest simulated time across shards (each shard keeps its own
    /// device clock).
    pub fn now_ps(&self) -> u64 {
        self.shards.iter().map(|s| s.now_ps()).max().unwrap_or(0)
    }

    /// Per-shard run reports, in address order.
    pub fn reports(&self) -> Vec<RunReport> {
        self.shards.iter().map(|s| s.report()).collect()
    }

    /// The machine-wide report: the per-shard reports folded with
    /// [`merge_reports`].
    pub fn merged_report(&self) -> RunReport {
        merge_reports(&self.reports())
    }

    /// Crashes and recovers shard `i` in place, leaving every other
    /// shard untouched — the per-shard fault model sharding buys.
    ///
    /// The crash image is taken from a [`SecureMemory::fork`] of the
    /// shard (a copy-on-write snapshot sharing every NVM page),
    /// recovery runs on the image, and the shard reboots from it via
    /// [`SecureMemory::resume_from_image`]. The rebooted engine's
    /// counters start cold; the statistics accumulated before the crash
    /// come back in the returned [`ShardCrashOutcome::pre_crash`].
    ///
    /// # Errors
    ///
    /// Returns the [`RecoveryError`] if the shard's image fails to
    /// recover (tampered or inconsistent metadata).
    pub fn crash_recover_shard(&mut self, i: usize) -> Result<ShardCrashOutcome, RecoveryError> {
        let pre_crash = self.shards[i].report();
        let cfg = self.shards[i].config().clone();
        let mut image = self.shards[i].fork().crash();
        let recovery = recover(&mut image)?;
        self.shards[i] = SecureMemory::resume_from_image(&image, cfg);
        Ok(ShardCrashOutcome {
            pre_crash,
            recovery,
        })
    }

    /// Decomposes the front-end into its shard engines (the star-shard
    /// runner distributes them across workers and reassembles with
    /// [`ShardedMemory::from_shards`]).
    pub fn into_shards(self) -> Vec<SecureMemory> {
        self.shards
    }

    /// Reassembles a front-end from shard engines (inverse of
    /// [`ShardedMemory::into_shards`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards disagree on data-region
    /// size.
    pub fn from_shards(shards: Vec<SecureMemory>) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded memory needs at least one shard"
        );
        let lines_per_shard = shards[0].config().data_lines;
        assert!(
            shards
                .iter()
                .all(|s| s.config().data_lines == lines_per_shard),
            "all shards must own equally sized data regions"
        );
        Self {
            shards,
            lines_per_shard,
            last_route: 0,
        }
    }
}

impl TraceSink for ShardedMemory {
    fn on_event(&mut self, ev: MemEvent) {
        match ev {
            MemEvent::Read { line } => {
                self.read_data(line);
            }
            MemEvent::Write { line, version } => self.write_data(line, version),
            MemEvent::Clwb { line } => self.persist_data(line),
            MemEvent::Fence => self.fence(),
            MemEvent::Work { count } => self.work(count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sharded(count: usize) -> ShardedMemory {
        ShardedMemory::new(SchemeKind::Star, count, SecureMemConfig::small())
    }

    #[test]
    fn routing_is_contiguous_range_partitioning() {
        let m = small_sharded(4);
        let per = m.lines_per_shard();
        assert_eq!(m.route(0), (0, 0));
        assert_eq!(m.route(per - 1), (0, per - 1));
        assert_eq!(m.route(per), (1, 0));
        assert_eq!(m.route(3 * per + 7), (3, 7));
    }

    #[test]
    #[should_panic(expected = "outside the sharded data region")]
    fn routing_rejects_out_of_range_lines() {
        let m = small_sharded(2);
        m.route(m.total_data_lines());
    }

    /// Driving the front-end with global addresses must equal driving
    /// each shard engine directly with the corresponding local
    /// addresses — routing adds nothing and loses nothing.
    #[test]
    fn front_end_equals_direct_shard_drive() {
        let mut sharded = small_sharded(2);
        let per = sharded.lines_per_shard();
        let mut solo0 = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
        let mut solo1 = SecureMemory::new(SchemeKind::Star, SecureMemConfig::small());
        for i in 0..300u64 {
            let local = (i * 13) % per;
            let (global, solo) = if i % 2 == 0 {
                (local, &mut solo0)
            } else {
                (per + local, &mut solo1)
            };
            sharded.write_data(global, i);
            sharded.persist_data(global);
            solo.write_data(local, i);
            solo.persist_data(local);
        }
        sharded.fence();
        solo0.fence();
        solo1.fence();
        let reports = sharded.reports();
        assert_eq!(reports[0].to_json(), solo0.report().to_json());
        assert_eq!(reports[1].to_json(), solo1.report().to_json());
    }

    /// Reads round-trip through the routing: a value written via the
    /// front-end comes back via the front-end and via the owning shard.
    #[test]
    fn reads_round_trip_across_shards() {
        let mut m = small_sharded(3);
        let per = m.lines_per_shard();
        m.write_data(2 * per + 5, 77);
        m.persist_data(2 * per + 5);
        m.fence();
        assert_eq!(m.read_data(2 * per + 5), 77);
        assert_eq!(m.shard_mut(2).read_data(5), 77);
        assert_eq!(m.read_data(5), 0, "shard 0 never saw the write");
    }

    #[test]
    fn merged_report_sums_shard_traffic() {
        let mut m = small_sharded(4);
        let lines = m.total_data_lines();
        for i in 0..400u64 {
            m.write_data((i * 37) % lines, i);
            m.persist_data((i * 37) % lines);
        }
        m.fence();
        let merged = m.merged_report();
        let per: Vec<_> = m.reports();
        assert_eq!(
            merged.total_writes(),
            per.iter().map(|r| r.total_writes()).sum::<u64>()
        );
        assert_eq!(
            merged.instructions,
            per.iter().map(|r| r.instructions).sum::<u64>()
        );
        assert_eq!(
            merged.energy_pj(),
            per.iter().map(|r| r.energy_pj()).sum::<u64>()
        );
    }

    /// Merging is grouping-independent: fold all four at once, or fold
    /// two pairs and then the pair of pairs — same bytes.
    #[test]
    fn merge_is_associative_over_groupings() {
        let mut m = small_sharded(4);
        let lines = m.total_data_lines();
        for i in 0..500u64 {
            m.write_data((i * 101) % lines, i);
            m.persist_data((i * 101) % lines);
        }
        m.fence();
        let r = m.reports();
        let flat = merge_reports(&r);
        let left = merge_reports(&r[..2]);
        let right = merge_reports(&r[2..]);
        let paired = merge_reports(&[left, right]);
        assert_eq!(flat.to_json(), paired.to_json());
    }

    #[test]
    fn crashed_shard_recovers_and_survivors_are_untouched() {
        let mut m = small_sharded(3);
        let per = m.lines_per_shard();
        for i in 0..200u64 {
            for s in 0..3u64 {
                m.write_data(s * per + (i % 40), i);
                m.persist_data(s * per + (i % 40));
            }
        }
        m.fence();
        let survivor0 = m.shard(0).report().to_json();
        let survivor2 = m.shard(2).report().to_json();
        let outcome = m.crash_recover_shard(1).expect("clean recovery");
        assert!(outcome.recovery.verified && outcome.recovery.correct);
        assert!(outcome.pre_crash.total_writes() > 0);
        assert_eq!(m.shard(0).report().to_json(), survivor0);
        assert_eq!(m.shard(2).report().to_json(), survivor2);
        // The rebooted shard serves reads of its recovered data.
        assert_eq!(m.read_data(per + 39), 199);
    }

    #[test]
    fn split_and_reassemble_round_trips() {
        let mut m = small_sharded(2);
        m.write_data(3, 9);
        m.persist_data(3);
        m.fence();
        let json = m.merged_report().to_json();
        let m2 = ShardedMemory::from_shards(m.into_shards());
        assert_eq!(m2.merged_report().to_json(), json);
    }
}
