//! `Machine` against a deliberately naive reference model.
//!
//! The reference keeps one `Vec` of tags per set in MRU-first order,
//! reorders it by hand on every access, and walks every region one line
//! at a time: no flat tag array, no bulk sweeps, no replay memo. The
//! property drives both with the same random operation tape over random
//! geometries (direct-mapped with power-of-two and other set counts, 2-
//! and 4-way, 16/32/64-byte lines, with and without TLBs) and compares
//! every return value and the full `MachineStats` after every operation.
//! The memo-on vs memo-off tests in `machine.rs` share the production
//! tag-array code on both sides, so only a model like this one can catch
//! a bug in it (say, an off-by-one where a sweep wraps the tag array).

use cachesim::{
    AccessKind, CacheConfig, CacheStats, Machine, MachineConfig, MachineStats, Region, TlbConfig,
    TlbStats,
};
use proptest::prelude::*;

/// An LRU set-associative tag store: `sets[s]` is MRU-first.
struct RefCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_size: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            ways: cfg.associativity as usize,
            line_size: cfg.line_size,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, line: u64, kind: AccessKind) -> bool {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line % n) as usize];
        let hit = match set.iter().position(|&t| t == line) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => {
                if set.len() == self.ways {
                    set.pop();
                }
                false
            }
        };
        set.insert(0, line);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            match kind {
                AccessKind::InstrFetch => self.stats.fetch_misses += 1,
                AccessKind::Read => self.stats.read_misses += 1,
                AccessKind::Write => self.stats.write_misses += 1,
            }
        }
        hit
    }
}

/// A fully-associative LRU TLB: the one-set case of the same store,
/// with pages for lines.
struct RefTlb {
    pages: Vec<u64>,
    cfg: TlbConfig,
    stats: TlbStats,
}

impl RefTlb {
    /// Translates `addr`; returns the stall cycles it cost.
    fn access(&mut self, addr: u64) -> u64 {
        let page = addr / self.cfg.page_size;
        let hit = match self.pages.iter().position(|&p| p == page) {
            Some(pos) => {
                self.pages.remove(pos);
                true
            }
            None => {
                if self.pages.len() == self.cfg.entries as usize {
                    self.pages.pop();
                }
                false
            }
        };
        self.pages.insert(0, page);
        if hit {
            self.stats.hits += 1;
            0
        } else {
            self.stats.misses += 1;
            self.cfg.refill_penalty
        }
    }

    /// Translates every page of a non-empty region once.
    fn access_region(&mut self, r: Region) -> u64 {
        let ps = self.cfg.page_size;
        (r.base / ps..=(r.base + r.len - 1) / ps)
            .map(|p| self.access(p * ps))
            .sum()
    }
}

/// Every `line`-aligned line number the non-empty region touches.
fn lines_of(r: Region, line: u64) -> std::ops::RangeInclusive<u64> {
    r.base / line..=(r.base + r.len - 1) / line
}

struct RefMachine {
    cfg: MachineConfig,
    icache: RefCache,
    dcache: RefCache,
    itlb: Option<RefTlb>,
    dtlb: Option<RefTlb>,
    stall_cycles: u64,
}

impl RefMachine {
    fn new(cfg: MachineConfig) -> Self {
        let tlb = |c: Option<TlbConfig>| {
            c.map(|cfg| RefTlb {
                pages: Vec::new(),
                cfg,
                stats: TlbStats::default(),
            })
        };
        RefMachine {
            icache: RefCache::new(cfg.icache),
            dcache: RefCache::new(cfg.dcache.expect("split caches")),
            itlb: tlb(cfg.itlb),
            dtlb: tlb(cfg.dtlb),
            stall_cycles: 0,
            cfg,
        }
    }

    /// One I-cache line fetch; returns whether it missed.
    fn fetch_line(&mut self, line: u64) -> bool {
        let miss = !self.icache.access(line, AccessKind::InstrFetch);
        if miss {
            self.stall_cycles += self.cfg.read_miss_penalty;
        }
        miss
    }

    /// `Machine::fetch_code_footprint`: per line, ITLB then I-cache.
    fn fetch_lines(&mut self, lines: &[u64]) -> u64 {
        let mut misses = 0;
        for &line in lines {
            if let Some(t) = &mut self.itlb {
                self.stall_cycles += t.access(line * self.icache.line_size);
            }
            misses += u64::from(self.fetch_line(line));
        }
        misses
    }

    /// `Machine::fetch_code`: the ITLB once per page, then every line.
    fn fetch_code(&mut self, r: Region) -> u64 {
        if r.len == 0 {
            return 0;
        }
        if let Some(t) = &mut self.itlb {
            self.stall_cycles += t.access_region(r);
        }
        lines_of(r, self.icache.line_size)
            .map(|l| u64::from(self.fetch_line(l)))
            .sum()
    }

    /// `Machine::read_data` / `write_data`.
    fn data(&mut self, r: Region, kind: AccessKind) -> u64 {
        if r.len == 0 {
            return 0;
        }
        if let Some(t) = &mut self.dtlb {
            self.stall_cycles += t.access_region(r);
        }
        let penalty = match kind {
            AccessKind::Write => self.cfg.write_miss_penalty,
            _ => self.cfg.read_miss_penalty,
        };
        let mut misses = 0;
        for line in lines_of(r, self.dcache.line_size) {
            if !self.dcache.access(line, kind) {
                misses += 1;
                self.stall_cycles += penalty;
            }
        }
        misses
    }

    fn stats(&self) -> MachineStats {
        let tlb = |t: &Option<RefTlb>| t.as_ref().map(|t| t.stats).unwrap_or_default();
        MachineStats {
            icache: self.icache.stats,
            dcache: self.dcache.stats,
            instr_cycles: 0,
            stall_cycles: self.stall_cycles,
            itlb: tlb(&self.itlb),
            dtlb: tlb(&self.dtlb),
            l2: CacheStats::default(),
        }
    }
}

/// splitmix64: every case's geometry and tape come from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A random geometry: the set count is a power of two or not, 1, 2 or
/// 4 ways, 16-, 32- or 64-byte lines.
fn geometry(rng: &mut Rng) -> CacheConfig {
    let sets = rng.pick(&[1u64, 4, 16, 64, 128, 256, 3, 5, 12, 48, 100]);
    let line_size = rng.pick(&[16u64, 32, 64]);
    let associativity = rng.pick(&[1u32, 1, 2, 4]);
    CacheConfig {
        size_bytes: sets * line_size * u64::from(associativity),
        line_size,
        associativity,
    }
}

fn tlb(rng: &mut Rng) -> Option<TlbConfig> {
    (rng.below(3) == 0).then(|| TlbConfig {
        entries: 1 + rng.below(12) as u32,
        page_size: rng.pick(&[256u64, 1024, 8192]),
        refill_penalty: 40,
    })
}

/// A region shaped to hit a sweep edge of `cfg`: unaligned and short,
/// wrapping the tag array's end, exactly cache-sized, longer than the
/// cache, or empty.
fn region(rng: &mut Rng, cfg: CacheConfig) -> Region {
    let (line, size) = (cfg.line_size, cfg.size_bytes);
    let base = rng.below(4 * size);
    match rng.below(6) {
        0 => Region::new(base, 1 + rng.below(3 * line)),
        1 => {
            // Starts up to four lines before a multiple of the cache size.
            let end = (4 + rng.below(4)) * size;
            let start = end - line * (1 + rng.below(4)) + rng.below(line);
            Region::new(start, 1 + rng.below(size))
        }
        2 if rng.below(2) == 0 => Region::new(base - base % line, size),
        2 => Region::new(base, size),
        3 => Region::new(base, size + 1 + rng.below(2 * size)),
        4 => Region::new(base, 0),
        _ => Region::new(base, 1 + rng.below(size)),
    }
}

/// Line lists for the memoized code sweeps, each under its footprint id.
/// The last two share id 6, so the collision forces the walk fallback.
fn footprints(rng: &mut Rng, cfg: CacheConfig) -> Vec<(u32, Vec<u64>)> {
    let n = cfg.size_bytes / cfg.line_size;
    let mut fps: Vec<(u32, Vec<u64>)> = (0..6)
        .map(|fid| {
            let start = rng.below(3 * n);
            let some = 1 + rng.below(n);
            let len = rng.pick(&[0, 1, n / 2, n, n + 3, some]);
            (fid, (start..start + len).collect())
        })
        .collect();
    fps.push((6, (0..n / 2 + 1).collect()));
    fps.push((6, (n..2 * n).collect()));
    fps
}

fn check_case(seed: u64, ops: usize) -> Result<u64, String> {
    let mut rng = Rng(seed);
    let icache = geometry(&mut rng);
    let dcache = geometry(&mut rng);
    let cfg = MachineConfig {
        icache,
        dcache: Some(dcache),
        read_miss_penalty: 1 + rng.below(30),
        write_miss_penalty: rng.pick(&[0, 7]),
        itlb: tlb(&mut rng),
        dtlb: tlb(&mut rng),
        ..MachineConfig::synthetic_benchmark()
    };
    let mut m = Machine::new(cfg);
    let mut r = RefMachine::new(cfg);
    let fps = footprints(&mut rng, icache);
    for step in 0..ops {
        let (op, got, want) = match rng.below(8) {
            0..=2 => {
                let (fid, lines) = &fps[rng.below(fps.len() as u64) as usize];
                (
                    "fetch_code_footprint",
                    m.fetch_code_footprint(*fid, lines),
                    r.fetch_lines(lines),
                )
            }
            3 => {
                let reg = region(&mut rng, icache);
                ("fetch_code", m.fetch_code(reg), r.fetch_code(reg))
            }
            4 => {
                let reg = region(&mut rng, dcache);
                ("read_data", m.read_data(reg), r.data(reg, AccessKind::Read))
            }
            5 => {
                let reg = region(&mut rng, dcache);
                (
                    "write_data",
                    m.write_data(reg),
                    r.data(reg, AccessKind::Write),
                )
            }
            _ => {
                let base = rng.below(4 * dcache.size_bytes);
                let slot_bytes = rng.pick(&[8u64, 24, 64, 100]);
                let slots: Vec<u32> = (0..rng.below(5)).map(|_| rng.below(256) as u32).collect();
                let want = slots
                    .iter()
                    .map(|&s| {
                        r.data(
                            Region::new(base + u64::from(s) * slot_bytes, slot_bytes),
                            AccessKind::Read,
                        )
                    })
                    .sum();
                (
                    "read_data_probes",
                    m.read_data_probes(base, slot_bytes, &slots),
                    want,
                )
            }
        };
        if got != want {
            return Err(format!(
                "{cfg:?}: step {step} {op} returned {got}, reference {want}"
            ));
        }
        if m.stats() != r.stats() {
            return Err(format!(
                "{cfg:?}: step {step} {op} stats diverged\n machine   {:?}\n reference {:?}",
                m.stats(),
                r.stats()
            ));
        }
    }
    Ok(m.replay_stats().hits)
}

proptest! {
    #[test]
    fn machine_matches_reference_model(seed in any::<u64>()) {
        if let Err(e) = check_case(seed, 300) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The property must exercise the replay memo's hit path, not only its
/// walk fallback, or it would not test the memo at all.
#[test]
fn reference_model_exercises_the_memo() {
    let hits: u64 = (0..32).map(|seed| check_case(seed, 400).unwrap()).sum();
    assert!(hits > 0, "no replay hits across the property's tapes");
}
