//! Figure 10: million-flow data working sets — cache-aware flow
//! lookup tables under Zipf and packet-train flow popularity.
//!
//! Every message charges one flow-table lookup through the engine's
//! private machine: a small per-flow lookup cache (Jain's
//! DEC-TR-592 schemes: LRU / FIFO / random × 1–64 slots) is scanned
//! first, and on a miss the open-addressing flow table's *actual
//! probe sequence* is replayed as data references, so D-misses per
//! lookup are simulated, not guessed. The sweep spans concurrent
//! flow populations 10^2 → 10^6 × {Conventional, LDLP} × lookup
//! scheme, fanned across worker threads and reduced in index order
//! — the CSV is byte-identical for any `--threads` value.

use crate::sweep::{average, grid, sums};
use crate::{f, Observe, Output, RunOpts};
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use netstack::table::{mix64, CacheScheme, LookupCache, OaTable};
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim_lookup, LookupCharge, SimConfig};

/// Paper workload: 552-byte signalling-sized messages.
pub const MSG_BYTES: u32 = 552;

/// Fixed offered load (msg/s) — well inside single-CPU capacity, so
/// latency differences come from lookup D-misses, not queueing.
pub const RATE: f64 = 2000.0;

/// Simulated address of the open-addressing flow table.
pub const FLOW_TABLE_BASE: u64 = 0x4000_0000;
/// Simulated address of the per-flow lookup cache.
pub const LOOKUP_CACHE_BASE: u64 = 0x4800_0000;
/// Bytes per table / cache slot (key + value + occupancy tag).
pub const SLOT_BYTES: u64 = 16;

/// Concurrent-flow populations swept (smoke keeps the 10^2 vs 10^4
/// contrast only; the full grid spans 10^2 → 10^6).
pub fn populations(smoke: bool) -> &'static [u64] {
    if smoke {
        &[100, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000]
    }
}

/// Flow-popularity model for the arrival stream's flow IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopModel {
    /// Independent Zipf(s=1) draws per message.
    Zipf,
    /// Packet trains: a Zipf-drawn flow persists for a
    /// Pareto-distributed burst of messages (self-similar locality).
    Train,
}

impl PopModel {
    pub fn label(self) -> &'static str {
        match self {
            PopModel::Zipf => "zipf",
            PopModel::Train => "train",
        }
    }
}

/// One swept lookup configuration.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    pub scheme: CacheScheme,
    pub cache_slots: usize,
    pub popmodel: PopModel,
}

/// The swept lookup configurations. The full grid reproduces Jain's
/// cache-scheme comparison (LRU depth sweep, FIFO and random at a
/// common depth) plus a packet-train locality column; smoke keeps
/// the three schemes at one depth.
pub fn variants(smoke: bool) -> &'static [Variant] {
    const FULL: [Variant; 6] = [
        Variant {
            scheme: CacheScheme::Lru,
            cache_slots: 1,
            popmodel: PopModel::Zipf,
        },
        Variant {
            scheme: CacheScheme::Lru,
            cache_slots: 16,
            popmodel: PopModel::Zipf,
        },
        Variant {
            scheme: CacheScheme::Lru,
            cache_slots: 64,
            popmodel: PopModel::Zipf,
        },
        Variant {
            scheme: CacheScheme::Fifo,
            cache_slots: 16,
            popmodel: PopModel::Zipf,
        },
        Variant {
            scheme: CacheScheme::Random,
            cache_slots: 16,
            popmodel: PopModel::Zipf,
        },
        Variant {
            scheme: CacheScheme::Lru,
            cache_slots: 16,
            popmodel: PopModel::Train,
        },
    ];
    const SMOKE: [Variant; 3] = [
        Variant {
            scheme: CacheScheme::Lru,
            cache_slots: 16,
            popmodel: PopModel::Zipf,
        },
        Variant {
            scheme: CacheScheme::Fifo,
            cache_slots: 16,
            popmodel: PopModel::Zipf,
        },
        Variant {
            scheme: CacheScheme::Random,
            cache_slots: 16,
            popmodel: PopModel::Zipf,
        },
    ];
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// Deterministic xorshift64* stream for flow draws.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(mix64(seed) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s = 1) sampler over `1..=n` via a precomputed harmonic CDF
/// and binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / k as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Maps a uniform `u` in [0, 1) to a 0-based flow rank.
    pub fn draw(&self, u: f64) -> u32 {
        let i = self.cdf.partition_point(|&c| c <= u);
        i.min(self.cdf.len().saturating_sub(1)) as u32
    }
}

/// The per-message flow-ID sequence: `n` draws over a population of
/// `pop` flows, ranked by Zipf popularity. `Train` mode holds each
/// drawn flow for a Pareto(α = 1.5) burst (capped at 64 messages),
/// so consecutive messages revisit the same table entry — the
/// locality a lookup cache exploits.
pub fn flow_sequence(pop: u64, n: usize, seed: u64, model: PopModel) -> Vec<u32> {
    let zipf = Zipf::new(pop);
    let mut rng = Rng::new(seed ^ mix64(pop));
    let mut out = Vec::with_capacity(n);
    match model {
        PopModel::Zipf => {
            for _ in 0..n {
                out.push(zipf.draw(rng.next_f64()));
            }
        }
        PopModel::Train => {
            while out.len() < n {
                let flow = zipf.draw(rng.next_f64());
                let u = rng.next_f64();
                let burst = (1.0 - u).powf(-1.0 / 1.5).min(64.0) as usize;
                for _ in 0..burst.max(1) {
                    if out.len() == n {
                        break;
                    }
                    out.push(flow);
                }
            }
        }
    }
    out
}

/// Charges each message's flow lookup to the engine's machine: scan
/// the lookup cache (its resident footprint), and on a cache miss
/// replay the open-addressing table's probe sequence as data reads
/// plus one cache-fill write.
pub struct TableCharge {
    table: OaTable<u64, u32>,
    cache: LookupCache<u64, u32>,
    key_salt: u64,
    probes_total: u64,
    lookups: u64,
}

impl TableCharge {
    /// Builds the flow table with `pop` live entries. Keys are
    /// drawn from a per-seed key space so slot placement (and thus
    /// probe clustering) varies across placements.
    pub fn new(pop: u64, scheme: CacheScheme, cache_slots: usize, seed: u64) -> Self {
        let key_salt = mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pop);
        let mut table = OaTable::with_capacity(pop as usize);
        for flow in 0..pop {
            table.insert(mix64(key_salt ^ flow), flow as u32);
        }
        TableCharge {
            table,
            cache: LookupCache::new(scheme, cache_slots, seed),
            key_salt,
            probes_total: 0,
            lookups: 0,
        }
    }

    /// Probe count per successful table walk, averaged over the run.
    pub fn mean_probes(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.probes_total as f64 / self.lookups as f64
        }
    }

    pub fn cache_stats(&self) -> netstack::table::LookupCacheStats {
        self.cache.stats()
    }
}

impl LookupCharge for TableCharge {
    fn charge(&mut self, flow_id: u32, machine: &mut cachesim::Machine) -> u64 {
        let key = mix64(self.key_salt ^ flow_id as u64);
        // The cache's linear scan stops at the hit slot (LRU's
        // move-to-front keeps hot flows near the front — Jain's
        // argument for the scheme); a miss scans every entry.
        let scanned_slots = match self.cache.position(&key) {
            Some(pos) => pos + 1,
            None => self.cache.len(),
        };
        let scanned: Vec<u32> = (0..scanned_slots as u32).collect();
        let mut dm = machine.read_data_probes(LOOKUP_CACHE_BASE, SLOT_BYTES, &scanned);
        if self.cache.get(&key).is_some() {
            return dm;
        }
        self.lookups += 1;
        if self.table.get_mut(&key).is_some() {
            self.probes_total += self.table.last_probes().len() as u64;
            dm += machine.read_data_probes(FLOW_TABLE_BASE, SLOT_BYTES, self.table.last_probes());
            self.cache.insert(key, flow_id);
            dm += machine.write_data_slot(LOOKUP_CACHE_BASE, SLOT_BYTES, 0);
        }
        dm
    }
}

/// One (population, discipline, variant) cell's seed-averaged
/// measurements.
#[derive(Debug, Clone)]
pub struct Figure10Point {
    pub population: u64,
    pub discipline: &'static str,
    pub variant: Variant,
    pub report: SimReport,
    /// Lookup-cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Mean open-addressing probes per table walk (cache misses).
    pub mean_probes: f64,
}

/// One run: the report plus (cache hits, cache misses, table probes,
/// table walks).
fn run_cell(
    pop: u64,
    discipline: Discipline,
    variant: &Variant,
    seed: u64,
    duration_s: f64,
) -> (SimReport, [f64; 4]) {
    let arrivals = PoissonSource::new(RATE, MSG_BYTES, seed).take_until(duration_s);
    let flow_ids = flow_sequence(pop, arrivals.len(), seed, variant.popmodel);
    let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
    let mut engine = StackEngine::new(machine, layers, discipline);
    let mut lookup = TableCharge::new(pop, variant.scheme, variant.cache_slots, seed);
    let sim_cfg = SimConfig {
        duration_s,
        pool_seed: seed,
        ..SimConfig::default()
    };
    let report = run_sim_lookup(&mut engine, &arrivals, &flow_ids, &sim_cfg, &mut lookup);
    crate::perf::note_machine(engine.machine());
    let stats = lookup.cache_stats();
    let counts = [
        stats.hits as f64,
        stats.misses as f64,
        lookup.probes_total as f64,
        lookup.lookups as f64,
    ];
    (report, counts)
}

/// The sweep: every (population, discipline) cell × swept variants ×
/// the seeds, averaged in seed order.
pub fn sweep(opts: &RunOpts) -> Vec<Figure10Point> {
    let disciplines = [
        ("conv", Discipline::Conventional),
        ("ldlp", Discipline::Ldlp(BatchPolicy::DCacheFit)),
    ];
    let mut cells = Vec::new();
    for &pop in populations(opts.smoke) {
        for d in disciplines {
            for &v in variants(opts.smoke) {
                cells.push((pop, d, v));
            }
        }
    }
    let runs = grid(opts, &cells, |&(pop, (_, d), v), seed| {
        run_cell(pop, d, &v, seed, opts.duration_s())
    });
    cells
        .iter()
        .zip(runs)
        .map(|(&(population, (discipline, _), variant), per_seed)| {
            let [hits, misses, probes, walks] = sums(per_seed.iter().map(|job| job.1));
            Figure10Point {
                population,
                discipline,
                variant,
                report: average(per_seed.into_iter().map(|job| job.0)),
                cache_hit_rate: if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
                mean_probes: if walks > 0.0 { probes / walks } else { 0.0 },
            }
        })
        .collect()
}

/// CSV schema: one row per (population, discipline, variant).
pub const FIGURE10_HEADER: &str = "population,discipline,scheme,cache_slots,popmodel,\
                                   imiss_per_msg,dmiss_per_msg,mean_latency_us,p99_latency_us,\
                                   throughput,drops,mean_batch,cache_hit_rate,mean_probes";

/// The `figure10` registry entry.
pub fn run(opts: &RunOpts, _: Observe) -> Output {
    let rows = sweep(opts)
        .iter()
        .map(|p| {
            let r = &p.report;
            vec![
                p.population.to_string(),
                p.discipline.to_string(),
                p.variant.scheme.label().to_string(),
                p.variant.cache_slots.to_string(),
                p.variant.popmodel.label().to_string(),
                f(r.mean_imiss, 2),
                f(r.mean_dmiss, 2),
                f(r.mean_latency_us, 1),
                f(r.p99_latency_us, 1),
                f(r.throughput, 0),
                r.drops.to_string(),
                f(r.mean_batch, 3),
                f(p.cache_hit_rate, 4),
                f(p.mean_probes, 3),
            ]
        })
        .collect();
    Output::csv(opts.csv_name("figure10"), FIGURE10_HEADER, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_are_skewed_and_in_range() {
        let pop = 1000u64;
        let seq = flow_sequence(pop, 4000, 7, PopModel::Zipf);
        assert_eq!(seq.len(), 4000);
        assert!(seq.iter().all(|&v| (v as u64) < pop));
        let head = seq.iter().filter(|&&v| v < 10).count();
        // Zipf(s=1) over 1000 puts ~39% of mass on the top 10.
        assert!(head > seq.len() / 5, "top-10 flows got {head}/4000");
        assert_eq!(seq, flow_sequence(pop, 4000, 7, PopModel::Zipf));
    }

    #[test]
    fn trains_revisit_flows_in_runs() {
        let seq = flow_sequence(10_000, 4000, 3, PopModel::Train);
        let repeats = seq.windows(2).filter(|w| w[0] == w[1]).count();
        let zipf = flow_sequence(10_000, 4000, 3, PopModel::Zipf);
        let zipf_repeats = zipf.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            repeats > zipf_repeats + 200,
            "trains: {repeats} adjacent repeats vs zipf's {zipf_repeats}"
        );
    }

    #[test]
    fn table_charge_hits_every_live_flow() {
        let mut machine = cachesim::Machine::new(MachineConfig::synthetic_benchmark());
        let mut tc = TableCharge::new(500, CacheScheme::Lru, 4, 1);
        for flow in 0..500u32 {
            tc.charge(flow, &mut machine);
        }
        let stats = tc.cache_stats();
        assert_eq!(stats.hits + stats.misses, 500);
        assert_eq!(
            tc.lookups, stats.misses,
            "every cache miss walked the table"
        );
        assert!(tc.mean_probes() >= 1.0);
    }

    #[test]
    fn bigger_population_means_more_lookup_dmisses() {
        let opts = RunOpts {
            seeds: Some(2),
            duration_s: Some(0.05),
            smoke: true,
            ..RunOpts::default()
        };
        let points = sweep(&opts);
        assert_eq!(
            points.len(),
            4 * 3,
            "2 populations x 2 disciplines x 3 schemes"
        );
        let dmiss = |pop: u64, disc: &str| -> f64 {
            points
                .iter()
                .find(|p| p.population == pop && p.discipline == disc)
                .map(|p| p.report.mean_dmiss)
                .unwrap_or(f64::NAN)
        };
        assert!(
            dmiss(10_000, "conv") > dmiss(100, "conv"),
            "10^4 flows should miss more than 10^2: {} vs {}",
            dmiss(10_000, "conv"),
            dmiss(100, "conv")
        );
    }
}
