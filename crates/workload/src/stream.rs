//! The deterministic mixed-stream generator.
//!
//! One service, several protocols: the generator interleaves the five
//! [`WireClass`]es into a single arrival stream the way a production
//! box sees them — Poisson aggregate arrivals, a seeded class draw per
//! message, and heavy-tailed (bounded-Pareto) sizes per class. The
//! paper's Figures 5–9 drive one stack at a time; `figure14` drives
//! this mix through `simnet::SmpSim` so the per-class accounting can show
//! what interleaving does to each class's I-cache bill and SLO.
//!
//! Determinism contract: every generated stream is a pure function of
//! its [`MixConfig`] (same config, same stream — bit for bit), and the
//! per-message RNG draw budget is fixed. [`MixedStream::next_arrival`]
//! makes exactly 3 draws per message and [`to_flow_arrivals`] 1 per
//! message, regardless of outcome, so no draw ever depends on an
//! earlier message's class or size. The `rng-draw-budget` analyze rule
//! cross-checks the `// draws: N` annotations against the call sites.

use crate::class::WireClass;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simnet::{FlowArrival, FlowKey, MAX_WCLASS};

/// Configuration of a mixed multi-protocol stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixConfig {
    /// Aggregate arrival rate, messages per second (all classes).
    pub rate: f64,
    /// Stream length in seconds.
    pub duration_s: f64,
    /// Relative class weights, in [`WireClass::ALL`] order. Need not
    /// sum to 1; zero-weight classes never appear.
    pub weights: [f64; 5],
    /// Stream seed (class draws, sizes, interarrivals).
    pub seed: u64,
}

impl MixConfig {
    /// The figure14 service mix: RPC-heavy with a media-control
    /// sideband and a trickle of agent relay traffic.
    pub fn service_mix(rate: f64, duration_s: f64, seed: u64) -> MixConfig {
        MixConfig {
            rate,
            duration_s,
            weights: [0.18, 0.34, 0.22, 0.16, 0.10],
            seed,
        }
    }
}

/// The buffer-size ladder message sizes are rounded up to — the fixed
/// mbuf/cluster sizes a real allocator hands out. Quantizing keeps the
/// heavy-tailed *mass* of each class's size distribution while
/// bounding the number of distinct data footprints the cache model
/// sweeps, which is what keeps the footprint-replay memoizer's state
/// space (and CI's replay-hit-rate budget) under control.
pub const SIZE_LADDER: [u32; 12] = [
    48, 64, 96, 128, 192, 256, 384, 512, 768, 1_024, 1_280, 1_440,
];

/// Rounds `bytes` up to the next [`SIZE_LADDER`] rung (saturating at
/// the top rung).
fn quantize(bytes: u32) -> u32 {
    for &rung in &SIZE_LADDER {
        if bytes <= rung {
            return rung;
        }
    }
    SIZE_LADDER[SIZE_LADDER.len() - 1]
}

/// One arrival of the mixed stream: a time, a size, and the class it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassedArrival {
    /// Arrival time in seconds from the start of the run.
    pub time_s: f64,
    /// Message size in bytes (within the class's size band).
    pub bytes: u32,
    /// The traffic class.
    pub class: WireClass,
}

/// The stateful generator behind [`generate`]. Poisson interarrivals
/// at the aggregate rate, a weighted class draw, then a bounded-Pareto
/// size draw from the class's band.
#[derive(Debug)]
pub struct MixedStream {
    rate: f64,
    /// Cumulative class weights, normalised to end at 1.0.
    cum: [f64; 5],
    t: f64,
    rng: StdRng,
}

impl MixedStream {
    /// A stream over `cfg` (ignores `cfg.duration_s`; the stream is
    /// unbounded and callers cut it, cf. `TrafficSource::take_until`).
    pub fn new(cfg: &MixConfig) -> MixedStream {
        assert!(cfg.rate > 0.0, "mixed stream needs a positive rate");
        let total: f64 = cfg.weights.iter().filter(|w| w.is_sign_positive()).sum();
        assert!(total > 0.0, "at least one class weight must be positive");
        let mut cum = [0.0f64; 5];
        let mut acc = 0.0;
        for (c, w) in cum.iter_mut().zip(cfg.weights.iter()) {
            acc += w.max(0.0) / total;
            *c = acc;
        }
        cum[4] = 1.0; // close the distribution against rounding
        MixedStream {
            rate: cfg.rate,
            cum,
            t: 0.0,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x00f1_4f1e),
        }
    }

    /// The next arrival. Fixed draw budget per message — interarrival,
    /// class, size — so later messages never see a draw-stream shifted
    /// by an earlier message's outcome.
    // draws: 3
    pub fn next_arrival(&mut self) -> ClassedArrival {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        self.t += -u.ln() / self.rate;
        let p: f64 = self.rng.random::<f64>();
        let mut class = WireClass::Agent;
        for (i, c) in WireClass::ALL.iter().enumerate() {
            if p < self.cum.get(i).copied().unwrap_or(1.0) {
                class = *c;
                break;
            }
        }
        let (lo, hi, alpha) = class.size_params();
        let v: f64 = self.rng.random::<f64>().min(1.0 - 1e-12);
        let l = f64::from(lo);
        let h = f64::from(hi);
        // Bounded-Pareto inverse CDF: x = L / (1 - v (1 - (L/H)^a))^(1/a).
        let ratio = (l / h).powf(alpha);
        let x = l / (1.0 - v * (1.0 - ratio)).powf(1.0 / alpha);
        ClassedArrival {
            time_s: self.t,
            // Buffers come in ladder sizes; every class band's ends are
            // rungs, so the quantized size stays within the band.
            bytes: quantize((x as u32).clamp(lo, hi)).clamp(lo, hi),
            class,
        }
    }
}

/// Generates the full stream for `cfg`: every arrival strictly before
/// `cfg.duration_s`, in time order.
pub fn generate(cfg: &MixConfig) -> Vec<ClassedArrival> {
    let mut s = MixedStream::new(cfg);
    let mut out = Vec::new();
    loop {
        let a = s.next_arrival();
        if a.time_s >= cfg.duration_s {
            return out;
        }
        out.push(a);
    }
}

/// Tags each classed arrival with a flow drawn from a per-class slice
/// of a `flows`-flow population (classes do not share flows: an RPC
/// connection is never also a DNS client), producing the
/// [`FlowArrival`]s `simnet::SmpSim` runs on. One draw per message.
// draws: 1
pub fn to_flow_arrivals(stream: &[ClassedArrival], flows: u32, seed: u64) -> Vec<FlowArrival> {
    let per_class = (flows / WireClass::ALL.len() as u32).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0f10_c1a5);
    stream
        .iter()
        .map(|a| {
            let within = rng.random_range(0..per_class);
            let flow_id = u32::from(a.class.id() - 1) * per_class + within;
            FlowArrival {
                time_s: a.time_s,
                bytes: a.bytes,
                corrupted: false,
                flow_id,
                key: FlowKey::synth(flow_id, seed),
                wclass: a.class.id(),
            }
        })
        .collect()
}

/// Per-class message counts of a stream, indexed by class id.
pub fn class_counts(stream: &[ClassedArrival]) -> [u64; MAX_WCLASS] {
    let mut out = [0u64; MAX_WCLASS];
    for a in stream {
        if let Some(slot) = out.get_mut(a.class.index()) {
            *slot += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> MixConfig {
        MixConfig::service_mix(20_000.0, 0.5, seed)
    }

    #[test]
    fn streams_are_deterministic_per_config() {
        let a = generate(&cfg(7));
        let b = generate(&cfg(7));
        let c = generate(&cfg(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    fn mix_matches_the_weights() {
        let stream = generate(&cfg(3));
        let counts = class_counts(&stream);
        let total: u64 = counts.iter().sum();
        assert_eq!(total as usize, stream.len());
        let mix = MixConfig::service_mix(1.0, 1.0, 0).weights;
        for (c, want) in WireClass::ALL.iter().zip(mix.iter()) {
            let got = counts[c.index()] as f64 / total as f64;
            assert!(
                (got - want).abs() < 0.03,
                "{c:?}: got {got:.3}, want {want:.3}"
            );
        }
    }

    #[test]
    fn sizes_stay_in_band_and_are_heavy_tailed() {
        let stream = generate(&cfg(11));
        for c in WireClass::ALL {
            let (lo, hi, _) = c.size_params();
            let sizes: Vec<u32> = stream
                .iter()
                .filter(|a| a.class == c)
                .map(|a| a.bytes)
                .collect();
            assert!(sizes.len() > 100, "{c:?} underrepresented");
            assert!(sizes.iter().all(|&b| (lo..=hi).contains(&b)), "{c:?}");
            assert!(
                sizes.iter().all(|&b| SIZE_LADDER.contains(&b)),
                "{c:?}: sizes must be buffer-ladder rungs"
            );
            // Heavy tail: the median hugs the floor, the max does not.
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            let max = *sorted.last().unwrap();
            assert!(median < lo + (hi - lo) / 4, "{c:?} median {median}");
            assert!(max > lo + (hi - lo) / 2, "{c:?} max {max} never tails");
        }
    }

    #[test]
    fn flow_tags_partition_by_class() {
        let stream = generate(&cfg(5));
        let tagged = to_flow_arrivals(&stream, 250, 5);
        assert_eq!(tagged.len(), stream.len());
        assert_eq!(tagged, to_flow_arrivals(&stream, 250, 5), "deterministic");
        let per_class = 250 / 5;
        for (a, f) in stream.iter().zip(tagged.iter()) {
            assert_eq!(f.wclass, a.class.id());
            assert_eq!(f.bytes, a.bytes);
            let band = u32::from(a.class.id() - 1) * per_class;
            assert!(
                (band..band + per_class).contains(&f.flow_id),
                "{:?} flow {} outside its class band",
                a.class,
                f.flow_id
            );
        }
    }

    #[test]
    fn ladder_is_sorted_and_covers_every_band_end() {
        assert!(SIZE_LADDER.windows(2).all(|w| w[0] < w[1]));
        for c in WireClass::ALL {
            let (lo, hi, _) = c.size_params();
            assert!(SIZE_LADDER.contains(&lo), "{c:?} floor off the ladder");
            assert!(SIZE_LADDER.contains(&hi), "{c:?} ceiling off the ladder");
        }
        assert_eq!(quantize(1), 48);
        assert_eq!(quantize(48), 48);
        assert_eq!(quantize(49), 64);
        assert_eq!(quantize(2_000), 1_440, "saturates at the top rung");
    }

    #[test]
    fn zero_weight_classes_never_appear() {
        let mut c = cfg(9);
        c.weights = [0.0, 1.0, 0.0, 0.0, 0.0];
        let stream = generate(&c);
        assert!(!stream.is_empty());
        assert!(stream.iter().all(|a| a.class == WireClass::SvcRpc));
    }
}
