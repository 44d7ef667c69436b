//! Batch-sizing policies for blocked layer processing (Section 3.2).
//!
//! The paper's online algorithm processes "batches consisting of all
//! available messages"; for the common special case where one layer fits
//! the I-cache but the batch's messages must share the D-cache, the batch
//! is capped at "as many available messages as will fit in the data
//! cache". Both policies are here, along with a fixed block size for
//! offline-style experiments and ablations.

/// How many of the currently-available messages to take into one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Take everything that has arrived (the basic online LDLP rule).
    AllAvailable,
    /// Take at most as many messages as fit in the data cache alongside
    /// one layer's working data (the paper's special case, and the cause
    /// of the curve flattening beyond ~8500 msg/s in Figure 5).
    DCacheFit,
    /// A fixed block size (offline blocked processing; ablation baseline).
    Fixed(usize),
}

impl BatchPolicy {
    /// The batch cap for a data cache of `dcache_bytes`, messages of
    /// `msg_bytes`, and at most `layer_data_bytes` of per-layer data
    /// resident during a pass. Always at least 1.
    pub fn limit(&self, dcache_bytes: u64, layer_data_bytes: u64, msg_bytes: u64) -> usize {
        match self {
            BatchPolicy::AllAvailable => usize::MAX,
            BatchPolicy::DCacheFit => {
                let usable = dcache_bytes.saturating_sub(layer_data_bytes);
                ((usable / msg_bytes.max(1)) as usize).max(1)
            }
            BatchPolicy::Fixed(n) => (*n).max(1),
        }
    }
}

/// Contiguous partition of a protocol stack's layers across pipeline
/// stages — the dispatch-policy arithmetic behind LDLP-aware *layer
/// affinity* (`simnet::sim`): each core is pinned to a run of adjacent
/// layers so its I-cache only ever holds that slice of the code.
///
/// Returns the number of layers per stage. At most `num_layers` stages
/// are used (a core count beyond that leaves cores idle); sizes differ
/// by at most one, with the larger stages first, so the entry stage —
/// which also absorbs the NIC backlog and forms the biggest batches —
/// is the one best placed to amortize an oversized slice.
pub fn stage_partition(num_layers: usize, cores: usize) -> Vec<usize> {
    let stages = cores.clamp(1, num_layers.max(1));
    let base = num_layers / stages;
    let rem = num_layers % stages;
    (0..stages).map(|i| base + usize::from(i < rem)).collect()
}

/// What to do when a packet arrives and the adaptor buffer is full
/// (Section 4's 500-packet NIC queue). The paper's simulator tail-drops;
/// production adaptors differ, and under sustained overload the choice
/// decides *which* messages survive — and therefore the latency of the
/// ones that do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Drop the arriving packet (the paper's behaviour, and the default).
    TailDrop,
    /// Evict the oldest queued packet and admit the new one. Keeps the
    /// queue full of *recent* packets, bounding the queueing delay of
    /// everything that completes.
    HeadDrop,
    /// When full, shed the oldest packets down to `down_to` entries in
    /// one sweep, then admit the arrival. Models interrupt-level buffer
    /// reclamation: one expensive purge instead of per-packet eviction.
    ShedOldest {
        /// Queue length to shed down to (clamped below the capacity).
        down_to: usize,
    },
    /// Per-class weighted-fair admission: when full, an arrival whose
    /// class is under its weighted share of the buffer claims a slot
    /// from the most over-share class (its oldest packet is shed);
    /// an arrival at or over its share is refused. Class-aware drivers
    /// decide via [`weighted_fair_admit`]; the class-blind
    /// [`AdmissionPolicy::admit`] path degrades to tail-drop, since
    /// without class counts no fair decision exists.
    WeightedFair,
}

impl AdmissionPolicy {
    /// Decides admission for one arrival given the current queue length
    /// and capacity. Returns `(evict_from_front, admit_arrival)`: the
    /// caller removes `evict_from_front` packets from the head of the
    /// queue (counting them as shed) and then, if `admit_arrival`, pushes
    /// the new packet at the tail.
    pub fn admit(&self, queue_len: usize, capacity: usize) -> (usize, bool) {
        if queue_len < capacity {
            return (0, true);
        }
        match self {
            AdmissionPolicy::TailDrop => (0, false),
            AdmissionPolicy::HeadDrop => (1, true),
            AdmissionPolicy::ShedOldest { down_to } => {
                let target = (*down_to).min(capacity.saturating_sub(1));
                (queue_len - target, true)
            }
            // Class-blind callers cannot make a fair decision; refuse
            // the arrival (tail-drop) rather than evict blindly.
            AdmissionPolicy::WeightedFair => (0, false),
        }
    }
}

/// The weighted-fair decision for one arrival, given per-class queue
/// occupancy ([`AdmissionPolicy::WeightedFair`]; other policies keep
/// using the class-blind [`AdmissionPolicy::admit`]).
///
/// `class_counts[c]` is the number of queued packets of class `c` and
/// `weights[c]` its share weight (class `c`'s fair share of the buffer
/// is `capacity * weights[c] / sum(weights)`); `arriving` indexes the
/// arriving packet's class. Returns `(evict_class, admit)`: when
/// `evict_class` is `Some(j)` the caller sheds the *oldest* queued
/// packet of class `j` (charging the shed to `j`), then — if `admit` —
/// pushes the arrival at the tail.
///
/// Under capacity every arrival is admitted with no eviction. At
/// capacity, an arrival strictly under its share takes a slot from the
/// most over-share occupied class (largest `count/weight`, ties to the
/// lowest class index; a zero-weight class with any occupancy is
/// infinitely over-share); an arrival at or over its share is refused.
/// All comparisons cross-multiply, so the decision is exact integer
/// arithmetic — deterministic across platforms.
pub fn weighted_fair_admit(
    class_counts: &[u64],
    weights: &[u32],
    capacity: usize,
    arriving: usize,
) -> (Option<usize>, bool) {
    let queue_len: u64 = class_counts.iter().sum();
    if queue_len < capacity as u64 {
        return (None, true);
    }
    let n = |c: usize| -> u64 { class_counts.get(c).copied().unwrap_or(0) };
    let w = |c: usize| -> u64 { weights.get(c).copied().unwrap_or(0) as u64 };
    let total_w: u64 = (0..class_counts.len()).map(&w).sum();
    if total_w == 0 {
        return (None, false);
    }
    // Strictly under share: n(arr)/total < capacity * w(arr)/total_w,
    // cross-multiplied.
    if n(arriving) * total_w >= capacity as u64 * w(arriving) {
        return (None, false);
    }
    // Donor: the most over-share occupied class.
    let mut donor: Option<usize> = None;
    for c in 0..class_counts.len() {
        if n(c) == 0 {
            continue;
        }
        let better = match donor {
            None => true,
            // n(c)/w(c) > n(d)/w(d)  ⇔  n(c)·w(d) > n(d)·w(c); ties
            // keep the earlier (lower-index) donor.
            Some(d) => n(c) * w(d) > n(d) * w(c),
        };
        if better {
            donor = Some(c);
        }
    }
    match donor {
        Some(d) if d != arriving => (Some(d), true),
        // Nothing fair to evict (only the arriving class occupies the
        // queue): refuse rather than churn its own backlog.
        _ => (None, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_partition_covers_all_layers_balanced() {
        assert_eq!(stage_partition(5, 1), vec![5]);
        assert_eq!(stage_partition(5, 2), vec![3, 2]);
        assert_eq!(stage_partition(5, 4), vec![2, 1, 1, 1]);
        assert_eq!(stage_partition(5, 8), vec![1, 1, 1, 1, 1], "extra cores idle");
        for layers in 1..12usize {
            for cores in 1..10usize {
                let p = stage_partition(layers, cores);
                assert_eq!(p.iter().sum::<usize>(), layers);
                assert!(p.len() <= cores && p.len() <= layers);
                let (min, max) = (p.iter().min().copied(), p.iter().max().copied());
                assert!(max.unwrap_or(0) - min.unwrap_or(0) <= 1, "balanced to within one");
            }
        }
    }

    #[test]
    fn dcache_fit_matches_paper_arithmetic() {
        // 8 KB D-cache, 256 B layer data, 552 B messages:
        // (8192 - 256) / 552 = 14 messages.
        assert_eq!(BatchPolicy::DCacheFit.limit(8192, 256, 552), 14);
    }

    #[test]
    fn all_available_is_unbounded() {
        assert_eq!(BatchPolicy::AllAvailable.limit(8192, 256, 552), usize::MAX);
    }

    #[test]
    fn fixed_is_fixed_and_nonzero() {
        assert_eq!(BatchPolicy::Fixed(5).limit(8192, 256, 552), 5);
        assert_eq!(BatchPolicy::Fixed(0).limit(8192, 256, 552), 1);
    }

    #[test]
    fn degenerate_geometry_still_processes_one() {
        // Messages bigger than the cache: LDLP degrades to one at a time.
        assert_eq!(BatchPolicy::DCacheFit.limit(8192, 256, 100_000), 1);
        assert_eq!(BatchPolicy::DCacheFit.limit(256, 8192, 552), 1);
    }

    #[test]
    fn admission_under_capacity_always_admits() {
        for p in [
            AdmissionPolicy::TailDrop,
            AdmissionPolicy::HeadDrop,
            AdmissionPolicy::ShedOldest { down_to: 10 },
        ] {
            assert_eq!(p.admit(499, 500), (0, true));
            assert_eq!(p.admit(0, 500), (0, true));
        }
    }

    #[test]
    fn tail_drop_refuses_at_capacity() {
        assert_eq!(AdmissionPolicy::TailDrop.admit(500, 500), (0, false));
    }

    #[test]
    fn head_drop_trades_oldest_for_newest() {
        assert_eq!(AdmissionPolicy::HeadDrop.admit(500, 500), (1, true));
    }

    #[test]
    fn weighted_fair_admits_under_capacity_like_everyone_else() {
        assert_eq!(AdmissionPolicy::WeightedFair.admit(499, 500), (0, true));
        assert_eq!(weighted_fair_admit(&[100, 50, 49], &[4, 1, 2], 500, 1), (None, true));
    }

    #[test]
    fn weighted_fair_classless_fallback_is_tail_drop() {
        assert_eq!(AdmissionPolicy::WeightedFair.admit(500, 500), (0, false));
    }

    #[test]
    fn weighted_fair_under_share_arrival_takes_from_the_hog() {
        // Shares of a 100-slot buffer at weights [4, 1, 2]: ~57/14/28.
        // DNS (class 1) is under its 14-slot share; RPC (class 2) holds
        // 60 slots against a 28-slot share and is the most over-share.
        let counts = [35, 5, 60];
        assert_eq!(weighted_fair_admit(&counts, &[4, 1, 2], 100, 1), (Some(2), true));
        // The call class is also under share and likewise claims a slot.
        assert_eq!(weighted_fair_admit(&counts, &[4, 1, 2], 100, 0), (Some(2), true));
    }

    #[test]
    fn weighted_fair_over_share_arrival_is_refused() {
        // RPC already exceeds its share: refused, nothing evicted.
        let counts = [35, 5, 60];
        assert_eq!(weighted_fair_admit(&counts, &[4, 1, 2], 100, 2), (None, false));
        // Exactly at share (14 of 98 at weight 1/7) is "not strictly
        // under": refused too.
        let at_share = [56, 14, 28];
        assert_eq!(weighted_fair_admit(&at_share, &[4, 1, 2], 98, 1), (None, false));
    }

    #[test]
    fn weighted_fair_zero_weight_class_is_first_donor() {
        // A zero-weight class with any occupancy is infinitely
        // over-share and donates before everyone.
        let counts = [10, 89, 1];
        assert_eq!(weighted_fair_admit(&counts, &[1, 4, 0], 100, 0), (Some(2), true));
        // And a zero-weight arrival never claims a slot.
        assert_eq!(weighted_fair_admit(&counts, &[1, 4, 0], 100, 2), (None, false));
    }

    #[test]
    fn weighted_fair_sole_occupant_never_evicts_itself() {
        // Only the arriving class is queued: refuse, don't churn.
        assert_eq!(weighted_fair_admit(&[0, 4, 0], &[0, 1, 0], 4, 1), (None, false));
        // All-zero weights cannot make a fair decision: refuse.
        assert_eq!(weighted_fair_admit(&[2, 1, 1], &[0, 0, 0], 4, 0), (None, false));
    }

    #[test]
    fn weighted_fair_ties_go_to_the_lowest_class_index() {
        // Classes 0 and 1 equally over-share: class 0 donates.
        assert_eq!(weighted_fair_admit(&[50, 50, 0], &[1, 1, 2], 100, 2), (Some(0), true));
    }

    #[test]
    fn shed_oldest_purges_to_watermark() {
        let p = AdmissionPolicy::ShedOldest { down_to: 250 };
        assert_eq!(p.admit(500, 500), (250, true));
        // Watermark at or above capacity degenerates to head-drop-like
        // eviction of at least one packet.
        let p = AdmissionPolicy::ShedOldest { down_to: 600 };
        assert_eq!(p.admit(500, 500), (1, true));
    }
}
