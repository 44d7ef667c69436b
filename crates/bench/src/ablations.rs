//! Ablations: the paper's Section 3–6 side arguments and cited
//! mechanisms, each rerunning part of the Figure 5/6 setup with one
//! thing changed.

use crate::sweep::{per_seed, poisson, seed_average, SweepPoint};
use crate::{f, perf, Observe, Output, RunOpts};
use cachesim::{CacheConfig, Machine, MachineConfig, Region};
use layout::anneal::{anneal_place, AnnealConfig};
use layout::conflict::conflict_score;
use layout::outline::{outline, HotColdFunction};
use layout::place::{greedy_place, random_place, sequential_place, PlacedFunction};
use ldlp::blocking::BlockingModel;
use ldlp::synth::{paper_stack, stack_sequential, stack_with};
use ldlp::{BatchPolicy, Discipline, StackEngine};
use memtrace::dilution::code_dilution;
use netstack::footprint::{build_receive_ack_trace, FUNCTIONS};
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

const LDLP: Discipline = Discipline::Ldlp(BatchPolicy::DCacheFit);

/// Seed-averaged run of the engine `build(seed)` under Poisson 552-byte
/// traffic at `rate`. `pool_seed` places the message pool by seed too
/// (otherwise the pool uses the simulator's default placement).
fn poisson_avg(
    opts: &RunOpts,
    rate: f64,
    pool_seed: bool,
    build: impl Fn(u64) -> StackEngine + Sync,
) -> SimReport {
    seed_average(opts, |seed| {
        let arrivals = PoissonSource::new(rate, 552, seed).take_until(opts.duration_s());
        let mut engine = build(seed);
        let cfg = SimConfig {
            duration_s: opts.duration_s(),
            pool_seed: if pool_seed {
                seed
            } else {
                SimConfig::default().pool_seed
            },
            ..SimConfig::default()
        };
        let report = run_sim(&mut engine, &arrivals, &cfg);
        perf::note_machine(engine.machine());
        report
    })
}

/// The paper's synthetic stack on `cfg`, placed by `seed`.
fn paper_engine(cfg: MachineConfig, seed: u64, discipline: Discipline) -> StackEngine {
    let (m, layers) = paper_stack(cfg, seed);
    StackEngine::new(m, layers, discipline)
}

/// A1 (Section 5.2): CISC code density. "Networking code is
/// substantially smaller on the i386 than on the Alpha": the Figure 5/6
/// sweep rerun on an i386-like machine (identical caches, 0.45× code).
/// Denser code fits the I-cache better, so conventional scheduling
/// suffers less and LDLP's relative benefit shrinks.
pub fn cisc(opts: &RunOpts, _: Observe) -> Output {
    let rates = [1000.0, 3000.0, 5000.0, 7000.0, 9000.0];
    let alpha = poisson(opts, MachineConfig::synthetic_benchmark(), &rates)
        .run(opts, false)
        .0;
    let i386 = poisson(opts, MachineConfig::i386_like(), &rates)
        .run(opts, false)
        .0;
    let cols = |p: &SweepPoint| {
        [
            f(p.conventional.mean_imiss, 2),
            f(p.ldlp.mean_imiss, 2),
            f(p.conventional.mean_latency_us, 2),
            f(p.ldlp.mean_latency_us, 2),
        ]
    };
    let rows = alpha
        .iter()
        .zip(&i386)
        .map(|(a, i)| {
            let mut row = vec![f(a.x, 0)];
            row.extend(cols(a));
            row.extend(cols(i));
            row
        })
        .collect();
    Output::csv(
        opts.csv_name("ablation_cisc"),
        "rate,alpha_conv_imiss,alpha_ldlp_imiss,alpha_conv_lat_us,alpha_ldlp_lat_us,\
         i386_conv_imiss,i386_ldlp_imiss,i386_conv_lat_us,i386_ldlp_lat_us",
        rows,
    )
}

/// A2 (Section 5.4): cache dilution and dense layouts. Measures the
/// share of fetched instruction bytes that never execute in the TCP/IP
/// trace (paper: ~25%), projects Mosberger-style outlining over the
/// Figure 1 inventory, and reruns the synthetic stack with its 6 KB
/// layers shrunk by the measured dilution.
pub fn dilution(opts: &RunOpts, _: Observe) -> Output {
    let d = code_dilution(&build_receive_ack_trace(), 32);
    let funcs: Vec<HotColdFunction> = FUNCTIONS
        .iter()
        .map(|s| HotColdFunction {
            size: s.size,
            hot_bytes: (s.touched_lines() * 32).min(s.size),
        })
        .collect();
    let rep = outline(&funcs, 32, 1.0 - d.dilution());
    let diluted = 6 * 1024u64;
    let dense = ((diluted as f64) * (1.0 - d.dilution())) as u64;
    let run = |code_bytes: u64, discipline: Discipline, rate: f64| {
        poisson_avg(opts, rate, false, |seed| {
            let (m, layers) = stack_with(
                MachineConfig::synthetic_benchmark(),
                seed,
                5,
                code_bytes,
                256,
            );
            StackEngine::new(m, layers, discipline)
        })
    };
    let rows = [2000.0, 4000.0, 6000.0, 8000.0]
        .iter()
        .map(|&rate| {
            let conv_dil = run(diluted, Discipline::Conventional, rate);
            let conv_den = run(dense, Discipline::Conventional, rate);
            let ldlp_dil = run(diluted, LDLP, rate);
            let ldlp_den = run(dense, LDLP, rate);
            vec![
                f(rate, 0),
                f(conv_dil.mean_imiss, 2),
                f(conv_den.mean_imiss, 2),
                f(ldlp_dil.mean_imiss, 2),
                f(ldlp_den.mean_imiss, 2),
                f(conv_dil.mean_latency_us, 2),
                f(conv_den.mean_latency_us, 2),
                f(ldlp_dil.mean_latency_us, 2),
                f(ldlp_den.mean_latency_us, 2),
            ]
        })
        .collect();
    let mut out = Output::csv(
        opts.csv_name("ablation_dilution"),
        "rate,conv_imiss_diluted,conv_imiss_dense,ldlp_imiss_diluted,ldlp_imiss_dense,\
         conv_lat_diluted,conv_lat_dense,ldlp_lat_diluted,ldlp_lat_dense",
        rows,
    );
    out.notes.push(format!(
        "measured dilution {:.1}% (paper: ~25%): {} bytes executed across {} lines; a dense \
         layout needs {} lines ({:.1}% fewer); layers shrink {diluted} -> {dense} B",
        d.dilution() * 100.0,
        d.executed_bytes,
        d.lines,
        d.dense_lines,
        d.dense_reduction() * 100.0
    ));
    out.notes.push(format!(
        "outlining projection over the Figure 1 inventory: {} -> {} lines ({:.1}% fewer), \
         {} cold bytes moved out of line",
        rep.lines_before,
        rep.lines_after,
        rep.reduction() * 100.0,
        rep.cold_bytes_moved
    ));
    out
}

/// A3 (Section 3.2): batch-sizing policy. Take-all-available, the
/// paper's cap-at-D-cache-fit (14 messages for this geometry) and fixed
/// block sizes, against the Lam-style analytical optimum of
/// `ldlp::blocking`.
pub fn policy(opts: &RunOpts, _: Observe) -> Output {
    let policies: [(&str, BatchPolicy); 6] = [
        ("all-available", BatchPolicy::AllAvailable),
        ("dcache-fit(14)", BatchPolicy::DCacheFit),
        ("fixed-2", BatchPolicy::Fixed(2)),
        ("fixed-6", BatchPolicy::Fixed(6)),
        ("fixed-12", BatchPolicy::Fixed(12)),
        ("fixed-32", BatchPolicy::Fixed(32)),
    ];
    let mut rows = Vec::new();
    for rate in [6000.0, 9000.0] {
        for (name, policy) in policies {
            let r = poisson_avg(opts, rate, false, |seed| {
                paper_engine(
                    MachineConfig::synthetic_benchmark(),
                    seed,
                    Discipline::Ldlp(policy),
                )
            });
            rows.push(vec![
                f(rate, 0),
                name.to_string(),
                f(r.mean_imiss, 2),
                f(r.mean_dmiss, 2),
                f(r.mean_latency_us, 2),
                f(r.mean_batch, 3),
                r.drops.to_string(),
                f(r.throughput, 1),
            ]);
        }
    }
    let model = BlockingModel::paper_synthetic();
    let best = model.optimal_blocking_factor(64);
    let mut out = Output::csv(
        opts.csv_name("ablation_policy"),
        "rate,policy,imiss,dmiss,latency_us,batch,drops,throughput",
        rows,
    );
    out.notes.push(format!(
        "analytical model: D-cache-fit cap {}, capacity-model optimum {best} (predicted \
         misses/msg {:.0} at B=1, {:.0} at the optimum)",
        model.dcache_fit(),
        model.misses_per_message(1),
        model.misses_per_message(best)
    ));
    out
}

/// A4 (Section 6): "If the future brings processors with large primary
/// caches, will LDLP become irrelevant?" Primary caches from 8 KB to
/// 64 KB (bigger caches with deeper miss penalties, after Rosenblum)
/// for the paper's 30 KB transport stack and a 72 KB "value-added"
/// stack. Sequential (Cord-quality) placement isolates capacity
/// effects: with random placement, conflict misses keep LDLP relevant
/// even when the stack nominally fits.
pub fn cachesize(opts: &RunOpts, _: Observe) -> Output {
    let mut rows = Vec::new();
    for (stack_name, layers, code) in [
        ("transport 30KB", 5usize, 6 * 1024u64),
        ("value-added 72KB", 8, 9 * 1024),
    ] {
        for cache_kb in [8u64, 16, 32, 64] {
            let machine = MachineConfig {
                icache: CacheConfig::direct_mapped(cache_kb * 1024, 32),
                dcache: Some(CacheConfig::direct_mapped(cache_kb * 1024, 32)),
                read_miss_penalty: if cache_kb >= 32 { 30 } else { 20 },
                ..MachineConfig::synthetic_benchmark()
            };
            let run = |discipline: Discipline| {
                poisson_avg(opts, 6000.0, true, |_| {
                    let (m, stack) = stack_sequential(machine, layers, code, 256);
                    StackEngine::new(m, stack, discipline)
                })
            };
            let conv = run(Discipline::Conventional);
            let ldlp = run(LDLP);
            let speedup = if ldlp.mean_latency_us > 0.0 {
                conv.mean_latency_us / ldlp.mean_latency_us
            } else {
                1.0
            };
            rows.push(vec![
                stack_name.to_string(),
                cache_kb.to_string(),
                f(conv.mean_imiss, 2),
                f(ldlp.mean_imiss, 2),
                f(conv.mean_latency_us, 2),
                f(ldlp.mean_latency_us, 2),
                f(speedup, 3),
            ]);
        }
    }
    Output::csv(
        opts.csv_name("ablation_cachesize"),
        "stack,cache_kb,conv_imiss,ldlp_imiss,conv_lat_us,ldlp_lat_us,speedup",
        rows,
    )
}

/// A5: transmit-side LDLP — the extension the paper names but does not
/// evaluate. The receive-and-acknowledge path is duplex: each received
/// message climbs five layers, then its 58-byte ACK descends three 4 KB
/// output layers. Receive-only vs. the full duplex working set,
/// conventional vs. LDLP.
pub fn transmit(opts: &RunOpts, _: Observe) -> Output {
    let run = |discipline: Discipline, duplex: bool, rate: f64| {
        poisson_avg(opts, rate, false, |seed| {
            let engine = paper_engine(MachineConfig::synthetic_benchmark(), seed, discipline);
            if !duplex {
                return engine;
            }
            let (_, tx) = stack_with(
                MachineConfig::synthetic_benchmark(),
                seed ^ 0x7a,
                3,
                4 * 1024,
                256,
            );
            engine.with_tx(tx, 58)
        })
    };
    let rows = [2000.0, 4000.0, 6000.0, 8000.0]
        .iter()
        .map(|&rate| {
            let conv_rx = run(Discipline::Conventional, false, rate);
            let ldlp_rx = run(LDLP, false, rate);
            let conv_dx = run(Discipline::Conventional, true, rate);
            let ldlp_dx = run(LDLP, true, rate);
            vec![
                f(rate, 0),
                f(conv_rx.mean_imiss, 2),
                f(ldlp_rx.mean_imiss, 2),
                f(conv_rx.mean_latency_us, 2),
                f(ldlp_rx.mean_latency_us, 2),
                f(conv_dx.mean_imiss, 2),
                f(ldlp_dx.mean_imiss, 2),
                f(conv_dx.mean_latency_us, 2),
                f(ldlp_dx.mean_latency_us, 2),
            ]
        })
        .collect();
    Output::csv(
        opts.csv_name("ablation_transmit"),
        "rate,rx_conv_imiss,rx_ldlp_imiss,rx_conv_lat_us,rx_ldlp_lat_us,duplex_conv_imiss,\
         duplex_ldlp_imiss,duplex_conv_lat_us,duplex_ldlp_lat_us",
        rows,
    )
}

/// A6: TLB pressure, after Pagels, Druschel & Peterson (cited by the
/// paper). The paper's traces exclude the PAL code that refills the
/// Alpha TLB, but the mechanism is the cache story one level down. The
/// 30 KB transport stack fits a 12-entry ITB, so this reruns the
/// Figure 5 sweep with Alpha-21064-style TLBs on the value-added stack
/// (8 layers × 9 KB, ~20 scattered pages — Section 6's scenario).
pub fn tlb(opts: &RunOpts, _: Observe) -> Output {
    let run = |discipline: Discipline, rate: f64| {
        let runs = per_seed(opts, |seed| {
            let arrivals = PoissonSource::new(rate, 552, seed).take_until(opts.duration_s());
            let cfg = MachineConfig::synthetic_benchmark().with_alpha_tlbs();
            let (m, layers) = stack_with(cfg, seed, 8, 9 * 1024, 256);
            let mut engine = StackEngine::new(m, layers, discipline);
            let sim_cfg = SimConfig {
                duration_s: opts.duration_s(),
                ..SimConfig::default()
            };
            let r = run_sim(&mut engine, &arrivals, &sim_cfg);
            perf::note_machine(engine.machine());
            let s = engine.machine().stats();
            let n = r.completed.max(1) as f64;
            [
                s.itlb.misses as f64 / n,
                s.dtlb.misses as f64 / n,
                r.mean_latency_us,
            ]
        });
        crate::sweep::sums(runs).map(|v| v / opts.seeds() as f64)
    };
    let rows = [1000.0, 3000.0, 5000.0, 7000.0, 9000.0]
        .iter()
        .map(|&rate| {
            let [ci, cd, cl] = run(Discipline::Conventional, rate);
            let [li, ld, ll] = run(LDLP, rate);
            vec![
                f(rate, 0),
                f(ci, 3),
                f(li, 3),
                f(cd, 3),
                f(ld, 3),
                f(cl, 2),
                f(ll, 2),
            ]
        })
        .collect();
    Output::csv(
        opts.csv_name("ablation_tlb"),
        "rate,conv_itlb_per_msg,ldlp_itlb_per_msg,conv_dtlb_per_msg,ldlp_dtlb_per_msg,\
         conv_lat_us,ldlp_lat_us",
        rows,
    )
}

/// Within-layer excess conflict lines summed over layers.
fn layer_conflicts(placed: &[PlacedFunction], cfg: &CacheConfig) -> u64 {
    layer_regions(placed)
        .values()
        .map(|rs| conflict_score(rs, cfg).excess_lines)
        .sum()
}

/// Placed regions grouped by layer.
fn layer_regions(placed: &[PlacedFunction]) -> std::collections::BTreeMap<u32, Vec<Region>> {
    let mut groups: std::collections::BTreeMap<u32, Vec<Region>> = Default::default();
    for p in placed {
        groups.entry(p.group).or_default().push(p.region);
    }
    groups
}

/// Simulated I-cache misses for (a) one conventional receive path (all
/// functions fetched once, in order) and (b) one LDLP layer pass: each
/// layer's functions fetched for a 14-message batch, counting only the
/// re-fetches after the first message — where self-conflicts hurt, since
/// a conflict-free layer stays resident for the whole batch.
fn path_misses(placed: &[PlacedFunction], machine_cfg: MachineConfig) -> (u64, u64) {
    let mut m = Machine::new(machine_cfg);
    let before = m.stats().icache.misses;
    for p in placed {
        m.fetch_code(p.region);
    }
    let cold = m.stats().icache.misses - before;
    let mut batch_refetches = 0;
    for regions in layer_regions(placed).values() {
        m.flush_caches();
        for r in regions {
            m.fetch_code(*r);
        }
        let before = m.stats().icache.misses;
        for _ in 1..14 {
            for r in regions {
                m.fetch_code(*r);
            }
        }
        batch_refetches += m.stats().icache.misses - before;
    }
    (cold, batch_refetches)
}

/// A7: layout sensitivity (Section 4's methodology note). "Because the
/// caches are not fully associative, the number of conflict misses
/// depends on the way the program is laid out in memory": the Figure 1
/// function inventory in an 8 KB direct-mapped I-cache, placed randomly
/// (averaged over seeds), sequentially (link order), greedily
/// (Cord-style colouring) and by simulated annealing.
pub fn layout(opts: &RunOpts, _: Observe) -> Output {
    let sizes: Vec<(u64, u32)> = FUNCTIONS
        .iter()
        .map(|s| (s.touched_lines().max(1) * 32, s.layer as u32))
        .collect();
    let cache = CacheConfig::direct_mapped(8192, 32);
    let machine = MachineConfig::dec3000_400();
    let score = |placed: &[PlacedFunction]| {
        let (cold, steady) = path_misses(placed, machine);
        [layer_conflicts(placed, &cache), cold, steady]
    };
    let random = per_seed(opts, |seed| {
        score(&random_place(&sizes, Region::new(0, 4 << 20), &cache, seed))
    });
    let mut sums = [0u64; 3];
    for r in random {
        for (s, v) in sums.iter_mut().zip(r) {
            *s += v;
        }
    }
    let placements = [
        ("random", sums.map(|s| s / opts.seeds())),
        (
            "sequential (link order)",
            score(&sequential_place(&sizes, 0x1000, &cache)),
        ),
        (
            "greedy (Cord-style)",
            score(&greedy_place(&sizes, 0x1000, &cache, 1)),
        ),
        (
            "annealed",
            score(&anneal_place(
                &sizes,
                0x1000,
                &cache,
                1,
                AnnealConfig::default(),
            )),
        ),
    ];
    let rows = placements
        .iter()
        .map(|(name, s)| {
            let mut row = vec![name.to_string()];
            row.extend(s.iter().map(u64::to_string));
            row
        })
        .collect();
    Output::csv(
        opts.csv_name("ablation_layout"),
        "placement,layer_conflicts,cold_misses,ldlp_batch_refetches",
        rows,
    )
}

/// A8: next-line instruction prefetch (Sections 4 and 5.4): "some
/// processors can prefetch instructions from the second level cache to
/// hide some of the cache miss cost". The latency sweep with prefetch on
/// and off: it roughly halves the conventional schedule's stall bill
/// while LDLP, having already removed most fetches, gains little.
pub fn prefetch(opts: &RunOpts, _: Observe) -> Output {
    let plain = MachineConfig::synthetic_benchmark();
    let pf = plain.with_prefetch();
    let run = |cfg: MachineConfig, d: Discipline, rate: f64| {
        poisson_avg(opts, rate, false, |seed| paper_engine(cfg, seed, d))
    };
    let rows = [2000.0, 4000.0, 6000.0, 8000.0]
        .iter()
        .map(|&rate| {
            let conv = run(plain, Discipline::Conventional, rate);
            let conv_pf = run(pf, Discipline::Conventional, rate);
            let ldlp = run(plain, LDLP, rate);
            let ldlp_pf = run(pf, LDLP, rate);
            vec![
                f(rate, 0),
                f(conv.mean_latency_us, 2),
                f(conv_pf.mean_latency_us, 2),
                f(ldlp.mean_latency_us, 2),
                f(ldlp_pf.mean_latency_us, 2),
                conv.drops.to_string(),
                conv_pf.drops.to_string(),
                ldlp.drops.to_string(),
                ldlp_pf.drops.to_string(),
            ]
        })
        .collect();
    Output::csv(
        opts.csv_name("ablation_prefetch"),
        "rate,conv_lat_us,conv_pf_lat_us,ldlp_lat_us,ldlp_pf_lat_us,conv_drops,conv_pf_drops,\
         ldlp_drops,ldlp_pf_drops",
        rows,
    )
}
