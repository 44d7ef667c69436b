//! The paper's own tables and figures (Tables 1–3, Figures 1 and 4–8),
//! its Section 1 signalling goal, the Section 2.4 trace replay and the
//! Section 3.1 batch dynamics.

use crate::sweep::{clock, poisson, seed_average};
use crate::{f, perf, Observe, Output, RunOpts};
use cachesim::{CacheConfig, Machine, MachineConfig, Region};
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use memtrace::replay::replay_steady;
use memtrace::workingset::{line_size_sweep, working_set};
use memtrace::{figmap, phases};
use netstack::checksum::{ELABORATE_FOOTPRINT_BYTES, SIMPLE_FOOTPRINT_BYTES};
use netstack::footprint::{
    build_receive_ack_trace, Layer, PAPER_CODE_BYTES, PAPER_MUT_BYTES, PAPER_RO_BYTES,
};
use signaling::workload::{call_arrivals, goal_machine, signaling_stack, SIGNALING_LAYERS};
use simnet::stats::SimReport;
use simnet::traffic::{MmppSource, PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

/// Table 1: working-set sizes in the NetBSD TCP receive-and-acknowledge
/// path, by layer, split into code / read-only data / mutable data,
/// beside the paper's published values.
pub fn table1(opts: &RunOpts, _: Observe) -> Output {
    let trace = build_receive_ack_trace();
    trace.validate().expect("trace is well-formed");
    let ws = working_set(&trace, 32);
    let rows = ws
        .rows
        .iter()
        .enumerate()
        .map(|(li, row)| {
            vec![
                Layer::NAMES[li].to_string(),
                row.code.bytes.to_string(),
                row.ro_data.bytes.to_string(),
                row.mut_data.bytes.to_string(),
                PAPER_CODE_BYTES[li].to_string(),
                PAPER_RO_BYTES[li].to_string(),
                PAPER_MUT_BYTES[li].to_string(),
            ]
        })
        .collect();
    Output::csv(
        opts.csv_name("table1"),
        "layer,code_bytes,ro_bytes,mut_bytes,paper_code,paper_ro,paper_mut",
        rows,
    )
}

/// Figure 1 + Table 2: per-phase reference footers of the receive-and-
/// acknowledge path, the per-function coverage map, and an SVG
/// lookalike of the paper's active-code figure.
pub fn figure1(opts: &RunOpts, _: Observe) -> Output {
    let trace = build_receive_ack_trace();
    let phases = phases::phase_summaries(&trace)
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.write.bytes.to_string(),
                s.write.refs.to_string(),
                s.read.bytes.to_string(),
                s.read.refs.to_string(),
                s.code.bytes.to_string(),
                s.code.refs.to_string(),
            ]
        })
        .collect();
    let coverage = figmap::function_coverage(&trace);
    let cov_rows = coverage
        .iter()
        .filter(|c| c.touched_total > 0)
        .map(|c| {
            let mut row = vec![
                c.name.clone(),
                c.size.to_string(),
                c.touched_total.to_string(),
            ];
            row.extend(c.touched_per_phase.iter().map(|t| t.to_string()));
            row
        })
        .collect();
    let mut out = Output::csv(
        opts.csv_name("figure1_phases"),
        "phase,write_bytes,write_refs,read_bytes,read_refs,code_bytes,code_refs",
        phases,
    );
    out.csvs.push(crate::Csv {
        name: opts.csv_name("figure1_coverage"),
        header: "function,size,touched,entry,pkt_intr,exit",
        rows: cov_rows,
    });
    out.files.push((
        "figure1_map.svg".into(),
        figmap::render_svg(&trace, &coverage),
    ));
    out
}

/// Table 3: effect of cache-line size on the working set of the TCP/IP
/// trace, relative to the 32-byte baseline, per class.
pub fn table3(opts: &RunOpts, _: Observe) -> Output {
    let trace = build_receive_ack_trace();
    let sweep = line_size_sweep(&trace, &[4, 8, 16, 32, 64], 32);
    let rows = [64u64, 32, 16, 8, 4]
        .iter()
        .map(|&ls| {
            let r = sweep.iter().find(|r| r.line_size == ls).expect("swept");
            vec![
                ls.to_string(),
                f(r.code.d_bytes_pct, 1),
                f(r.code.d_lines_pct, 1),
                f(r.ro_data.d_bytes_pct, 1),
                f(r.ro_data.d_lines_pct, 1),
                f(r.mut_data.d_bytes_pct, 1),
                f(r.mut_data.d_lines_pct, 1),
                r.code.lines.to_string(),
                r.ro_data.lines.to_string(),
                r.mut_data.lines.to_string(),
            ]
        })
        .collect();
    Output::csv(
        opts.csv_name("table3"),
        "line_size,code_d_bytes_pct,code_d_lines_pct,ro_d_bytes_pct,ro_d_lines_pct,\
         mut_d_bytes_pct,mut_d_lines_pct,code_lines,ro_lines,mut_lines",
        rows,
    )
}

/// The arrival-rate grid of Figures 5 and 6 (messages/second).
pub fn figure5_rates() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 500.0).collect()
}

/// The CPU-clock grid of Figure 7 (MHz).
pub const FIGURE7_CLOCKS: [f64; 11] = [
    10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0, 70.0, 80.0,
];

/// Figure 5: instruction- and data-cache misses per message vs. arrival
/// rate, Poisson 552-byte messages, conventional vs. LDLP vs. ILP.
///
/// Expected shape (paper): conventional sits flat near 1000 misses/msg;
/// LDLP's instruction misses fall steeply as batching engages, its data
/// misses rise slightly, and the curve flattens beyond ~8500 msg/s where
/// the D-cache-fit batch cap (14 messages) binds. ILP's instruction
/// misses match conventional's: integrating the data loops cannot help
/// when the code, not the data, is the traffic.
pub fn figure5(opts: &RunOpts, observe: Observe) -> Output {
    let rates = figure5_rates();
    poisson(opts, MachineConfig::synthetic_benchmark(), &rates).output(
        opts,
        observe,
        "figure5",
        "rate,conv_imiss,conv_dmiss,ldlp_imiss,ldlp_dmiss,ldlp_batch,conv_batch,\
         conv_imiss_std,ldlp_imiss_std,ilp_imiss,ilp_dmiss",
        |p| {
            let ilp = p.ilp.as_ref().expect("poisson sweep provides ILP");
            vec![
                f(p.x, 0),
                f(p.conventional.mean_imiss, 2),
                f(p.conventional.mean_dmiss, 2),
                f(p.ldlp.mean_imiss, 2),
                f(p.ldlp.mean_dmiss, 2),
                f(p.ldlp.mean_batch, 3),
                f(p.conventional.mean_batch, 3),
                f(p.conventional.imiss_std, 2),
                f(p.ldlp.imiss_std, 2),
                f(ilp.mean_imiss, 2),
                f(ilp.mean_dmiss, 2),
            ]
        },
    )
}

/// Figure 6: latency vs. arrival rate, Poisson traffic, 500-packet
/// buffer.
///
/// Expected shape (paper): both schedules sit near the single-message
/// service time (~300 us) at light load; conventional saturates near
/// 3500 msg/s and its latency climbs toward the buffer bound (~100 ms,
/// with drops); LDLP keeps latency low to ~9500 msg/s because batching
/// raises throughput and cuts queueing.
pub fn figure6(opts: &RunOpts, observe: Observe) -> Output {
    let rates = figure5_rates();
    poisson(opts, MachineConfig::synthetic_benchmark(), &rates).output(
        opts,
        observe,
        "figure6",
        "rate,conv_latency_us,ldlp_latency_us,conv_p99_us,ldlp_p99_us,conv_drops,ldlp_drops,\
         conv_throughput,ldlp_throughput,conv_latency_std_us,ldlp_latency_std_us",
        |p| {
            vec![
                f(p.x, 0),
                f(p.conventional.mean_latency_us, 2),
                f(p.ldlp.mean_latency_us, 2),
                f(p.conventional.p99_latency_us, 2),
                f(p.ldlp.p99_latency_us, 2),
                p.conventional.drops.to_string(),
                p.ldlp.drops.to_string(),
                f(p.conventional.throughput, 1),
                f(p.ldlp.throughput, 1),
                f(p.conventional.latency_std_us, 2),
                f(p.ldlp.latency_std_us, 2),
            ]
        },
    )
}

/// Figure 7: latency vs. CPU clock, driven by self-similar
/// Ethernet-trace-like traffic (the Bellcore October 1989 trace in the
/// paper; a calibrated Pareto ON/OFF aggregate here — see DESIGN.md's
/// substitution table).
///
/// Expected shape (paper): latency rises as the clock falls;
/// conventional scheduling collapses below ~40 MHz while LDLP batches to
/// maintain throughput and degrades gracefully.
pub fn figure7(opts: &RunOpts, observe: Observe) -> Output {
    clock(opts, MachineConfig::synthetic_benchmark(), &FIGURE7_CLOCKS).output(
        opts,
        observe,
        "figure7",
        "clock_mhz,conv_latency_us,ldlp_latency_us,conv_drops,ldlp_drops,ldlp_batch,\
         conv_throughput,ldlp_throughput",
        |p| {
            vec![
                f(p.x, 0),
                f(p.conventional.mean_latency_us, 2),
                f(p.ldlp.mean_latency_us, 2),
                p.conventional.drops.to_string(),
                p.ldlp.drops.to_string(),
                f(p.ldlp.mean_batch, 3),
                f(p.conventional.throughput, 1),
                f(p.ldlp.throughput, 1),
            ]
        },
    )
}

/// Primary-miss fill cost of the checksum study (the DEC 3000/400's full
/// fill path through the secondary cache).
const FILL_PENALTY: u64 = 30;

/// Figure 8: cache effects in checksum routines — the elaborate 4.4BSD
/// `in_cksum` vs. a simple tight loop, warm and cold (paper Section 5.1).
///
/// Both routines exist for real in `netstack::checksum` (and are
/// property-tested to agree); this models their cycle cost on the
/// paper's machine: per-byte instruction costs fitted to the figure's
/// warm curves (elaborate: high fixed cost, low per-byte; simple: the
/// reverse), plus one miss per active code line when the cache is
/// cold. Expected shape: warm, the elaborate routine wins at nearly all
/// sizes; cold, the simple routine wins up to ~900 bytes.
pub fn figure8(opts: &RunOpts, _: Observe) -> Output {
    let mut m = Machine::new(MachineConfig {
        icache: CacheConfig::direct_mapped(8 * 1024, 32),
        dcache: Some(CacheConfig::direct_mapped(8 * 1024, 32)),
        read_miss_penalty: FILL_PENALTY,
        ..MachineConfig::dec3000_400()
    });
    // Cycles to checksum with a routine of the given active code region;
    // the message data is cache-resident in all cases, as in the paper.
    let mut cycles = |code: Region, instr: u64, cold: bool| {
        if cold {
            m.flush_caches();
        } else {
            m.fetch_code(code);
        }
        let before = m.cycles();
        m.fetch_code(code);
        m.execute(instr);
        m.cycles() - before
    };
    let mut rows = Vec::new();
    for n in (0..=1000u64).step_by(16) {
        // The elaborate routine touches its full footprint once the
        // 32-byte unrolled loop is entered, only the fix-up paths below.
        let e_code = Region::new(
            0x10_000,
            if n >= 32 {
                ELABORATE_FOOTPRINT_BYTES
            } else {
                448
            },
        );
        let s_code = Region::new(0x20_000, SIMPLE_FOOTPRINT_BYTES);
        let e_instr = 176 + (0.70 * n as f64) as u64;
        let s_instr = 80 + (1.54 * n as f64) as u64;
        rows.push(vec![
            n.to_string(),
            cycles(e_code, e_instr, false).to_string(),
            cycles(s_code, s_instr, false).to_string(),
            cycles(e_code, e_instr, true).to_string(),
            cycles(s_code, s_instr, true).to_string(),
        ]);
    }
    Output::csv(
        opts.csv_name("figure8"),
        "size,elaborate_warm,simple_warm,elaborate_cold,simple_cold",
        rows,
    )
}

/// Figure 4's regime boundary, made quantitative: "for large-message
/// protocols, one is a good blocking factor ... It is small-message
/// protocols which benefit from LDLP."
///
/// Sweeps the message size from 64 bytes to 16 KB at a fixed offered
/// *byte* rate (552-byte messages at 5000 msg/s), all three
/// disciplines. Small messages: ILP is indistinguishable from
/// conventional and LDLP wins. Large messages: the D-cache-fit batch
/// degenerates to 1, LDLP converges to conventional, and ILP takes over
/// (its data loops touch the message once instead of once per layer).
pub fn figure4_regimes(opts: &RunOpts, _: Observe) -> Output {
    let byte_rate = 552.0 * 5000.0;
    let run = |discipline: Discipline, msg_bytes: u32| {
        let rate = (byte_rate / msg_bytes as f64).min(20_000.0);
        seed_average(opts, |seed| {
            let arrivals = PoissonSource::new(rate, msg_bytes, seed).take_until(opts.duration_s());
            let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
            let mut engine = StackEngine::new(m, layers, discipline);
            let cfg = SimConfig {
                duration_s: opts.duration_s(),
                pool_bufs: 32,
                pool_buf_bytes: 17 * 1024,
                pool_seed: seed,
                ..SimConfig::default()
            };
            let report = run_sim(&mut engine, &arrivals, &cfg);
            perf::note_machine(engine.machine());
            report
        })
    };
    let rows = [64u32, 256, 552, 1024, 4096, 16384]
        .iter()
        .map(|&msg| {
            let conv = run(Discipline::Conventional, msg);
            let ilp = run(Discipline::Ilp, msg);
            let ldlp = run(Discipline::Ldlp(BatchPolicy::DCacheFit), msg);
            vec![
                msg.to_string(),
                f(conv.mean_imiss, 2),
                f(conv.mean_dmiss, 2),
                f(ilp.mean_imiss, 2),
                f(ilp.mean_dmiss, 2),
                f(ldlp.mean_imiss, 2),
                f(ldlp.mean_dmiss, 2),
                f(conv.mean_latency_us, 2),
                f(ilp.mean_latency_us, 2),
                f(ldlp.mean_latency_us, 2),
                f(ldlp.mean_batch, 3),
            ]
        })
        .collect();
    Output::csv(
        opts.csv_name("figure4_regimes"),
        "msg_bytes,conv_imiss,conv_dmiss,ilp_imiss,ilp_dmiss,ldlp_imiss,ldlp_dmiss,conv_lat_us,\
         ilp_lat_us,ldlp_lat_us,ldlp_batch",
        rows,
    )
}

/// Experiment G1: the paper's Section 1 goal — "support 10000 pairs of
/// setup/teardown requests per second with processing latency of 100
/// microseconds for setup requests, using just a commodity workstation
/// processor." The four-layer Q.93B-shaped signalling stack under paired
/// SETUP/RELEASE load, conventional vs. LDLP, on a 500 MHz workstation
/// model. `processing_us` is the amortized per-message processing cost
/// the goal refers to; `latency_us` includes queueing.
pub fn signaling_goal(opts: &RunOpts, _: Observe) -> Output {
    let machine = goal_machine();
    let instr: u64 = SIGNALING_LAYERS.iter().map(|l| l.3).sum();
    let run = |discipline: Discipline, pairs_per_s: f64| {
        seed_average(opts, |seed| {
            let arrivals = call_arrivals(pairs_per_s, 0.02, opts.duration_s(), seed);
            let (m, layers) = signaling_stack(goal_machine(), seed);
            let mut engine = StackEngine::new(m, layers, discipline);
            let cfg = SimConfig {
                duration_s: opts.duration_s(),
                ..SimConfig::default()
            };
            let report = run_sim(&mut engine, &arrivals, &cfg);
            perf::note_machine(engine.machine());
            report
        })
    };
    let proc_us = |r: &SimReport| {
        (instr as f64
            + r.mean_imiss * machine.read_miss_penalty as f64
            + r.mean_dmiss * machine.read_miss_penalty as f64)
            / machine.clock_mhz
    };
    let rows = [2_000.0, 5_000.0, 8_000.0, 10_000.0, 12_000.0, 15_000.0]
        .iter()
        .map(|&pairs| {
            let conv = run(Discipline::Conventional, pairs);
            let ldlp = run(Discipline::Ldlp(BatchPolicy::DCacheFit), pairs);
            vec![
                f(pairs, 0),
                f(conv.mean_latency_us, 2),
                f(ldlp.mean_latency_us, 2),
                f(conv.p99_latency_us, 2),
                f(ldlp.p99_latency_us, 2),
                f(proc_us(&conv), 2),
                f(proc_us(&ldlp), 2),
                conv.drops.to_string(),
                ldlp.drops.to_string(),
                f(conv.throughput, 1),
                f(ldlp.throughput, 1),
            ]
        })
        .collect();
    Output::csv(
        opts.csv_name("signaling_goal"),
        "pairs_per_s,conv_latency_us,ldlp_latency_us,conv_p99_us,ldlp_p99_us,conv_processing_us,\
         ldlp_processing_us,conv_drops,ldlp_drops,conv_throughput,ldlp_throughput",
        rows,
    )
}

/// Section 2.4's memory-traffic argument, made executable: replay the
/// TCP receive-and-acknowledge trace through direct-mapped caches, five
/// packets back to back, and measure what is fetched from off the CPU.
/// The paper: "about 35 KB of code and read-only data is fetched and
/// discarded" per packet on an 8 KB machine, vs ~2.2 KB of message
/// movement (device→mbuf, checksum, mbuf→user).
pub fn trace_replay(opts: &RunOpts, _: Observe) -> Output {
    let trace = build_receive_ack_trace();
    let rows = [8u64, 16, 32, 64]
        .iter()
        .map(|&cache_kb| {
            let cfg = MachineConfig {
                icache: CacheConfig::direct_mapped(cache_kb * 1024, 32),
                dcache: Some(CacheConfig::direct_mapped(cache_kb * 1024, 32)),
                ..MachineConfig::dec3000_400()
            };
            let (cold, steady) = replay_steady(&trace, cfg, 5);
            vec![
                cache_kb.to_string(),
                cold.imisses.to_string(),
                cold.dmisses.to_string(),
                steady.imisses.to_string(),
                steady.dmisses.to_string(),
                steady.miss_bytes.to_string(),
            ]
        })
        .collect();
    Output::csv(
        opts.csv_name("trace_replay"),
        "cache_kb,cold_imisses,cold_dmisses,steady_imisses,steady_dmisses,steady_miss_bytes",
        rows,
    )
}

/// Dynamics of the online LDLP algorithm (Section 3.1): "under light
/// load, messages will usually be processed singly, minimizing delay.
/// Under heavy load, messages will be processed in batches, maximizing
/// throughput." Regime-switching MMPP load (quiet 1000 msg/s, bursts of
/// 9000 msg/s, ~100 ms regimes) with every batch recorded, downsampled
/// into 50 ms bins: the batch factor tracks the offered load with no
/// controller — an emergent property of "take everything that has
/// arrived".
pub fn dynamics(opts: &RunOpts, _: Observe) -> Output {
    let duration = opts.duration_s();
    let arrivals = MmppSource::two_state(1000.0, 9000.0, 0.1, 552, 42).take_until(duration);
    let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 7);
    let mut engine = StackEngine::new(m, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
    // The loop's batch spans carry each batch's start on the simulated
    // clock, its size, and the queue depth left behind (`aux`).
    engine.set_sink(obs::Sink::record(true), "");
    let cfg = SimConfig {
        duration_s: duration,
        ..SimConfig::default()
    };
    let report = run_sim(&mut engine, &arrivals, &cfg);
    let cycles_per_s = engine.machine().config().clock_mhz * 1e6;
    let mut rec = engine.take_sink().into_recorder().expect("sink attached");
    let batch = rec.intern("batch");
    let batches: Vec<&obs::SpanEvent> = rec.events().iter().filter(|ev| ev.name == batch).collect();

    let bin_s = 0.05;
    let bins = (duration / bin_s).ceil() as usize;
    let mut batch_sum = vec![0f64; bins];
    let mut batch_n = vec![0u32; bins];
    let mut queue_max = vec![0u64; bins];
    let mut arr_count = vec![0u32; bins];
    for ev in &batches {
        let time_s = ev.start as f64 / cycles_per_s;
        let b = ((time_s / bin_s) as usize).min(bins - 1);
        batch_sum[b] += f64::from(ev.batch);
        batch_n[b] += 1;
        queue_max[b] = queue_max[b].max(ev.aux + u64::from(ev.batch));
    }
    for a in &arrivals {
        arr_count[((a.time_s / bin_s) as usize).min(bins - 1)] += 1;
    }
    let rows = (0..bins)
        .map(|b| {
            let mean_batch = if batch_n[b] == 0 {
                0.0
            } else {
                batch_sum[b] / batch_n[b] as f64
            };
            vec![
                f(b as f64 * bin_s, 3),
                f(arr_count[b] as f64 / bin_s, 0),
                f(mean_batch, 2),
                queue_max[b].to_string(),
            ]
        })
        .collect();
    let mut out = Output::csv(
        opts.csv_name("dynamics"),
        "time_s,offered_per_s,mean_batch,max_queue",
        rows,
    );
    out.notes.push(format!(
        "overall: {} arrivals, {} batches, mean batch {:.1}, mean latency {:.0} us, {} drops",
        arrivals.len(),
        batches.len(),
        report.mean_batch,
        report.mean_latency_us,
        report.drops
    ));
    out
}
