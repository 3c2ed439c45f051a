//! Cache-protection fault campaign: cache-resident BER × protection
//! level over scheduled serving runs — the serving analogue of the
//! paper's accuracy/overhead frontier (Fig. 12).
//!
//! ```text
//! cargo run --release -p ft-bench --bin campaign
//! cargo run --release -p ft-bench --bin campaign -- --smoke   # CI smoke
//! ```
//!
//! Every cell of the sweep runs the same mixed-prompt-length workload
//! through a [`ServeSession`](ft_transformer::ServeSession) with all
//! streams pinned to one [`ProtectionLevel`] and a
//! cache-resident `BerInjector` at one bit-error rate, with partial
//! re-prefill recovery requested (the full detect → correct → recover
//! loop — which `Raw` streams can never enter, since nothing detects).
//! Reported per cell, against the same-level undamaged oracle:
//!
//! * token-match rate (position-wise over the generated continuation);
//! * wall time (`min±IQR` over [`HarnessArgs::rounds`] rounds in which
//!   the two levels of a rung alternate; every round must return the
//!   first round's streams), aggregate tokens/sec from the fastest
//!   round, and the time overhead over `Raw`;
//! * peak cache bytes split into FP16 payload vs FP32 protection
//!   metadata (checksums + max-norm snapshots);
//! * the fault ledger: detected / corrected / recoveries.
//!
//! Hard asserts (CI gates, all deterministic):
//!
//! * metadata bytes order `Raw` (= 0) < `Full`;
//! * at the highest BER rung token match orders `Full` ≥ `Raw`;
//! * every stream retires with a typed finish reason in every cell.

use ft_bench::paper::{Cell, Unit};
use ft_bench::{banner, time_arms, HarnessArgs, TextTable};
use ft_core::efta::EftaOptions;
use ft_sim::{BerInjector, FaultInjector, FaultSite, NoFaults};
use ft_transformer::{
    BackendKind, FinishedStream, GenerationRequest, ModelConfig, ProtectionLevel, RecoveryPolicy,
    SchedulerConfig, SizeBreakdown, TransformerModel,
};
use std::convert::Infallible;

/// One (BER, level) cell of the campaign.
struct Run {
    finished: Vec<FinishedStream>,
    peak: SizeBreakdown,
}

/// Run the workload with every stream at `level` under `inj`, tracking the
/// peak payload/metadata footprint across sweeps.
fn run_cell<I: FaultInjector>(
    model: &TransformerModel,
    prompts: &[Vec<u32>],
    sched_cfg: SchedulerConfig,
    new_tokens: usize,
    level: ProtectionLevel,
    inj: &I,
) -> Run {
    let mut session = model.serve_with(sched_cfg);
    for p in prompts {
        session.submit_request(
            GenerationRequest::new(p.clone(), new_tokens)
                .with_protection(level)
                .with_recovery(RecoveryPolicy::ReprefillPartial { max_attempts: 2 }),
        );
    }
    let finished = session.run(inj);
    let peak = session.peak_cache_breakdown();
    assert_eq!(
        finished.len(),
        prompts.len(),
        "every stream must retire with a typed reason at level {level}"
    );
    Run { finished, peak }
}

/// Position-wise token-match rate of the generated continuations against
/// the same-level undamaged oracle.
fn match_rate(faulted: &[FinishedStream], clean: &[FinishedStream], prompts: &[Vec<u32>]) -> f64 {
    let (mut ok, mut total) = (0usize, 0usize);
    for ((f, c), p) in faulted.iter().zip(clean).zip(prompts) {
        assert_eq!(f.id, c.id, "oracle streams must pair by id");
        let skip = p.len();
        let fg = &f.tokens[skip.min(f.tokens.len())..];
        let cg = &c.tokens[skip.min(c.tokens.len())..];
        total += cg.len();
        ok += fg.iter().zip(cg).filter(|(a, b)| a == b).count();
    }
    ok as f64 / total.max(1) as f64
}

fn main() {
    let args = HarnessArgs::parse();
    let smoke = args.smoke;
    banner("campaign — KV-cache BER × protection level frontier", &args);

    // GPT-2-shaped and causal like the serve bench; small cache blocks
    // keep ragged appends (the append heal) and per-block metadata both in
    // play.
    let (hidden, layers, new_tokens, prompt_cycle, n_streams): (
        usize,
        usize,
        usize,
        Vec<usize>,
        usize,
    ) = if smoke {
        (96, 2, 6, vec![12, 6, 9, 4], 4)
    } else {
        (96, 2, 12, vec![48, 24, 12, 6], 8)
    };
    let cfg = ModelConfig::gpt2().scaled(hidden, layers);
    let model = TransformerModel::random(11, cfg, BackendKind::Efta(EftaOptions::optimized()))
        .with_causal(true)
        .with_cache_block(8);
    let prompts: Vec<Vec<u32>> = (0..n_streams)
        .map(|i| {
            let len = prompt_cycle[i % prompt_cycle.len()];
            (0..len)
                .map(|t| ((t * 97 + i * 131) % cfg.vocab) as u32)
                .collect()
        })
        .collect();
    let sched_cfg = SchedulerConfig {
        max_active: 16,
        prefill_chunk: 16,
        ..Default::default()
    };

    let levels = [ProtectionLevel::Full, ProtectionLevel::Raw];
    let bers: Vec<f64> = if smoke {
        vec![5e-5, 1e-3]
    } else {
        vec![1e-5, 1e-4, 5e-4, 2e-3]
    };

    // Undamaged oracles, one per level (greedy decode is deterministic).
    let oracles: Vec<Run> = levels
        .iter()
        .map(|&l| run_cell(&model, &prompts, sched_cfg, new_tokens, l, &NoFaults))
        .collect();

    let raw_clean_matches = oracles[1]
        .finished
        .iter()
        .zip(&oracles[0].finished)
        .all(|(f, c)| f.tokens == c.tokens);

    // Metadata overhead per level (peak of the clean runs).
    println!("cache footprint per level (clean runs):");
    let mut table = TextTable::new(&["protection", "payload B", "metadata B", "overhead"]);
    for (l, o) in levels.iter().zip(&oracles) {
        table.row(&[
            format!("{l}"),
            format!("{}", o.peak.payload_bytes),
            format!("{}", o.peak.metadata_bytes()),
            format!(
                "{:.1}%",
                100.0 * o.peak.metadata_bytes() as f64 / o.peak.payload_bytes.max(1) as f64
            ),
        ]);
    }
    print!("{}", table.render());
    let meta = |i: usize| oracles[i].peak.metadata_bytes();
    assert_eq!(meta(1), 0, "raw must store no protection metadata");
    assert!(meta(1) < meta(0), "metadata bytes must order raw < full");
    println!("clean raw run == clean full run: {raw_clean_matches}\n");

    // The frontier: BER × level.
    println!("accuracy/overhead frontier (token match vs same-level clean oracle):");
    let mut table = TextTable::new(&[
        "cache BER",
        "protection",
        "tok match",
        "ms",
        "tok/s",
        "vs raw",
        "detected",
        "corrected",
        "recoveries",
    ]);
    let mut top_rung: Vec<f64> = Vec::new();
    let generated = (n_streams * new_tokens) as f64;
    for (bi, &ber) in bers.iter().enumerate() {
        // The rung's two levels alternate; each round must return the
        // first round's streams.
        let mut first: Vec<Option<Vec<_>>> = vec![None; levels.len()];
        let arms = time_arms(args.rounds(), levels.len(), |li| {
            let inj = BerInjector::new(6000 + bi as u64, ber).with_sites(&[FaultSite::KvCache]);
            let run = run_cell(&model, &prompts, sched_cfg, new_tokens, levels[li], &inj);
            let streams: Vec<_> = run
                .finished
                .iter()
                .map(|f| (f.id, f.tokens.clone(), f.attention, f.finish, f.recoveries))
                .collect();
            let first = first[li].get_or_insert_with(|| streams.clone());
            assert_eq!(&streams, first, "timing rounds must be deterministic");
            Ok::<_, Infallible>(run)
        });
        let arms: Vec<_> = arms.into_iter().map(|Ok(arm)| arm).collect();
        let t_raw = arms[1].1;
        for (li, (&level, (run, t))) in levels.iter().zip(&arms).enumerate() {
            let rate = match_rate(&run.finished, &oracles[li].finished, &prompts);
            let sum = |f: fn(&FinishedStream) -> u64| run.finished.iter().map(f).sum::<u64>();
            let vs_raw = match level {
                ProtectionLevel::Raw => Cell::Text("-".into()),
                _ => Cell::Num(t.overhead(t_raw), Unit::Pct),
            };
            table.row(&[
                format!("{ber:.0e}"),
                format!("{level}"),
                format!("{:.3}", rate),
                Cell::Time(*t).to_string(),
                format!("{:.1}", generated / t.min),
                vs_raw.to_string(),
                format!("{}", sum(|f| f.attention.cache_detected)),
                format!("{}", sum(|f| f.attention.cache_corrected)),
                format!("{}", sum(|f| f.recoveries as u64)),
            ]);
            if bi + 1 == bers.len() {
                top_rung.push(rate);
            }
        }
    }
    print!("{}", table.render());

    // The acceptance gate: at the highest BER rung protection must not
    // lose tokens against no protection — Full >= Raw.
    let (m_full, m_raw) = (top_rung[0], top_rung[1]);
    let top_ber = bers[bers.len() - 1];
    assert!(
        m_full >= m_raw,
        "token match must order full ({m_full:.3}) >= raw ({m_raw:.3}) at BER {top_ber:.0e}"
    );
    println!(
        "\nat BER {top_ber:.0e}: token match full {m_full:.3} >= raw {m_raw:.3} \
         (hard-asserted); metadata bytes raw < full (hard-asserted)"
    );
}
