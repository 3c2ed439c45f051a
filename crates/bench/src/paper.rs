//! The paper's evaluation — Figs. 9–15 and Tables 1–2 — as data. Each
//! entry of [`FIGURES`] returns [`Section`]s of typed [`Cell`]s: our
//! measurement, the simulated-A100 number at paper size, and the paper's
//! own figures in the notes. The `paper` binary prints them, and
//! `tests/paper_claims.rs` asserts the deterministic claims through the
//! same functions.
//!
//! Every wall-clock cell comes from [`time_arms`]: the minimum and IQR of
//! [`HarnessArgs::rounds`] rounds in which the arms alternate. A derived
//! cell (an overhead or a speedup) whose two minimums differ by no more
//! than the larger IQR prints `unresolved` (see [`Timing::gap_over`]).

use crate::{attention_workload, bar, ms, pct, time_arms, HarnessArgs, TextTable, Timing};
use ft_abft::thresholds::Thresholds;
use ft_core::backend::{AttentionBackend, AttentionRequest, BackendError, BackendKind};
use ft_core::decoupled::{hbm_demand, DecoupledOptions};
use ft_core::efta::{EftaOptions, GemmProtection, SoftmaxProtection};
use ft_core::{decoupled_analytic_timeline, efta_analytic_stats, AttentionConfig};
use ft_core::{AttentionOutput, PhaseBreakdown};
use ft_inject::{abft_threshold_sweep, coverage_campaign, restriction_error_distribution};
use ft_inject::{snvr_threshold_sweep, CoverageStats, DetectionStats, GemmShape, Scheme};
use ft_inject::{RestrictionComparison, ThresholdSweep};
use ft_sim::cost::{CostModel, Timeline};
use ft_sim::device::Device;
use ft_sim::{FaultSite, NoFaults, OpCoord, SeuInjector};
use ft_transformer::{LinearProtection, ModelConfig, TransformerModel};
use std::convert::Infallible;
use std::fmt;

/// A figure's command-line name, its title, and the function computing it.
pub type Figure = (&'static str, &'static str, fn(&HarnessArgs) -> Vec<Section>);

/// Every figure and table, in the paper's order.
#[rustfmt::skip]
pub const FIGURES: [Figure; 9] = [
    ("fig09", "Figure 9: E2E FT attention vs decoupled FT attention", fig09),
    ("fig10", "Figure 10: FT overhead breakdown of EFTA with traditional protection", fig10),
    ("fig11", "Figure 11: strided ABFT vs traditional ABFT inside EFTA", fig11),
    ("fig12", "Figure 12: ABFT protection ability", fig12),
    ("fig13", "Figure 13: DMR vs SNVR softmax protection in EFTA", fig13),
    ("fig14", "Figure 14: SNVR detection sweep and restriction quality", fig14),
    ("fig15", "Figure 15: EFTA on Transformer models (input length 512)", fig15),
    ("table1", "Table 1: EFTA vs optimized EFTA (head=16, dim=64)", |args| table(args, SETTINGS[0],
        "paper: overhead 53% → 15.3% avg, 1.32x speedup, 7.56x vs decoupled")),
    ("table2", "Table 2: EFTA vs optimized EFTA (head=32, dim=128)", |args| table(args, SETTINGS[1],
        "paper: overhead 22.7% → 12.5% avg, 3.69x vs decoupled")),
];

/// One table cell, typed so a caller can read the number behind it.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label, count or bar.
    Text(String),
    /// A measured arm, printed in milliseconds as `min±IQR`.
    Time(Timing),
    /// A number in a unit; `None` is a derived cell left unresolved.
    Num(Option<f64>, Unit),
}

/// How a [`Cell::Num`] prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Seconds, printed in milliseconds.
    Ms,
    /// A fraction, printed as a percentage with one decimal (`15.3%`).
    Pct,
    /// A ratio, printed as a whole percentage (`447%`, as in Fig. 9).
    WholePct,
    /// A ratio, printed as a multiple (`1.32x`, as in Tables 1–2).
    Times,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Time(t) => write!(f, "{}±{}", ms(t.min), ms(t.iqr)),
            Cell::Num(None, _) => f.write_str("unresolved"),
            Cell::Num(Some(x), Unit::Ms) => f.write_str(&ms(*x)),
            Cell::Num(Some(x), Unit::Pct) => f.write_str(&pct(*x)),
            Cell::Num(Some(x), Unit::WholePct) => write!(f, "{:.0}%", x * 100.0),
            Cell::Num(Some(x), Unit::Times) => write!(f, "{x:.2}x"),
        }
    }
}

fn text(s: impl Into<String>) -> Cell {
    Cell::Text(s.into())
}

fn percent(x: Option<f64>) -> Cell {
    Cell::Num(x, Unit::Pct)
}

/// A table column: its header and how one row fills it.
type Column<'a, R> = (&'static str, &'a dyn Fn(&R) -> Cell);

/// One printed table: a title, typed rows, and the lines under it.
#[derive(Clone, Debug)]
pub struct Section {
    /// Printed as `--- title ---`.
    pub title: String,
    /// Column headers.
    pub header: Vec<&'static str>,
    /// One row per sweep point, threshold, bin or model.
    pub rows: Vec<Vec<Cell>>,
    /// Our summary and the paper's numbers, one line each.
    pub notes: Vec<String>,
}

impl Section {
    fn new<R>(title: &str, rows: &[R], cols: &[Column<R>], notes: Vec<String>) -> Self {
        Section {
            title: title.to_string(),
            header: cols.iter().map(|c| c.0).collect(),
            rows: rows
                .iter()
                .map(|r| cols.iter().map(|c| c.1(r)).collect())
                .collect(),
            notes,
        }
    }

    /// The mean of column `col` over the rows where it resolved.
    fn resolved_mean(&self, col: usize) -> String {
        let (mut vals, mut unit) = (Vec::new(), Unit::Pct);
        for row in &self.rows {
            if let Cell::Num(x, u) = row[col] {
                vals.extend(x);
                unit = u;
            }
        }
        let mean = (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64);
        let resolved = format!("{} of {} rows resolved", vals.len(), self.rows.len());
        format!("{} ({resolved})", Cell::Num(mean, unit))
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = TextTable::new(&self.header);
        for row in &self.rows {
            table.row(&row.iter().map(Cell::to_string).collect::<Vec<_>>());
        }
        writeln!(f, "--- {} ---\n{}", self.title, table.render())?;
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        if !self.notes.is_empty() {
            writeln!(f)?;
        }
        Ok(())
    }
}

/// One of the paper's two attention settings: the label the figures print,
/// and its scaled config at one swept length.
pub type Setting = (&'static str, fn(&HarnessArgs, usize) -> AttentionConfig);

/// The medium (h=16, d=64) and large (h=32, d=128) settings.
pub const SETTINGS: [Setting; 2] = [
    ("head=16, dim=64", HarnessArgs::medium_cfg),
    ("head=32, dim=128", HarnessArgs::large_cfg),
];

/// Simulated-A100 seconds of the fused kernel under `opts` at a
/// paper-size config.
pub fn sim_efta(full: &AttentionConfig, opts: &EftaOptions) -> f64 {
    let mut tl = Timeline::new();
    tl.push("efta", efta_analytic_stats(full, opts));
    tl.simulated_time(&CostModel::a100_pcie_40gb())
}

/// Simulated-A100 seconds of the decoupled FT pipeline at a paper-size
/// config.
pub fn sim_decoupled(full: &AttentionConfig) -> f64 {
    decoupled_analytic_timeline(full, true).simulated_time(&CostModel::a100_pcie_40gb())
}

/// True when the decoupled FT pipeline at a paper-size config needs more
/// HBM than the 40 GB card has (Fig. 9's missing bars).
pub fn decoupled_ooms(full: &AttentionConfig) -> bool {
    hbm_demand(full, true) > Device::a100_40gb().hbm.capacity()
}

/// Fig. 11's arms: no GEMM protection, traditional and strided ABFT, with
/// the softmax unprotected and per-step verification throughout.
pub fn gemm_arms() -> [EftaOptions; 3] {
    let base = EftaOptions {
        softmax: SoftmaxProtection::Unprotected,
        ..EftaOptions::per_step()
    };
    use GemmProtection::*;
    [Unprotected, Traditional, Strided].map(|gemm| EftaOptions { gemm, ..base })
}

/// Fig. 13's arms: no softmax protection, DMR and SNVR, with strided ABFT
/// on the GEMMs and per-step verification throughout.
pub fn softmax_arms() -> [EftaOptions; 3] {
    let base = EftaOptions::per_step();
    use SoftmaxProtection::*;
    [Unprotected, Dmr, Snvr].map(|softmax| EftaOptions { softmax, ..base })
}

/// One point of an attention sweep: a setting at one swept length.
struct Point {
    /// The paper's axis label with the scaled length (`1k→128`).
    label: String,
    /// The paper-size twin, for simulated-A100 cells.
    full: AttentionConfig,
    arms: Vec<Result<(AttentionOutput, Timing), BackendError>>,
}

impl Point {
    /// The last output and timing of an arm that cannot fail.
    fn arm(&self, i: usize) -> &(AttentionOutput, Timing) {
        self.arms[i].as_ref().expect("only decoupled arms fail")
    }

    fn t(&self, i: usize) -> Timing {
        self.arm(i).1
    }

    fn time(&self, i: usize) -> Cell {
        Cell::Time(self.t(i))
    }

    fn overhead(&self, i: usize, base: usize) -> Cell {
        percent(self.t(i).overhead(self.t(base)))
    }
}

/// Time `arms` at every swept length of each setting, one section per
/// setting; `paper` goes under the last.
fn sweep(
    args: &HarnessArgs,
    settings: &[Setting],
    arms: &[BackendKind],
    cols: &[Column<Point>],
    paper: &str,
) -> Vec<Section> {
    let mut sections: Vec<_> = settings
        .iter()
        .map(|&(name, setting_cfg)| {
            let points = args.sweep_seqs().into_iter().zip(args.sweep_labels());
            let points = points.enumerate().map(|(idx, (seq, label))| {
                let cfg = setting_cfg(args, seq);
                let full = args.full_cfg(&cfg, idx);
                // Only the decoupled arms read the device. It holds the
                // same share of their HBM demand as the 40 GB card does
                // at paper size, so they OOM exactly where Fig. 9 does.
                let share = hbm_demand(&cfg, true) as f64 / hbm_demand(&full, true) as f64;
                let card = Device::a100_40gb().hbm.capacity() as f64;
                let dev = Device::with_capacity((card * share) as u64);
                let (q, k, v) = attention_workload(&cfg, args.seed + idx as u64);
                let req = AttentionRequest::new(cfg, &q, &k, &v).with_device(&dev);
                let arms = time_arms(args.rounds(), arms.len(), |i| arms[i].try_run(&req));
                Point { label, full, arms }
            });
            Section::new(name, &points.collect::<Vec<_>>(), cols, vec![])
        })
        .collect();
    if let Some(last) = sections.last_mut() {
        last.notes.push(paper.to_string());
    }
    sections
}

fn fig09(args: &HarnessArgs) -> Vec<Section> {
    let arms = [
        BackendKind::Decoupled(DecoupledOptions::unprotected()),
        BackendKind::Decoupled(DecoupledOptions::default()),
        BackendKind::Efta(EftaOptions::unprotected()),
        BackendKind::Efta(EftaOptions::optimized()),
    ];
    let decoupled = |p: &Point, i: usize| match &p.arms[i] {
        Ok((_, t)) => Cell::Time(*t),
        Err(BackendError::Oom(_)) => text("OOM"),
        Err(e) => panic!("decoupled arm failed: {e}"),
    };
    let speedup = |p: &Point| match &p.arms[1] {
        Ok((_, t)) => Cell::Num(t.speedup(p.t(3)), Unit::WholePct),
        Err(_) => text("-"),
    };
    let sim_dec = |p: &Point| sim_decoupled(&p.full);
    let sim_efta = |p: &Point| sim_efta(&p.full, &EftaOptions::optimized());
    let unless_oom = |p: &Point, x, unit| match decoupled_ooms(&p.full) {
        true => text("OOM"),
        false => Cell::Num(Some(x), unit),
    };
    let cols: [Column<Point>; 9] = [
        ("seq", &|p| text(&p.label)),
        ("base3k (ms)", &|p| decoupled(p, 0)),
        ("FT3k (ms)", &|p| decoupled(p, 1)),
        ("e2e (ms)", &|p| p.time(2)),
        ("EFTA (ms)", &|p| p.time(3)),
        ("speedup", &speedup),
        ("simA100 FT3k", &|p| unless_oom(p, sim_dec(p), Unit::Ms)),
        ("simA100 EFTA", &|p| Cell::Num(Some(sim_efta(p)), Unit::Ms)),
        ("sim speedup", &|p| {
            unless_oom(p, sim_dec(p) / sim_efta(p), Unit::WholePct)
        }),
    ];
    let paper = "paper: medium avg speedup 447% (398-520%); large avg 244% (223-308%), \
                 OOM at 16k large";
    sweep(args, &SETTINGS, &arms, &cols, paper)
}

fn fig10(args: &HarnessArgs) -> Vec<Section> {
    let traditional = EftaOptions {
        gemm: GemmProtection::Traditional,
        softmax: SoftmaxProtection::Dmr,
        ..EftaOptions::per_step()
    };
    let arms = [EftaOptions::unprotected(), traditional].map(BackendKind::Efta);
    // Phase timers sum worker-thread time, so each protection phase takes
    // its share of the protection time out of the wall-clock overhead.
    let share = |p: &Point, phase: fn(&PhaseBreakdown) -> f64| {
        let phases = &p.arm(1).0.phases;
        let share = phase(phases) / phases.protect_total().max(1e-12);
        percent(p.t(1).overhead(p.t(0)).map(|o| o * share))
    };
    let cols: [Column<Point>; 6] = [
        ("seq", &|p| text(&p.label)),
        ("e2e (ms)", &|p| p.time(0)),
        ("qkt prot", &|p| share(p, |ph| ph.gemm1_protect)),
        ("softmax prot", &|p| share(p, |ph| ph.softmax_protect)),
        ("pv prot", &|p| share(p, |ph| ph.gemm2_protect)),
        ("total overhead", &|p| p.overhead(1, 0)),
    ];
    let paper =
        "paper: medium avg total 96%, large avg 68%; DMR softmax ≈47%, traditional ABFT ≈35%";
    sweep(args, &SETTINGS, &arms, &cols, paper)
}

fn fig11(args: &HarnessArgs) -> Vec<Section> {
    let opts = gemm_arms();
    let sim_overhead = |p: &Point, i: usize| {
        let [base, arm] = [0, i].map(|j| sim_efta(&p.full, &opts[j]));
        percent(Some((arm - base) / base))
    };
    let cols: [Column<Point>; 8] = [
        ("seq", &|p| text(&p.label)),
        ("e2e (ms)", &|p| p.time(0)),
        ("trad ABFT (ms)", &|p| p.time(1)),
        ("trad ovh", &|p| p.overhead(1, 0)),
        ("strided ABFT (ms)", &|p| p.time(2)),
        ("strided ovh", &|p| p.overhead(2, 0)),
        ("simA100 trad ovh", &|p| sim_overhead(p, 1)),
        ("simA100 strided ovh", &|p| sim_overhead(p, 2)),
    ];
    let paper = "paper: traditional ≈35% avg overhead; strided 11.8% (medium) / 10.5% (large)";
    sweep(args, &SETTINGS, &opts.map(BackendKind::Efta), &cols, paper)
}

fn fig13(args: &HarnessArgs) -> Vec<Section> {
    let [base, dmr, snvr] = softmax_arms();
    let arms = [EftaOptions::unprotected(), base, dmr, snvr].map(BackendKind::Efta);
    // The softmax protection's own overhead, over unprotected E2E.
    let overhead =
        |p: &Point, i: usize| percent(p.t(i).gap_over(p.t(1)).map(|gap| gap / p.t(0).min));
    let cols: [Column<Point>; 6] = [
        ("seq", &|p| text(&p.label)),
        ("e2e (ms)", &|p| p.time(0)),
        ("DMR (ms)", &|p| p.time(2)),
        ("DMR ovh", &|p| overhead(p, 2)),
        ("SNVR (ms)", &|p| p.time(3)),
        ("SNVR ovh", &|p| overhead(p, 3)),
    ];
    let paper = "paper: DMR 62.5%/30.6% avg overhead; SNVR 14.3%/13.6%";
    sweep(args, &SETTINGS, &arms, &cols, paper)
}

/// Tables 1–2: per-step vs unified verification in one setting.
fn table(args: &HarnessArgs, setting: Setting, paper: &str) -> Vec<Section> {
    let arms = [
        EftaOptions::unprotected(),
        EftaOptions::per_step(),
        EftaOptions::optimized(),
    ];
    let cols: [Column<Point>; 6] = [
        ("Length", &|p| text(&p.label)),
        ("EFTA (ms)", &|p| p.time(1)),
        ("Overhead", &|p| p.overhead(1, 0)),
        ("EFTA-o (ms)", &|p| p.time(2)),
        ("Overhead", &|p| p.overhead(2, 0)),
        ("EFTA-o speedup", &|p| {
            Cell::Num(p.t(1).speedup(p.t(2)), Unit::Times)
        }),
    ];
    let mut sections = sweep(args, &[setting], &arms.map(BackendKind::Efta), &cols, paper);
    let average = sections[0].resolved_mean(5);
    let average = format!("average EFTA→EFTA-o speedup: {average}");
    sections[0].notes.insert(0, average);
    sections
}

/// Fig. 12 (left): the coverage campaigns of the tensor and the element
/// checksum, as `(BER, tensor, element)` at each computational BER.
pub fn coverage(args: &HarnessArgs) -> Vec<(f64, CoverageStats, CoverageStats)> {
    // The BER is per bit per operation (32 bits per FP32 FMA). Rows are
    // seq-length wide (4096, the paper's S width at its largest protected
    // extent), so at BER 1e-7 an element-checksum lane sees ≈0.84 faults:
    // multi-fault aliasing breaks the 1-wide checksum while the 8-wide
    // tensor checksum keeps lanes mostly single-fault.
    let shape = GemmShape {
        br: 64,
        bc: 4096,
        d: 64,
    };
    let chk = Thresholds::calibrated().gemm;
    let run = |ber: f64, scheme| {
        coverage_campaign(args.trials, args.seed, ber * 32.0, scheme, shape, chk)
    };
    let bers = [1e-8, 5e-8, 1e-7];
    bers.map(|ber| (ber, run(ber, Scheme::Tensor), run(ber, Scheme::Element)))
        .to_vec()
}

/// Detection and false-alarm rates of a threshold sweep.
fn thresholds(
    title: &str,
    sweep: &ThresholdSweep,
    tau: fn(f32) -> String,
    note: String,
) -> Section {
    let rates = |st: &DetectionStats| (st.detection_rate(), st.false_alarm_rate());
    let rows: Vec<_> = sweep
        .taus
        .iter()
        .zip(&sweep.stats)
        .map(|(&t, st)| (t, rates(st)))
        .collect();
    let cols: [Column<(f32, (f64, f64))>; 5] = [
        ("threshold", &|r| text(tau(r.0))),
        ("detection", &|r| percent(Some(r.1 .0))),
        ("false alarm", &|r| percent(Some(r.1 .1))),
        ("det", &|r| text(bar(r.1 .0, 20))),
        ("fa", &|r| text(bar(r.1 .1, 20))),
    ];
    Section::new(title, &rows, &cols, vec![note])
}

fn fig12(args: &HarnessArgs) -> Vec<Section> {
    let cols: [Column<(f64, CoverageStats, CoverageStats)>; 5] = [
        ("BER", &|r| text(format!("{:.0e}", r.0))),
        ("tensor coverage", &|r| percent(Some(r.1.coverage()))),
        ("element coverage", &|r| percent(Some(r.2.coverage()))),
        ("tensor faults", &|r| text(r.1.injected.to_string())),
        ("element faults", &|r| text(r.2.injected.to_string())),
    ];
    let paper = "paper @1e-7: tensor checksum 92.5%, element checksum 48%".to_string();
    let title = "ABFT's Protection Ability (coverage vs BER)";
    let taus = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.48, 0.5, 0.6, 0.8, 1.0];
    let sweep = abft_threshold_sweep(args.trials, args.seed + 1, &taus);
    let best = format!(
        "best threshold (detection − false-alarm margin): {:.2}; paper optimum 0.48",
        sweep.best_tau()
    );
    let right = "False Alarm & Fault Detection vs threshold";
    vec![
        Section::new(title, &coverage(args), &cols, vec![paper]),
        thresholds(right, &sweep, |t| format!("{t:.2}"), best),
    ]
}

/// Fig. 14 (right): residual row error after selective (SNVR) and after
/// traditional range restriction.
pub fn restriction(args: &HarnessArgs) -> RestrictionComparison {
    restriction_error_distribution(args.trials * 10, args.seed + 1)
}

fn fig14(args: &HarnessArgs) -> Vec<Section> {
    let taus = [1e-7, 7e-7, 3e-6, 7e-6, 3e-5, 1e-4, 1e-3];
    let sweep = snvr_threshold_sweep(args.trials, args.seed, &taus);
    let best = format!(
        "best threshold: {:.0e}; paper optimum 7e-6 (97.2% detection, 5.9% FA)",
        sweep.best_tau()
    );
    let cmp = restriction(args);
    let width = cmp.selective.bin_width;
    let bins = cmp
        .selective
        .rates()
        .into_iter()
        .zip(cmp.traditional.rates());
    let bins: Vec<_> = bins.enumerate().collect();
    let rate = |r: f64| text(format!("{r:>6.3} {}", bar(r, 25)));
    let cols: [Column<(usize, (f64, f64))>; 3] = [
        ("bin", &|r| {
            let lo = r.0 as f32 * width;
            text(format!("{lo:.2}-{:.2}", lo + width))
        }),
        ("selective", &|r| rate(r.1 .0)),
        ("traditional", &|r| rate(r.1 .1)),
    ];
    let within = format!(
        "within 0.02: selective {} vs traditional {} (paper: SNVR within 0–0.02, traditional 0–0.15)",
        pct(cmp.selective.fraction_within(0.02)),
        pct(cmp.traditional.fraction_within(0.02)),
    );
    let (left, right) = (
        "False Alarm & Fault Detection (SNVR product check)",
        "Error Distribution After Restriction (RMS row error)",
    );
    vec![
        thresholds(left, &sweep, |t| format!("{t:.0e}"), best),
        Section::new(right, &bins, &cols, vec![within]),
    ]
}

/// A whole model with flash attention and no protection anywhere.
fn unprotected_model(seed: u64, cfg: ModelConfig) -> TransformerModel {
    let mut model = TransformerModel::random(seed, cfg, BackendKind::Flash);
    for b in &mut model.blocks {
        b.mha.wq.protection = LinearProtection::None;
        b.mha.wk.protection = LinearProtection::None;
        b.mha.wv.protection = LinearProtection::None;
        b.mha.wo.protection = LinearProtection::None;
        b.ffn.up.protection = LinearProtection::None;
        b.ffn.down.protection = LinearProtection::None;
    }
    model
}

/// Fig. 15: original inference, fault detection (no faults) and fault
/// correction (one SEU per attention call, the paper's "single bit flip
/// for each attention computation") in four whole models.
fn fig15(args: &HarnessArgs) -> Vec<Section> {
    // The default scale shrinks seq, width and depth but keeps the head
    // structure; --full runs the paper's exact shapes.
    let seq = ((512.0 * args.scale.max(0.25)) as usize).max(64);
    // All layers share slot-local fault coordinates, so one targeted SEU
    // fires once per attention call (per layer).
    let seu = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 3, 5, 0), 30);
    let seu = seu.at_chain_step(10);
    let rows: Vec<_> = ModelConfig::paper_models()
        .into_iter()
        .map(|cfg| {
            let cfg = match args.full {
                true => cfg,
                false => cfg.scaled(cfg.hidden / 2, (cfg.layers / 4).max(2)),
            };
            let tokens: Vec<u32> = (0..seq as u32).map(|i| i * 7 % cfg.vocab as u32).collect();
            let baseline = unprotected_model(args.seed, cfg);
            let efta_o = BackendKind::Efta(EftaOptions::optimized());
            let protected = TransformerModel::random(args.seed, cfg, efta_o);
            let arms = time_arms(args.rounds(), 3, |i| {
                Ok::<_, Infallible>(match i {
                    0 => baseline.forward_hidden(&tokens, &NoFaults),
                    1 => protected.forward_hidden(&tokens, &NoFaults),
                    _ => protected.forward_hidden(&tokens, &seu),
                })
            });
            let arms: Vec<_> = arms.into_iter().map(|Ok(arm)| arm).collect();
            let repairs = arms[2].0 .1.total_repaired();
            (cfg.name, [arms[0].1, arms[1].1, arms[2].1], repairs)
        })
        .collect();
    let cols: [Column<(&str, [Timing; 3], u64)>; 7] = [
        ("model", &|r| text(r.0)),
        ("original (ms)", &|r| Cell::Time(r.1[0])),
        ("detect (ms)", &|r| Cell::Time(r.1[1])),
        ("detect ovh", &|r| percent(r.1[1].overhead(r.1[0]))),
        ("correct (ms)", &|r| Cell::Time(r.1[2])),
        ("correct ovh", &|r| percent(r.1[2].overhead(r.1[0]))),
        ("repairs", &|r| text(r.2.to_string())),
    ];
    let mut section = Section::new("EFTA on Transformer models", &rows, &cols, vec![]);
    let (detect, correct) = (section.resolved_mean(3), section.resolved_mean(5));
    let averages = format!("averages: detect {detect} correct {correct} — paper: 4.7% / 9.1%");
    section.notes.push(averages);
    vec![section]
}
