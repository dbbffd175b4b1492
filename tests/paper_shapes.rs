//! End-to-end assertions of the paper's headline findings, run at the
//! quick experiment profile. Each test names the claim it pins down.

use vstress::codecs::{CodecId, EncoderParams};
use vstress::experiments::{self, crf_sweep, runtime_quality, threads, ExperimentConfig};
use vstress::workbench::{characterize, RunSpec};

fn cfg() -> ExperimentConfig {
    let mut c = ExperimentConfig::quick();
    c.clips = vec!["game1"];
    c.crf_points = vec![10, 60];
    c
}

/// Standard-fidelity single-clip config for the cache/top-down trend
/// claims: at smoke fidelity the scaled caches sit right at the working
/// set's capacity knee and the CRF trend drowns in noise, so these two
/// claims are checked at the fidelity EXPERIMENTS.md reports.
fn trend_cfg() -> ExperimentConfig {
    let mut c = ExperimentConfig::paper();
    c.clips = vec!["game1"];
    c.crf_points = vec![10, 60];
    c
}

/// Runs experiment `id`'s plan on `cfg`'s cache first, as `vstress-repro`
/// does: the runner then reads memoized results, and no capture keeps its
/// packed stream past its group.
fn planned(cfg: ExperimentConfig, id: &str) -> ExperimentConfig {
    cfg.cache.run_plan(cfg.threads, &experiments::plan(&cfg, |i| i == id)).unwrap();
    cfg
}

/// "Runtime of AV1 encoders such as SVT-AV1 is higher than other encoders
/// … primarily because AV1 encoders need more work and thus require a
/// larger number of instructions to encode the same video."
#[test]
fn claim_av1_slowdown_is_instruction_count_not_ipc() {
    // Standard fidelity: the tiny smoke clips leave too little work for
    // the IPC comparison to be meaningful.
    let svt = characterize(&RunSpec::standard("game1", CodecId::SvtAv1, EncoderParams::new(35, 4)))
        .unwrap();
    let x264 = characterize(&RunSpec::standard("game1", CodecId::X264, EncoderParams::new(28, 5)))
        .unwrap();
    // Instruction gap is an order of magnitude...
    let instr_gap = svt.core.instructions as f64 / x264.core.instructions as f64;
    assert!(instr_gap > 8.0, "instruction gap: {instr_gap}");
    // ...while the IPC gap is small — the microarchitecture is not the
    // cause (the paper's headline finding).
    let ipc_gap = (svt.core.ipc() / x264.core.ipc()).max(x264.core.ipc() / svt.core.ipc());
    assert!(ipc_gap < 1.5, "IPC should be comparable: {} vs {}", svt.core.ipc(), x264.core.ipc());
    assert!(
        instr_gap > ipc_gap * 5.0,
        "work, not efficiency, must explain the gap: {instr_gap} vs {ipc_gap}"
    );
    // And the runtime gap tracks the instruction gap.
    assert!(svt.seconds > x264.seconds * 6.0);
}

/// "The AV1 workloads only achieve 50-60% of the potential throughput …
/// the percentage of wasted pipeline slots is roughly 40-50 percent."
#[test]
fn claim_retiring_is_roughly_half() {
    for crf in [15u8, 55] {
        let run =
            characterize(&RunSpec::quick("game1", CodecId::SvtAv1, EncoderParams::new(crf, 4)))
                .unwrap();
        let retiring = run.core.topdown().retiring;
        assert!(
            (0.38..0.68).contains(&retiring),
            "crf {crf}: retiring {retiring} outside the paper band"
        );
    }
}

/// "As CRF decreases, the runtime of the encoder increases largely
/// because of increasing instruction count." (Fig. 4)
#[test]
fn claim_crf_changes_work_not_efficiency() {
    let pts = crf_sweep::crf_sweep(&planned(cfg(), "fig04")).unwrap();
    let lo = &pts[0].run; // CRF 15
    let hi = &pts[1].run; // CRF 55
    let instr_ratio = lo.core.instructions as f64 / hi.core.instructions as f64;
    let ipc_ratio = lo.core.ipc() / hi.core.ipc();
    // At smoke fidelity the tiny clips leave less prunable work; the
    // full-strength ratio (~4x) is asserted at standard fidelity by
    // claim_topdown_and_cache_trends.
    assert!(instr_ratio > 1.35, "work must fall with CRF: {instr_ratio}");
    assert!((0.8..1.25).contains(&ipc_ratio), "IPC must stay within ~±20%: {ipc_ratio}");
    // Runtime tracks instructions, not IPC.
    let time_ratio = lo.seconds / hi.seconds;
    assert!(
        (time_ratio / instr_ratio - 1.0).abs() < 0.4,
        "time ratio {time_ratio} should track instruction ratio {instr_ratio}"
    );
}

/// Figs. 5 and 6 at standard fidelity, from one sweep:
///
/// * "Backend slots account for more wasted pipeline slots than the
///   frontend and bad-speculation … increasing CRF tends to increase the
///   overall proportion of backend-bound slots but decrease the proportion
///   of frontend-bound slots."
/// * "as CRF increased, cache performance tended to deteriorate" (L1D/L2),
///   while "the LLC accounted for many fewer misses per kilo instruction".
///
/// The assertions target the memory-bound component directly — that is the
/// mechanism the paper names — with margins robust to the small run-to-run
/// jitter that live buffer addresses introduce (see tests/determinism.rs).
#[test]
fn claim_topdown_and_cache_trends() {
    let pts = crf_sweep::crf_sweep(&planned(trend_cfg(), "fig04")).unwrap();
    let lo = &pts[0].run.core;
    let hi = &pts[1].run.core;
    let lo_td = lo.topdown();
    let hi_td = hi.topdown();
    // Fig. 4 at standard fidelity: work falls several-fold with CRF while
    // IPC barely moves.
    let instr_ratio = lo.instructions as f64 / hi.instructions as f64;
    assert!(instr_ratio > 2.5, "work must fall substantially with CRF: {instr_ratio}");
    let ipc_ratio = lo.ipc() / hi.ipc();
    assert!((0.85..1.2).contains(&ipc_ratio), "IPC must stay flat: {ipc_ratio}");
    // Fig. 6a: branch MPKI falls with CRF.
    assert!(
        hi.branch_mpki() < lo.branch_mpki(),
        "branch MPKI must fall with CRF: {} vs {}",
        lo.branch_mpki(),
        hi.branch_mpki()
    );
    for (label, td) in [("low CRF", &lo_td), ("high CRF", &hi_td)] {
        assert!(td.backend > td.bad_speculation, "{label}: backend vs bad-spec {td:?}");
    }
    // Backend-memory pressure grows with CRF; the frontend share does not.
    assert!(
        hi_td.backend_memory > lo_td.backend_memory * 1.1,
        "memory-bound slots must grow with CRF: {lo_td:?} vs {hi_td:?}"
    );
    assert!(
        hi_td.frontend < lo_td.frontend + 0.03,
        "frontend must not grow with CRF: {lo_td:?} vs {hi_td:?}"
    );
    // The sum of frontend+backend stays roughly constant (paper's note).
    let sum_lo = lo_td.frontend + lo_td.backend;
    let sum_hi = hi_td.frontend + hi_td.backend;
    assert!((sum_lo - sum_hi).abs() < 0.15, "fe+be drifted: {sum_lo} vs {sum_hi}");
    // Cache pressure: L1D MPKI rises; LLC stays far below L1D.
    assert!(
        hi.l1d_mpki() > lo.l1d_mpki() * 1.1,
        "L1D MPKI must rise with CRF: {} vs {}",
        lo.l1d_mpki(),
        hi.l1d_mpki()
    );
    assert!(hi.llc_mpki() < hi.l1d_mpki() / 5.0);
}

/// Fig. 1: SVT-AV1's runtime exceeds every other encoder at every CRF.
#[test]
fn claim_fig01_ordering() {
    let (_, points) = runtime_quality::fig01_runtime_vs_crf(&planned(cfg(), "fig01")).unwrap();
    for &crf in &[10u8, 60] {
        let get = |codec| {
            points.iter().find(|p| p.codec == codec && p.crf == crf).map(|p| p.seconds).unwrap()
        };
        let svt = get(CodecId::SvtAv1);
        for other in [CodecId::Libaom, CodecId::LibvpxVp9, CodecId::X264, CodecId::X265] {
            assert!(
                svt >= get(other),
                "crf {crf}: SVT {svt}s must be slowest (vs {other}: {}s)",
                get(other)
            );
        }
    }
}

/// Figs. 12–16: SVT-AV1 ≈ 6x at 8 threads, x265 worst (~1.3x), and only
/// x265 becomes markedly more backend-bound with threads.
#[test]
fn claim_thread_scaling_shapes() {
    let (_, results) = threads::fig12_15_thread_scaling(&planned(cfg(), "fig12")).unwrap();
    let r = &results[0];
    let at8 = |codec| {
        r.curves.iter().find(|(cc, _)| *cc == codec).map(|(_, v)| *v.last().unwrap()).unwrap()
    };
    assert!(at8(CodecId::SvtAv1) > 4.5, "SVT at 8 threads: {}", at8(CodecId::SvtAv1));
    assert!(at8(CodecId::X265) < 2.0, "x265 at 8 threads: {}", at8(CodecId::X265));
    assert!(at8(CodecId::SvtAv1) > at8(CodecId::X264));
    assert!(at8(CodecId::X264) > at8(CodecId::X265));
}
