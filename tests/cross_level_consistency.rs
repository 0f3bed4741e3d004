//! Cross-level consistency: the property the whole framework stands on.
//!
//! The cross-level flow switches freely between the RTL model and the gate
//! netlist of the MPU; these tests prove the two views agree on real
//! workload traffic (not just random stimulus) and that a fault latched at
//! gate level acts on the RTL exactly like the corresponding architectural
//! bit flip.

use xlmc::{Evaluation, SystemModel};
use xlmc_gatesim::cycle::CycleSim;
use xlmc_soc::workloads;
use xlmc_soc::MpuBit;

/// Renders the per-bit diff between the RTL-recorded state and the
/// gate-simulated state, naming each architectural bit, so a divergence
/// failure shows *which* registers split instead of two opaque vectors.
fn state_diff_table(model: &SystemModel, rtl: &[bool], gate: &[bool]) -> String {
    let mut table = String::from("bit                         rtl    gate\n");
    for (pos, &dff) in model.mpu.netlist().dffs().iter().enumerate() {
        if rtl[pos] != gate[pos] {
            let name = model
                .mpu
                .bit_of(dff)
                .map(|b| format!("{b:?}"))
                .unwrap_or_else(|| format!("dff #{pos}"));
            table.push_str(&format!("{name:<28}{:<7}{}\n", rtl[pos], gate[pos]));
        }
    }
    table
}

/// Replaying the write-benchmark golden stimulus through the gate netlist
/// reproduces the recorded RTL MPU state cycle for cycle.
#[test]
fn gate_netlist_tracks_rtl_through_the_attack_benchmark() {
    let model = SystemModel::with_defaults().unwrap();
    let eval = Evaluation::new(workloads::illegal_write()).unwrap();
    let sim = CycleSim::new(model.mpu.netlist()).unwrap();

    let mut state = model.mpu.state_vector(&eval.golden.mpu_states[0]);
    for c in 0..eval.golden.cycles as usize {
        let expect = model.mpu.state_vector(&eval.golden.mpu_states[c]);
        assert!(
            state == expect,
            "state diverged at cycle {c}:\n{}",
            state_diff_table(&model, &expect, &state)
        );
        let stim = &eval.golden.stimulus[c];
        let inputs = model.mpu.input_values(stim.request, stim.cfg_write);
        let cv = sim.eval(model.mpu.netlist(), &state, &inputs);
        assert_eq!(
            cv.value(model.mpu.responding_signal()),
            stim.viol_comb,
            "responding signal mismatch at cycle {c}"
        );
        state = cv.next_state().to_vec();
    }
}

/// The same check for the synthetic pre-characterization stimulus, which
/// exercises reconfiguration and DMA traffic.
#[test]
fn gate_netlist_tracks_rtl_through_the_synthetic_benchmark() {
    let model = SystemModel::with_defaults().unwrap();
    let w = workloads::synthetic_precharacterization();
    let golden = xlmc_soc::GoldenRun::record(&w.program, 20_000, 64);
    let sim = CycleSim::new(model.mpu.netlist()).unwrap();

    let mut state = model.mpu.state_vector(&golden.mpu_states[0]);
    for c in 0..golden.cycles as usize {
        let expect = model.mpu.state_vector(&golden.mpu_states[c]);
        assert!(
            state == expect,
            "state diverged at cycle {c}:\n{}",
            state_diff_table(&model, &expect, &state)
        );
        let stim = &golden.stimulus[c];
        let inputs = model.mpu.input_values(stim.request, stim.cfg_write);
        let cv = sim.eval(model.mpu.netlist(), &state, &inputs);
        state = cv.next_state().to_vec();
    }
}

/// A transient latched into a flip-flop at gate level and the architectural
/// bit flip written back into RTL state produce identical downstream
/// behavior: the write-back in the flow is exact, not approximate.
#[test]
fn gate_level_latched_fault_equals_rtl_bit_flip() {
    let model = SystemModel::with_defaults().unwrap();
    let eval = Evaluation::new(workloads::illegal_write()).unwrap();
    let sim = CycleSim::new(model.mpu.netlist()).unwrap();
    let te = eval.target_cycle - 5;

    for bit in [MpuBit::Enable, MpuBit::Violation, MpuBit::Limit(0, 13)] {
        // Gate level: simulate the injection cycle, flip the chosen DFF's
        // latched next-state bit, then continue at gate level for a few
        // cycles.
        let state = model.mpu.state_vector(&eval.golden.mpu_states[te as usize]);
        let stim = &eval.golden.stimulus[te as usize];
        let inputs = model.mpu.input_values(stim.request, stim.cfg_write);
        let cv = sim.eval(model.mpu.netlist(), &state, &inputs);
        let mut gate_state = cv.next_state().to_vec();
        let dff_pos = model
            .mpu
            .netlist()
            .dffs()
            .iter()
            .position(|&d| d == model.mpu.dff(bit))
            .unwrap();
        gate_state[dff_pos] = !gate_state[dff_pos];

        // RTL level: step the SoC through the same cycle and toggle the
        // architectural bit.
        let mut soc = eval.golden.nearest_checkpoint(te).clone();
        while soc.cycle < te {
            soc.step();
        }
        soc.step();
        soc.mpu.toggle_bit(bit);

        // The two must agree now and for every subsequent cycle (driving
        // the netlist from the faulty RTL's own stimulus).
        for k in 0..20 {
            assert_eq!(
                gate_state,
                model.mpu.state_vector(&soc.mpu),
                "{bit:?}: divergence {k} cycles after injection"
            );
            let ev = soc.step();
            let inputs = model
                .mpu
                .input_values(ev.issued.map(|(_, r)| r), ev.cfg_write);
            let cv = sim.eval(model.mpu.netlist(), &gate_state, &inputs);
            gate_state = cv.next_state().to_vec();
        }
    }
}

/// The responding signal of the elaboration is the same net the
/// pre-characterization cones, the sampling distributions and the SoC trap
/// logic all refer to: suppressing it at the right moment defeats both the
/// commit gating and the trap.
#[test]
fn responding_signal_suppression_is_the_canonical_attack() {
    let eval = Evaluation::new(workloads::illegal_write()).unwrap();

    // Flip the violation register exactly when the golden run latches the
    // verdict (end of T_t - 1).
    let te = eval.target_cycle - 1;
    let mut soc = eval.golden.nearest_checkpoint(te).clone();
    while soc.cycle < te {
        soc.step();
    }
    soc.step();
    assert!(soc.mpu.violation, "the verdict must be latched here");
    soc.mpu.toggle_bit(MpuBit::Violation);
    soc.run_until_halt(eval.max_cycles);
    assert!(
        eval.workload.goal.succeeded(&soc),
        "suppressing the responding signal must defeat the mechanism"
    );
}

/// All three levels of the estimator hierarchy pinned against each other on
/// one batch of coupled campaign runs: the analytic level-0 multi-SEU
/// verdict (SetToSeuMap, no netlist), the uncached run-to-halt RTL
/// reference, and the gate-accurate flow (conclusion memo, analytic
/// evaluation and snapshot-cached resumes). Two invariants hold for every
/// run, and a violation fails with the full per-level diff table rather
/// than a bare assert:
///
/// 1. gate == RTL (run-to-halt): the flow's accelerations are exact
///    scheduling optimizations, never approximations;
/// 2. analytic == gate wherever the map declares the sample exactly
///    representable — the runs whose MLMC correction term is provably zero.
#[test]
fn three_level_verdict_matrix_stays_pinned() {
    use xlmc::flow::{FaultRunner, FlowScratch};
    use xlmc::multilevel::{coupled_run_with, MlmcScratch, SetToSeuMap};
    use xlmc::resume::{reference_verdict, ConclusionMemo};
    use xlmc::rng::SplitMix64;
    use xlmc::sampling::{baseline_distribution, ImportanceSampling, SamplingStrategy};
    use xlmc::Precharacterization;

    const RUNS: u64 = 768;
    const SEED: u64 = 0x3_1EE7;

    let model = SystemModel::with_defaults().unwrap();
    let eval = Evaluation::new(workloads::illegal_write()).unwrap();
    let cfg = xlmc::sampling::ExperimentConfig {
        t_max: 16,
        ..Default::default()
    };
    let prechar = Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
    let map = SetToSeuMap::build(&model, &eval, &prechar);
    let strategy = ImportanceSampling::new(
        baseline_distribution(&model, &cfg),
        &model,
        &prechar,
        cfg.alpha,
        cfg.beta,
        cfg.radius_options.clone(),
    );
    let runner = FaultRunner {
        model: &model,
        eval: &eval,
        prechar: &prechar,
        hardening: None,
        multi_fault: None,
    };
    let mut memo = ConclusionMemo::default();
    let mut coupled = MlmcScratch::default();
    let mut flow = FlowScratch::default();

    struct Row {
        run: u64,
        analytic: bool,
        rtl_halt: bool,
        gate: bool,
        exact: bool,
    }
    let mut broken: Vec<Row> = Vec::new();
    let (mut exact_runs, mut successes) = (0usize, 0usize);
    for i in 0..RUNS {
        // The engine's sample for run i, re-drawn to query the map.
        let mut rng = SplitMix64::for_run(SEED, i);
        let sample = strategy.draw(&mut rng);
        let exact = map.exactly_representable(&sample);

        // Level 0 (analytic multi-SEU) and the gate level come from the
        // coupled pair; the RTL level is the uncached run-to-halt reference
        // of the error set the identical per-run stream latches.
        let rec = coupled_run_with(&runner, &map, &strategy, SEED, i, &mut coupled, &mut memo);
        let out = runner.run_with(&sample, &mut rng, &mut flow);
        let rtl_halt = out.injection_cycle.map_or(out.success, |te| {
            reference_verdict(&eval, te, out.faulty_bits)
        });

        exact_runs += exact as usize;
        successes += rtl_halt as usize;
        let row = Row {
            run: i,
            analytic: rec.rtl_success,
            rtl_halt,
            gate: rec.gate_success,
            exact,
        };
        let ff_exact = row.gate == row.rtl_halt;
        let map_exact = !row.exact || row.analytic == row.gate;
        if !(ff_exact && map_exact) {
            broken.push(row);
        }
    }

    // The matrix must actually exercise every level on this batch.
    assert!(exact_runs > 0, "no exactly representable run in the batch");
    assert!(successes > 0, "no successful attack in the batch");

    if !broken.is_empty() {
        let mut table = String::from("run    analytic  rtl-halt  gate   exactly-representable\n");
        for r in &broken {
            table.push_str(&format!(
                "{:<7}{:<10}{:<10}{:<7}{}\n",
                r.run, r.analytic, r.rtl_halt, r.gate, r.exact
            ));
        }
        panic!(
            "{} of {RUNS} runs break the cross-level verdict matrix:\n{table}",
            broken.len()
        );
    }
}

/// The elaborated MPU survives a structural-Verilog round trip: the parsed
/// netlist behaves identically on real workload stimulus. This is the
/// "export for external EDA tools" feature proving itself against the
/// cross-level traces.
#[test]
fn mpu_netlist_survives_verilog_roundtrip() {
    let model = SystemModel::with_defaults().unwrap();
    let eval = Evaluation::new(workloads::illegal_write()).unwrap();
    let text = xlmc_netlist::to_verilog(model.mpu.netlist(), "mpu");
    let parsed = xlmc_netlist::from_verilog(&text).expect("emitted subset must parse");
    assert_eq!(parsed.dffs().len(), model.mpu.netlist().dffs().len());
    assert_eq!(parsed.inputs().len(), model.mpu.netlist().inputs().len());

    // Drive both netlists with the golden stimulus; all flop states must
    // agree every cycle. Input/dff orders are preserved by construction
    // (declaration order round-trips).
    let orig_sim = CycleSim::new(model.mpu.netlist()).unwrap();
    let parsed_sim = CycleSim::new(&parsed).unwrap();
    let mut a = model.mpu.state_vector(&eval.golden.mpu_states[0]);
    let mut b = a.clone();
    for c in 0..eval.golden.cycles.min(150) as usize {
        let stim = &eval.golden.stimulus[c];
        let inputs = model.mpu.input_values(stim.request, stim.cfg_write);
        let cva = orig_sim.eval(model.mpu.netlist(), &a, &inputs);
        let cvb = parsed_sim.eval(&parsed, &b, &inputs);
        a = cva.next_state().to_vec();
        b = cvb.next_state().to_vec();
        assert_eq!(a, b, "verilog round trip diverged at cycle {c}");
    }
}
