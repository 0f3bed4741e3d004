//! Property-based tests over the core data structures and invariants,
//! spanning the netlist, simulation, ISA and fault-model crates.

use proptest::prelude::*;
use std::collections::HashMap;
use xlmc_gatesim::bitparallel::{evaluate_combinational, PackedTraces};
use xlmc_gatesim::cycle::CycleSim;
use xlmc_netlist::{CellKind, GateId, Netlist, Placement, Topology, UnrolledNetlist};
use xlmc_soc::isa::{Csr, Instr, Reg};

// ---------------------------------------------------------------------------
// Random-netlist machinery
// ---------------------------------------------------------------------------

/// A construction plan for one gate, with fanins as seeds resolved against
/// the ids that already exist (guaranteeing acyclicity).
#[derive(Debug, Clone)]
enum GatePlan {
    Comb(u8, [usize; 3]),
    Dff(usize),
}

fn gate_plan() -> impl Strategy<Value = GatePlan> {
    prop_oneof![
        8 => (0u8..9, [any::<usize>(), any::<usize>(), any::<usize>()]).prop_map(
            |(k, f)| GatePlan::Comb(k, f)
        ),
        2 => any::<usize>().prop_map(GatePlan::Dff),
    ]
}

/// Materialize a plan into a valid sequential netlist with 3 primary
/// inputs and one named output.
fn build_netlist(plans: &[GatePlan]) -> Netlist {
    let mut n = Netlist::new();
    let mut ids: Vec<GateId> = (0..3).map(|i| n.add_input(format!("in{i}"))).collect();
    let mut dffs = 0;
    for plan in plans {
        let pick = |seed: usize| ids[seed % ids.len()];
        let id = match plan {
            GatePlan::Comb(kind, f) => {
                let kinds = [
                    CellKind::Buf,
                    CellKind::Not,
                    CellKind::And,
                    CellKind::Or,
                    CellKind::Nand,
                    CellKind::Nor,
                    CellKind::Xor,
                    CellKind::Xnor,
                    CellKind::Mux,
                ];
                let kind = kinds[(*kind as usize) % kinds.len()];
                let fanin: Vec<GateId> = match kind.fixed_arity() {
                    Some(1) => vec![pick(f[0])],
                    Some(3) => vec![pick(f[0]), pick(f[1]), pick(f[2])],
                    _ => vec![pick(f[0]), pick(f[1])],
                };
                n.add_gate(kind, &fanin)
            }
            GatePlan::Dff(seed) => {
                dffs += 1;
                n.add_dff(format!("r{dffs}"), pick(*seed))
            }
        };
        ids.push(id);
    }
    n.add_output("out", *ids.last().unwrap());
    n
}

fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    prop::collection::vec(gate_plan(), 1..40).prop_map(|p| build_netlist(&p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated netlist is structurally valid.
    #[test]
    fn random_netlists_validate(n in netlist_strategy()) {
        prop_assert_eq!(n.validate(), Ok(()));
    }

    /// The topological order places every combinational gate after all of
    /// its fanins, and levels are consistent.
    #[test]
    fn topological_order_respects_fanins(n in netlist_strategy()) {
        let topo = Topology::new(&n).unwrap();
        let pos: HashMap<GateId, usize> = topo
            .order()
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i))
            .collect();
        for &id in topo.order() {
            let gate = n.gate(id);
            for &f in &gate.fanin {
                let fk = n.gate(f).kind;
                if fk.is_combinational() {
                    prop_assert!(pos[&f] < pos[&id], "{f} !before {id}");
                }
                prop_assert!(topo.level(f) < topo.level(id));
            }
        }
    }

    /// Placement covers every placeable cell exactly once.
    #[test]
    fn placement_is_total_and_injective(n in netlist_strategy()) {
        let p = Placement::new(&n);
        let mut seen = std::collections::HashSet::new();
        for &g in p.placeable() {
            let pt = p.position(g).expect("placeable cell placed");
            prop_assert!(seen.insert((pt.x.to_bits(), pt.y.to_bits())));
        }
    }

    /// Radius queries are monotone in the radius and always contain the
    /// center.
    #[test]
    fn radius_queries_are_monotone(n in netlist_strategy(), seed in any::<usize>()) {
        let p = Placement::new(&n);
        let center = p.placeable()[seed % p.placeable().len()];
        let mut last: Vec<GateId> = Vec::new();
        for r in [0.0, 1.0, 2.0, 4.0] {
            let cells = p.cells_within(center, r);
            prop_assert!(cells.contains(&center));
            for g in &last {
                prop_assert!(cells.contains(g), "shrunk at r={r}");
            }
            last = cells;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential cycle simulation agrees with the explicit time-frame
    /// unrolling on random circuits and random stimulus.
    #[test]
    fn unrolling_matches_sequential_simulation(
        n in netlist_strategy(),
        stim in prop::collection::vec(any::<[bool; 3]>(), 3),
    ) {
        let frames = stim.len() as u32;
        let unrolled = UnrolledNetlist::new(&n, frames);
        let sim = CycleSim::new(&n).unwrap();

        // Sequential run from all-zero state.
        let init = vec![false; n.dffs().len()];
        let seq = sim.run(&n, &init, frames as usize, |c| stim[c].to_vec());

        // Unrolled combinational evaluation (frame f = cycle frames-1-f).
        let un = unrolled.netlist();
        let usim = CycleSim::new(un).unwrap();
        let mut values: HashMap<GateId, bool> = HashMap::new();
        for (cycle, bits) in stim.iter().enumerate() {
            let frame = frames - 1 - cycle as u32;
            for (i, &b) in bits.iter().enumerate() {
                let src = n.resolve(&format!("in{i}")).unwrap();
                values.insert(unrolled.resolve(src, frame).unwrap(), b);
            }
        }
        for &(_, init_input) in unrolled.initial_state_inputs() {
            values.insert(init_input, false);
        }
        let inputs: Vec<bool> = un
            .inputs()
            .iter()
            .map(|g| *values.get(g).expect("all unrolled inputs assigned"))
            .collect();
        let cv = usim.eval(un, &[], &inputs);

        // Every original gate's value in every cycle must agree.
        for cycle in 0..frames {
            let frame = frames - 1 - cycle;
            for (id, gate) in n.iter() {
                if gate.kind == CellKind::Output {
                    continue;
                }
                let uid = unrolled.resolve(id, frame).unwrap();
                prop_assert_eq!(
                    seq[cycle as usize].value(id),
                    cv.value(uid),
                    "gate {} cycle {}", id, cycle
                );
            }
        }
    }

    /// Bit-parallel trace evaluation agrees with scalar simulation.
    #[test]
    fn bitparallel_matches_scalar(
        n in netlist_strategy(),
        seed in any::<u64>(),
    ) {
        let sim = CycleSim::new(&n).unwrap();
        let cycles = 70usize; // crosses the 64-bit word boundary
        let stim: Vec<Vec<bool>> = (0..cycles)
            .map(|c| {
                (0..3)
                    .map(|i| (seed.wrapping_mul(c as u64 * 3 + i + 1)).is_multiple_of(3))
                    .collect()
            })
            .collect();
        let init = vec![false; n.dffs().len()];
        let trace = sim.run(&n, &init, cycles, |c| stim[c].clone());

        let mut packed = PackedTraces::zeroed(&n, cycles);
        for c in 0..cycles {
            for (i, &pi) in n.inputs().iter().enumerate() {
                packed.set_value(pi, c, stim[c][i]);
            }
            for &d in n.dffs() {
                packed.set_value(d, c, trace[c].value(d));
            }
        }
        evaluate_combinational(&n, &mut packed).unwrap();
        for (c, cv) in trace.iter().enumerate() {
            for (id, _) in n.iter() {
                prop_assert_eq!(packed.value(id, c), cv.value(id));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ISA properties
// ---------------------------------------------------------------------------

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg)
}

fn imm_strategy() -> impl Strategy<Value = i32> {
    -(1i32 << 17)..(1i32 << 17)
}

fn csr_strategy() -> impl Strategy<Value = Csr> {
    prop_oneof![
        Just(Csr::Status),
        Just(Csr::Epc),
        Just(Csr::Cause),
        Just(Csr::Tvec),
        Just(Csr::Isolated),
        Just(Csr::Scratch),
    ]
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (reg_strategy(), reg_strategy(), reg_strategy()).prop_map(|(a, b, c)| Instr::Add(a, b, c)),
        (reg_strategy(), reg_strategy(), reg_strategy()).prop_map(|(a, b, c)| Instr::Sub(a, b, c)),
        (reg_strategy(), reg_strategy(), reg_strategy()).prop_map(|(a, b, c)| Instr::Xor(a, b, c)),
        (reg_strategy(), reg_strategy(), reg_strategy()).prop_map(|(a, b, c)| Instr::Sltu(a, b, c)),
        (reg_strategy(), reg_strategy(), imm_strategy()).prop_map(|(a, b, i)| Instr::Addi(a, b, i)),
        (reg_strategy(), imm_strategy()).prop_map(|(a, i)| Instr::Li(a, i)),
        (reg_strategy(), reg_strategy(), imm_strategy()).prop_map(|(a, b, i)| Instr::Lw(a, b, i)),
        (reg_strategy(), reg_strategy(), imm_strategy()).prop_map(|(a, b, i)| Instr::Sw(a, b, i)),
        (reg_strategy(), reg_strategy(), imm_strategy()).prop_map(|(a, b, i)| Instr::Beq(a, b, i)),
        (reg_strategy(), reg_strategy(), imm_strategy()).prop_map(|(a, b, i)| Instr::Bltu(a, b, i)),
        (reg_strategy(), imm_strategy()).prop_map(|(a, i)| Instr::Jal(a, i)),
        (reg_strategy(), csr_strategy(), reg_strategy())
            .prop_map(|(a, c, b)| Instr::Csrrw(a, c, b)),
        Just(Instr::Ecall),
        Just(Instr::Mret),
        Just(Instr::Halt),
        Just(Instr::Nop),
    ]
}

proptest! {
    /// Every instruction round-trips through its encoding.
    #[test]
    fn instruction_encoding_roundtrips(i in instr_strategy()) {
        prop_assert_eq!(Instr::decode(i.encode()), Ok(i));
    }

    /// Decoding never panics on arbitrary words.
    #[test]
    fn decode_is_total(w in any::<u32>()) {
        let _ = Instr::decode(w);
    }
}

// ---------------------------------------------------------------------------
// Fault-model properties
// ---------------------------------------------------------------------------

proptest! {
    /// Uniform temporal distributions are normalized and stay in support.
    #[test]
    fn temporal_distribution_is_normalized(lo in -50i64..50, len in 1i64..80) {
        use xlmc_fault::TemporalDist;
        let d = TemporalDist::uniform(lo, lo + len - 1);
        let total: f64 = (lo..lo + len).map(|t| d.pmf(t)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert_eq!(d.pmf(lo - 1), 0.0);
        prop_assert_eq!(d.pmf(lo + len), 0.0);
    }

    /// The joint attacker pmf is normalized for arbitrary component sizes.
    #[test]
    fn joint_attacker_pmf_is_normalized(
        t_len in 1i64..20,
        cells in 1u32..30,
        radii in prop::collection::hash_set(0u32..6, 1..4),
    ) {
        use xlmc_fault::sample::PHASE_BINS;
        use xlmc_fault::{AttackDistribution, AttackSample, RadiusDist, SpatialDist, TemporalDist};
        let cell_ids: Vec<GateId> = (0..cells).map(GateId).collect();
        let radius_opts: Vec<f64> = radii.iter().map(|&r| f64::from(r)).collect();
        let f = AttackDistribution {
            temporal: TemporalDist::uniform(1, t_len),
            spatial: SpatialDist::UniformOverCells(cell_ids.clone()),
            radius: RadiusDist::uniform(radius_opts.clone()),
        };
        let mut total = 0.0;
        for t in 1..=t_len {
            for &c in &cell_ids {
                for &r in &radius_opts {
                    for phase in 0..PHASE_BINS {
                        total += f.pmf(&AttackSample { t, center: c, radius: r, phase });
                    }
                }
            }
        }
        prop_assert!((total - 1.0).abs() < 1e-9, "total {}", total);
    }
}

// ---------------------------------------------------------------------------
// Transient-model properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Striking nothing latches nothing; direct register strikes always
    /// upset exactly the struck registers.
    #[test]
    fn strike_basics(n in netlist_strategy(), seed in any::<u64>()) {
        use xlmc_gatesim::transient::{TransientConfig, TransientSim};
        let sim = CycleSim::new(&n).unwrap();
        let init = vec![false; n.dffs().len()];
        let stim: Vec<bool> = (0..3).map(|i| seed >> i & 1 == 1).collect();
        let cv = sim.eval(&n, &init, &stim);
        let ts = TransientSim::new(&n, TransientConfig::default()).unwrap();

        let empty = ts.strike(&n, &cv, &[], 100.0);
        prop_assert!(empty.is_masked());

        if !n.dffs().is_empty() {
            let d = n.dffs()[(seed as usize) % n.dffs().len()];
            let out = ts.strike(&n, &cv, &[d], 100.0);
            prop_assert_eq!(out.upset_dffs.clone(), vec![d]);
            prop_assert!(out.faulty_registers().contains(&d));
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign-engine determinism
// ---------------------------------------------------------------------------

/// Shared expensive fixture for the campaign determinism property: the
/// full system model, golden run and pre-characterization, built once.
struct CampaignFixture {
    model: xlmc::SystemModel,
    eval: xlmc::Evaluation,
    prechar: xlmc::Precharacterization,
    cfg: xlmc::sampling::ExperimentConfig,
}

fn campaign_fixture() -> &'static CampaignFixture {
    use std::sync::OnceLock;
    static FIX: OnceLock<CampaignFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let model = xlmc::SystemModel::with_defaults().unwrap();
        let eval = xlmc::Evaluation::new(xlmc_soc::workloads::illegal_write()).unwrap();
        let cfg = xlmc::sampling::ExperimentConfig {
            t_max: 16,
            ..Default::default()
        };
        let prechar = xlmc::Precharacterization::run(&model, cfg.t_max, cfg.max_radius());
        CampaignFixture {
            model,
            eval,
            prechar,
            cfg,
        }
    })
}

fn strategy_for(
    f: &'static CampaignFixture,
    idx: usize,
) -> Box<dyn xlmc::sampling::SamplingStrategy> {
    use xlmc::sampling::{baseline_distribution, ConeSampling, ImportanceSampling, RandomSampling};
    let fd = baseline_distribution(&f.model, &f.cfg);
    match idx {
        0 => Box::new(RandomSampling::new(fd)),
        1 => Box::new(ConeSampling::new(
            fd,
            &f.prechar,
            f.cfg.radius_options.clone(),
        )),
        _ => Box::new(ImportanceSampling::new(
            fd,
            &f.model,
            &f.prechar,
            f.cfg.alpha,
            f.cfg.beta,
            f.cfg.radius_options.clone(),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cross-level exactness of the SET → SEU map: whenever the map
    /// declares a drawn sample exactly representable at RTL (radius-0
    /// strike, register target, single register class), the cheap level-0
    /// verdict must equal the gate-accurate verdict — this is the
    /// invariant that lets the MLMC correction term skip such samples
    /// without bias.
    #[test]
    fn exactly_representable_samples_agree_across_levels(
        seed in any::<u64>(),
        strategy_idx in 0usize..3,
    ) {
        use std::sync::OnceLock;
        use xlmc::resume::ConclusionMemo;
        use xlmc::flow::FaultRunner;
        use xlmc::multilevel::{coupled_run_with, MlmcScratch, SetToSeuMap};
        use xlmc::rng::SplitMix64;

        let f = campaign_fixture();
        static MAP: OnceLock<SetToSeuMap> = OnceLock::new();
        let map = MAP.get_or_init(|| SetToSeuMap::build(&f.model, &f.eval, &f.prechar));
        let runner = FaultRunner {
            model: &f.model,
            eval: &f.eval,
            prechar: &f.prechar,
            hardening: None,
            multi_fault: None,
        };
        let strategy = strategy_for(f, strategy_idx);
        let mut memo = ConclusionMemo::default();
        let mut scratch = MlmcScratch::default();
        let mut checked = 0usize;
        for i in 0..192u64 {
            // Re-draw the engine's sample for run i to test the guard,
            // then evaluate both levels under the exact per-run streams.
            let mut rng = SplitMix64::for_run(seed, i);
            let sample = strategy.draw(&mut rng);
            if !map.exactly_representable(&sample) {
                continue;
            }
            let rec = coupled_run_with(
                &runner,
                map,
                strategy.as_ref(),
                seed,
                i,
                &mut scratch,
                &mut memo,
            );
            prop_assert_eq!(
                rec.gate_success, rec.rtl_success,
                "run {} ({:?}): levels disagree on an exactly representable sample",
                i, sample
            );
            checked += 1;
        }
        prop_assert!(checked > 0, "no exactly representable sample in 192 draws");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sharded campaign engine is a pure scheduling choice: for any
    /// strategy, run count and seed, a 4-worker campaign returns the
    /// bit-identical result of the sequential one — estimate, variance,
    /// class split, attribution and convergence trace included.
    #[test]
    fn campaign_is_bit_identical_across_thread_counts(
        strategy_idx in 0usize..3,
        n in 1usize..220,
        seed in any::<u64>(),
    ) {
        use xlmc::estimator::{run_campaign_with, CampaignOptions};
        use xlmc::flow::FaultRunner;
        use xlmc::sampling::{
            baseline_distribution, ConeSampling, ImportanceSampling, RandomSampling,
            SamplingStrategy,
        };

        let f = campaign_fixture();
        let runner = FaultRunner {
            model: &f.model,
            eval: &f.eval,
            prechar: &f.prechar,
            hardening: None,
            multi_fault: None,
        };
        let fd = baseline_distribution(&f.model, &f.cfg);
        let strategy: Box<dyn SamplingStrategy> = match strategy_idx {
            0 => Box::new(RandomSampling::new(fd)),
            1 => Box::new(ConeSampling::new(fd, &f.prechar, f.cfg.radius_options.clone())),
            _ => Box::new(ImportanceSampling::new(
                fd,
                &f.model,
                &f.prechar,
                f.cfg.alpha,
                f.cfg.beta,
                f.cfg.radius_options.clone(),
            )),
        };

        let sequential =
            run_campaign_with(&runner, strategy.as_ref(), n, seed, &CampaignOptions::with_threads(1));
        let sharded =
            run_campaign_with(&runner, strategy.as_ref(), n, seed, &CampaignOptions::with_threads(4));
        prop_assert_eq!(sequential, sharded);
    }
}
