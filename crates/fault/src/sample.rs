//! Concrete attack samples `(t, p)`.

use xlmc_netlist::GateId;

/// Number of discrete strike-phase bins within a clock cycle.
///
/// The moment of the particle hit within the injection cycle is part of the
/// technique parameter vector `p`: it decides whether the generated
/// transient reaches a flip-flop inside its latching window. The phase is
/// discretized so that the success indicator `e(t, p)` stays a
/// deterministic function of the sample, as in the paper's formulation.
pub const PHASE_BINS: u8 = 8;

/// One sampled fault attack: timing distance plus technique parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSample {
    /// Timing distance `t = T_t − T_e` in cycles. The attack is injected
    /// `t` cycles before the target cycle.
    pub t: i64,
    /// Center of the radiated spot.
    pub center: GateId,
    /// Radius of the radiated spot, in placement units.
    pub radius: f64,
    /// Strike-phase bin within the injection cycle (`0..PHASE_BINS`).
    pub phase: u8,
}

impl AttackSample {
    /// The injection cycle for a given target cycle, `None` when the sample
    /// would inject before the start of the benchmark.
    pub fn injection_cycle(&self, target_cycle: u64) -> Option<u64> {
        let te = target_cycle as i64 - self.t;
        (te >= 0).then_some(te as u64)
    }

    /// The strike moment within the injection cycle, at the center of the
    /// sampled phase bin.
    pub fn strike_time_ps(&self, clock_period_ps: f64) -> f64 {
        (f64::from(self.phase) + 0.5) / f64::from(PHASE_BINS) * clock_period_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_cycle_subtracts_timing_distance() {
        let s = AttackSample {
            t: 10,
            center: GateId(0),
            radius: 1.0,
            phase: 0,
        };
        assert_eq!(s.injection_cycle(100), Some(90));
        assert_eq!(s.injection_cycle(10), Some(0));
        assert_eq!(s.injection_cycle(9), None);
    }

    #[test]
    fn negative_t_targets_after_the_target_cycle() {
        // Fanout-side attacks (frames i < 0) inject after T_t.
        let s = AttackSample {
            t: -3,
            center: GateId(0),
            radius: 1.0,
            phase: 0,
        };
        assert_eq!(s.injection_cycle(100), Some(103));
    }

    #[test]
    fn strike_time_is_the_bin_center() {
        let s = AttackSample {
            t: 1,
            center: GateId(0),
            radius: 0.0,
            phase: 0,
        };
        assert!((s.strike_time_ps(800.0) - 50.0).abs() < 1e-9);
        let s = AttackSample {
            phase: PHASE_BINS - 1,
            ..s
        };
        assert!((s.strike_time_ps(800.0) - 750.0).abs() < 1e-9);
    }
}
