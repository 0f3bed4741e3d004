//! Correlated multi-fault (double-glitch) campaign mode.
//!
//! The fault-attack SoK (arXiv:2509.18341) makes multi-fault injection the
//! modern attacker baseline: two glitches delivered in one shot, tightly
//! correlated in *time* (one trigger, one timing circuit) but independent
//! in *space* (two emitters aimed at different die locations). This module
//! models that as a second [`RadiationSpot`] drawn per run:
//!
//! * **correlated in time** — the second strike shares the primary
//!   sample's timing distance `t`, phase bin and therefore injection
//!   cycle and strike moment;
//! * **independent in space** — the second center and radius are fresh
//!   draws from the nominal (un-tilted) spatial/radius distributions.
//!
//! # Deterministic stream splitting
//!
//! The campaign engine owns one SplitMix64 stream per run and demands
//! bit-identical results across kernels and thread counts, so the second
//! spot cannot simply share the primary stream: the scalar and compiled
//! kernels interleave their draws differently. Instead the engine
//! draws **exactly one** `u64` of entropy from the per-run stream and
//! hands it here; [`DoubleGlitch::second_spot`] expands it into a private
//! child SplitMix64 stream (same Stafford mix13 finalizer as the engine's
//! generator) and samples the secondary spot from that. However many draws
//! the secondary distributions consume, the per-run stream advances by one
//! word — the split is a pure function of the entropy word.
//!
//! Because the second spot is drawn from the *nominal* distribution in
//! both the attacker density `f` and every proposal `g`, its likelihood
//! ratio contributes a factor of one: importance weights are unchanged.

use crate::distribution::{RadiusDist, SpatialDist};
use crate::spot::RadiationSpot;
use rand::RngCore;

/// 2⁶⁴ / φ, the SplitMix64 Weyl increment (matches the engine's RNG).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer (Stafford mix13).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The child stream expanded from one word of per-run entropy.
#[derive(Debug, Clone)]
struct ChildRng {
    state: u64,
}

impl ChildRng {
    #[inline]
    fn split_from(entropy: u64) -> Self {
        // Double-mix, like the engine's `for_run` derivation, so entropy
        // words that differ in few bits still head unrelated streams.
        Self {
            state: mix(mix(entropy ^ GOLDEN_GAMMA)),
        }
    }
}

impl RngCore for ChildRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }
}

/// The double-glitch campaign mode: per-run secondary strike model.
#[derive(Debug, Clone)]
pub struct DoubleGlitch {
    /// Spatial distribution of the secondary spot center (nominal).
    pub spatial: SpatialDist,
    /// Radius distribution of the secondary spot (nominal).
    pub radius: RadiusDist,
}

impl DoubleGlitch {
    /// Build the mode from the nominal secondary-strike distributions.
    pub fn new(spatial: SpatialDist, radius: RadiusDist) -> Self {
        Self { spatial, radius }
    }

    /// The secondary spot for one run, a pure function of the entropy word
    /// split off that run's stream.
    pub fn second_spot(&self, entropy: u64) -> RadiationSpot {
        let mut rng = ChildRng::split_from(entropy);
        let center = self.spatial.sample(&mut rng);
        let radius = self.radius.sample(&mut rng);
        RadiationSpot { center, radius }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xlmc_netlist::GateId;

    fn glitch() -> DoubleGlitch {
        DoubleGlitch::new(
            SpatialDist::UniformOverCells((0..64u32).map(GateId).collect()),
            RadiusDist::uniform(vec![0.0, 1.0, 2.5]),
        )
    }

    #[test]
    fn second_spot_is_a_pure_function_of_the_entropy_word() {
        let g = glitch();
        for entropy in [0u64, 1, 0xdead_beef, u64::MAX] {
            let a = g.second_spot(entropy);
            let b = g.second_spot(entropy);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_entropy_words_decorrelate() {
        let g = glitch();
        let distinct: std::collections::HashSet<_> = (0..512u64)
            .map(|e| {
                let s = g.second_spot(e);
                (s.center, s.radius.to_bits())
            })
            .collect();
        // 64 centers x 3 radii = 192 possible spots; a correlated child
        // stream would collapse far below that.
        assert!(
            distinct.len() > 100,
            "only {} distinct spots",
            distinct.len()
        );
    }

    #[test]
    fn draws_come_from_the_nominal_support() {
        let g = glitch();
        for e in 0..256u64 {
            let s = g.second_spot(e);
            assert!(s.center.0 < 64);
            assert!([0.0, 1.0, 2.5].contains(&s.radius));
        }
    }
}
