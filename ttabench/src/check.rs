//! Correctness of every timed estimate.
//!
//! Two rules, chosen by seed:
//!
//! * **Pinned digests** (`pins.txt`): at [`crate::run::DEFAULT_SEED`] and
//!   full size, every campaign's `(n, ssf bits, sample_variance bits)` must
//!   equal the pinned triple exactly. A change that claims to be a pure
//!   speed-up cannot move a simulated statistic and still pass.
//! * **Reference band** (`reference.txt`): at any other seed or size, the
//!   estimate must lie within the cell's band of standard errors around
//!   its reference SSF. Bands are at least 5σ wide, not 3σ: a 3σ band
//!   fails 0.27% of correct estimates, and one run checks up to 40.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use xlmc::estimator::CampaignResult;

/// The statistics a pin fixes, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Runs folded into the estimate.
    pub n: usize,
    /// IEEE-754 bits of the SSF estimate.
    pub ssf_bits: u64,
    /// IEEE-754 bits of the sample variance.
    pub s2_bits: u64,
}

impl Digest {
    /// The digest of a campaign result.
    pub fn of(r: &CampaignResult) -> Self {
        Self {
            n: r.n,
            ssf_bits: r.ssf.to_bits(),
            s2_bits: r.sample_variance.to_bits(),
        }
    }

    /// The `pins.txt` line for `key`.
    pub fn line(&self, key: &str) -> String {
        format!(
            "{key} {} {:#018x} {:#018x}",
            self.n, self.ssf_bits, self.s2_bits
        )
    }
}

fn pins() -> &'static BTreeMap<String, Digest> {
    static PINS: OnceLock<BTreeMap<String, Digest>> = OnceLock::new();
    PINS.get_or_init(|| {
        data_lines(include_str!("../pins.txt"))
            .map(|f| {
                let hex = |s: &str| {
                    u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("pins.txt: hex bits")
                };
                let digest = Digest {
                    n: f[1].parse().expect("pins.txt: run count"),
                    ssf_bits: hex(f[2]),
                    s2_bits: hex(f[3]),
                };
                (f[0].to_owned(), digest)
            })
            .collect()
    })
}

/// A per-cell reference: a long fixed-size single-estimator campaign, and
/// the band half-width in standard errors (see `reference.txt`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Reference SSF.
    pub ssf: f64,
    /// Its per-run sample variance.
    pub s2: f64,
    /// Runs behind it.
    pub n: usize,
    /// Band half-width in standard errors.
    pub k_sigma: f64,
}

fn references() -> &'static BTreeMap<String, Reference> {
    static REFS: OnceLock<BTreeMap<String, Reference>> = OnceLock::new();
    REFS.get_or_init(|| {
        data_lines(include_str!("../reference.txt"))
            .map(|f| {
                let reference = Reference {
                    ssf: f[1].parse().expect("reference.txt: ssf"),
                    s2: f[2].parse().expect("reference.txt: sample variance"),
                    n: f[3].parse().expect("reference.txt: run count"),
                    k_sigma: f[4].parse().expect("reference.txt: band width"),
                };
                (f[0].to_owned(), reference)
            })
            .collect()
    })
}

/// Non-comment lines of a data file, split on whitespace.
fn data_lines(src: &'static str) -> impl Iterator<Item = Vec<&'static str>> {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
}

/// The key of one grid cell: `goal/defense/fault_mode`.
pub fn cell_key(goal: &str, defense: &str, fault_mode: &str) -> String {
    format!("{goal}/{defense}/{fault_mode}")
}

/// Exact comparison against the pin stored under `key`.
pub fn check_pinned(key: &str, r: &CampaignResult) -> Result<(), String> {
    let want = pins()
        .get(key)
        .ok_or_else(|| format!("{key}: no pinned digest"))?;
    let got = Digest::of(r);
    if got == *want {
        Ok(())
    } else {
        Err(format!(
            "{key}: digest {} != pinned {}",
            got.line(""),
            want.line("")
        ))
    }
}

/// The reference-band check for the campaign stored under `key`
/// (`workload/goal/defense/fault_mode`). The standard error uses the
/// reference's per-run variance, which stays meaningful when a short
/// campaign on a rare cell sees no success at all.
pub fn check_band(key: &str, r: &CampaignResult) -> Result<(), String> {
    let reference = references()
        .get(key)
        .ok_or_else(|| format!("{key}: no reference"))?;
    let sigma = (reference.s2 / r.n as f64 + reference.s2 / reference.n as f64).sqrt();
    if (r.ssf - reference.ssf).abs() <= reference.k_sigma * sigma {
        Ok(())
    } else {
        Err(format!(
            "{key}: ssf {:e} is {:.1} sigma from the reference {:e} (band {} sigma)",
            r.ssf,
            (r.ssf - reference.ssf).abs() / sigma,
            reference.ssf,
            reference.k_sigma
        ))
    }
}
