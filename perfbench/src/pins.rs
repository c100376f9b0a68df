//! Pinned reference outputs: what each workload must compute.
//!
//! A speed-only change must leave every simulated statistic identical, so
//! each run's outcome is compared bit for bit against the outcome pinned
//! here at seed 42. Static DCO consumes no randomness, so the `static-2k`
//! and `shard2-5k` pins hold at every seed; the churn and pull-mesh
//! workloads draw from the seed, so their pins bind at seed 42 only and
//! other seeds are checked for agreement between the runs of one
//! invocation instead.

use std::fmt;

/// The simulated outcome of one workload run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Trace digest (single process) or folded set digest (sharded).
    pub digest: u64,
    /// Events dispatched (owned events when sharded).
    pub events: u64,
    /// % of expected chunk deliveries completed by the horizon.
    pub received_pct: f64,
    /// Mean mesh delay over chunks, seconds.
    pub mean_mesh_delay: f64,
    /// The paper's overhead units: control messages except `chord.*`.
    pub overhead_units: u64,
}

impl Outcome {
    /// The fields where `self` differs from `want`, as `name: got != want`.
    pub fn mismatches(&self, want: &Outcome) -> Vec<String> {
        let mut out = Vec::new();
        if self.digest != want.digest {
            out.push(format!(
                "digest {:#018x} != {:#018x}",
                self.digest, want.digest
            ));
        }
        if self.events != want.events {
            out.push(format!("events {} != {}", self.events, want.events));
        }
        if self.received_pct.to_bits() != want.received_pct.to_bits() {
            out.push(format!(
                "received_pct {:?} != {:?}",
                self.received_pct, want.received_pct
            ));
        }
        if self.mean_mesh_delay.to_bits() != want.mean_mesh_delay.to_bits() {
            out.push(format!(
                "mean_mesh_delay {:?} != {:?}",
                self.mean_mesh_delay, want.mean_mesh_delay
            ));
        }
        if self.overhead_units != want.overhead_units {
            out.push(format!(
                "overhead_units {} != {}",
                self.overhead_units, want.overhead_units
            ));
        }
        out
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "digest {:#018x}, {} events, received {:?}%, mesh delay {:?} s, {} overhead units",
            self.digest, self.events, self.received_pct, self.mean_mesh_delay, self.overhead_units
        )
    }
}

/// The seed every pin was recorded at.
pub const PIN_SEED: u64 = 42;

/// One workload's pinned outcome.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    /// Workload name.
    pub workload: &'static str,
    /// True when the workload consumes no randomness, so the pin binds at
    /// every seed, not only at [`PIN_SEED`].
    pub seed_invariant: bool,
    /// The outcome at [`PIN_SEED`].
    pub outcome: Outcome,
}

/// The pinned outcomes at seed 42.
pub const PINS: &[Pin] = &[
    Pin {
        workload: "static-2k",
        seed_invariant: true,
        outcome: Outcome {
            digest: 0xbff2_6d75_c21f_f29f,
            events: 15_878_546,
            received_pct: 100.0,
            mean_mesh_delay: 23.372999999999998,
            overhead_units: 11_405_903,
        },
    },
    Pin {
        workload: "churn-1k",
        seed_invariant: false,
        outcome: Outcome {
            digest: 0x7054_7214_70b6_2603,
            events: 13_019_723,
            received_pct: 92.21113614419055,
            mean_mesh_delay: 148.50424999999998,
            overhead_units: 4_118_666,
        },
    },
    Pin {
        workload: "pull-1k",
        seed_invariant: false,
        outcome: Outcome {
            digest: 0xfa70_248d_7fb3_be9c,
            events: 17_658_779,
            received_pct: 100.0,
            mean_mesh_delay: 36.787499999999945,
            overhead_units: 15_214_516,
        },
    },
    Pin {
        workload: "shard2-5k",
        seed_invariant: true,
        outcome: Outcome {
            digest: 0xa288_7b1c_760e_5e35,
            events: 42_360_074,
            received_pct: 100.0,
            mean_mesh_delay: 27.09749999999999,
            overhead_units: 31_168_956,
        },
    },
];

/// The pin that binds `workload` at `seed`, if any.
pub fn pin_for(workload: &str, seed: u64) -> Option<&'static Pin> {
    PINS.iter()
        .find(|p| p.workload == workload && (p.seed_invariant || seed == PIN_SEED))
}

/// Checks one run's outcome: against the pin when one binds, and against
/// `first` — the invocation's first run of the same workload and seed —
/// always. Returns the reason on a mismatch.
pub fn check(
    workload: &str,
    seed: u64,
    got: &Outcome,
    first: Option<&Outcome>,
) -> Result<(), String> {
    if let Some(pin) = pin_for(workload, seed) {
        let diff = got.mismatches(&pin.outcome);
        if !diff.is_empty() {
            return Err(format!(
                "{workload} seed {seed}: differs from the pinned outcome: {}",
                diff.join("; ")
            ));
        }
    }
    if let Some(first) = first {
        let diff = got.mismatches(first);
        if !diff.is_empty() {
            return Err(format!(
                "{workload} seed {seed}: differs from this invocation's first run: {}",
                diff.join("; ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned(workload: &str) -> Outcome {
        pin_for(workload, PIN_SEED).expect("pinned").outcome
    }

    #[test]
    fn every_workload_is_pinned_at_the_pin_seed() {
        for w in ["static-2k", "churn-1k", "pull-1k", "shard2-5k"] {
            assert!(pin_for(w, PIN_SEED).is_some(), "{w}");
        }
        assert!(
            pin_for("static-2k", 7).is_some(),
            "static pins hold at any seed"
        );
        assert!(
            pin_for("churn-1k", 7).is_none(),
            "churn pins only at seed 42"
        );
    }

    #[test]
    fn the_pinned_outcome_passes() {
        let want = pinned("static-2k");
        assert_eq!(check("static-2k", PIN_SEED, &want, None), Ok(()));
        assert_eq!(check("static-2k", 9, &want, Some(&want)), Ok(()));
    }

    #[test]
    fn a_wrong_digest_is_rejected() {
        let mut got = pinned("churn-1k");
        got.digest ^= 1;
        let err = check("churn-1k", PIN_SEED, &got, None).unwrap_err();
        assert!(err.contains("digest"), "{err}");
        // Off the pin seed nothing is pinned, but the runs must agree.
        assert_eq!(check("churn-1k", 7, &got, None), Ok(()));
        let first = pinned("churn-1k");
        assert!(check("churn-1k", 7, &got, Some(&first)).is_err());
    }

    #[test]
    fn a_one_ulp_float_change_is_rejected() {
        let mut got = pinned("pull-1k");
        got.received_pct = f64::from_bits(got.received_pct.to_bits() + 1);
        assert!(check("pull-1k", PIN_SEED, &got, None).is_err());
    }
}
