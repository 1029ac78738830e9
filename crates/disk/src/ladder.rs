//! The N-level power-state ladder: an ordered list of power-saving levels
//! a drive can descend through, generalising the paper's Figure-1 two-state
//! (Idle ⇄ Standby) machine to the multi-state models of the classical DPM
//! literature (Irani, Shukla & Gupta's lower-envelope strategies).
//!
//! Level 0 is always the full-speed operational level (the paper's `Idle`):
//! platters spinning, requests serviceable immediately, no transition cost.
//! Levels `1..` are progressively deeper power-saving levels — active idle
//! / low-RPM / standby on real drives — each with its own resident power
//! draw, an *entry* transition (descending one step from the level above)
//! and an *exit* transition (waking directly back to level 0; disks do not
//! wake level-by-level).
//!
//! ```text
//! level 0 (idle) ── entry(1) ──▶ level 1 ── entry(2) ──▶ level 2 …
//!       ▲                          │                        │
//!       └────────── exit(1) ───────┘                        │
//!       └────────── exit(2) ────────────────────────────────┘
//! ```
//!
//! ## Validation: the lower-envelope condition
//!
//! A ladder is only useful when every level is *non-dominated*: the cost
//! lines `C_l(t) = E_l + P_l·t` (transition overhead of reaching-and-waking
//! from level `l`, plus resident draw over an idle gap of length `t`) must
//! appear on the lower envelope in depth order, i.e. the pairwise
//! intersection times must be strictly increasing with depth. A level that
//! never wins on the envelope would never be chosen by an optimal policy —
//! [`PowerLadder::validate`] rejects it as a spec error. This condition is
//! exactly what makes per-level break-even thresholds monotone (deeper
//! levels ⇒ longer break-even; see `breakeven` and its property tests).

use serde::{Deserialize, Serialize};

use crate::spec::DiskSpec;

/// One rung of the power-state ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerLevel {
    /// Short stable name (`"idle"`, `"lowrpm"`, `"standby"`, …) used in
    /// reports and energy tables.
    pub name: String,
    /// Power draw while resident at this level, watts.
    pub power_w: f64,
    /// Time to descend into this level from the level above, seconds
    /// (0 for level 0, which is never entered by descent).
    pub entry_time_s: f64,
    /// Power drawn during the descent into this level, watts.
    pub entry_power_w: f64,
    /// Time to wake from this level back to level 0, seconds (0 for
    /// level 0).
    pub exit_time_s: f64,
    /// Power drawn while waking from this level, watts.
    pub exit_power_w: f64,
    /// Service-rate factor for levels that can still serve requests
    /// (e.g. a low-RPM level on a multi-speed drive), in (0, 1]. The
    /// replay engine models all saving levels as non-operational (it
    /// always wakes to level 0 before serving, matching the paper's
    /// model), so today this field only participates in validation; it is
    /// the declared hook for operational-level service modelling.
    pub service_rate_factor: f64,
}

impl PowerLevel {
    /// The full-speed operational level (level 0) for a given idle power.
    pub fn operational(idle_power_w: f64) -> Self {
        PowerLevel {
            name: "idle".to_owned(),
            power_w: idle_power_w,
            entry_time_s: 0.0,
            entry_power_w: 0.0,
            exit_time_s: 0.0,
            exit_power_w: 0.0,
            service_rate_factor: 1.0,
        }
    }

    /// Energy (joules) of this level's entry transition.
    pub fn entry_energy_j(&self) -> f64 {
        self.entry_time_s * self.entry_power_w
    }

    /// Energy (joules) of this level's exit transition.
    pub fn exit_energy_j(&self) -> f64 {
        self.exit_time_s * self.exit_power_w
    }
}

/// Errors produced while validating a [`PowerLadder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LadderError {
    /// The ladder has no levels at all.
    Empty,
    /// The ladder has no power-saving levels (only level 0). Model a
    /// drive that never saves power with `ThresholdPolicy::Never`, not a
    /// one-level ladder — every ladder consumer (break-even analysis,
    /// descent policies) assumes at least one saving level exists.
    NoSavingLevels,
    /// The ladder has more levels than the engine's `u8` level indices
    /// (and any physical drive) can use.
    TooDeep {
        /// Number of levels supplied.
        levels: usize,
    },
    /// A level field that must be finite and within range was not.
    BadField {
        /// Level index.
        level: usize,
        /// Field name.
        field: &'static str,
    },
    /// Resident power must strictly decrease with depth, otherwise the
    /// deeper level can never save energy.
    PowerNotDecreasing {
        /// The offending level (draws ≥ the level above).
        level: usize,
    },
    /// A level is dominated: its cost line never appears on the lower
    /// envelope, so no optimal policy would ever rest there (its pairwise
    /// break-even is not longer than the shallower level's).
    DominatedLevel {
        /// The offending level.
        level: usize,
    },
}

impl std::fmt::Display for LadderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LadderError::Empty => write!(f, "power ladder has no levels"),
            LadderError::NoSavingLevels => {
                write!(
                    f,
                    "power ladder needs at least one saving level below level 0 \
                     (use ThresholdPolicy::Never for a drive that never sleeps)"
                )
            }
            LadderError::TooDeep { levels } => {
                write!(f, "power ladder has {levels} levels (max 16)")
            }
            LadderError::BadField { level, field } => {
                write!(f, "ladder level {level} field `{field}` out of range")
            }
            LadderError::PowerNotDecreasing { level } => {
                write!(
                    f,
                    "ladder level {level} does not draw less than the level above"
                )
            }
            LadderError::DominatedLevel { level } => {
                write!(
                    f,
                    "ladder level {level} is dominated (its break-even is not \
                     longer than the shallower level's) — it would never be used"
                )
            }
        }
    }
}

impl std::error::Error for LadderError {}

/// Maximum ladder depth (level indices are `u8`, and no drive exposes
/// anywhere near this many states).
pub const MAX_LEVELS: usize = 16;

/// An ordered, validated list of power levels; index 0 is full-speed idle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerLadder {
    levels: Vec<PowerLevel>,
}

impl PowerLadder {
    /// Build and validate a ladder. `levels[0]` must be the operational
    /// level; deeper levels must draw strictly less power and satisfy the
    /// lower-envelope (non-domination) condition.
    pub fn new(levels: Vec<PowerLevel>) -> Result<Self, LadderError> {
        let ladder = PowerLadder { levels };
        ladder.validate()?;
        Ok(ladder)
    }

    /// The canonical two-state ladder of the paper's Figure 1, derived
    /// from a spec's scalar fields: level 0 = Idle, level 1 = Standby with
    /// the spin-down transition as entry and the spin-up transition as
    /// exit. Running a simulation with this ladder set explicitly is
    /// bit-identical to running with no ladder at all.
    pub fn two_state(spec: &DiskSpec) -> Self {
        PowerLadder {
            levels: vec![
                PowerLevel::operational(spec.idle_power_w),
                PowerLevel {
                    name: "standby".to_owned(),
                    power_w: spec.standby_power_w,
                    entry_time_s: spec.spin_down_time_s,
                    entry_power_w: spec.spin_down_power_w,
                    exit_time_s: spec.spin_up_time_s,
                    exit_power_w: spec.spin_up_power_w,
                    service_rate_factor: 1.0,
                },
            ],
        }
    }

    /// A three-level ladder inserting a low-RPM level between idle and
    /// standby, derived proportionally from the spec's constants so every
    /// preset drive produces a valid (non-dominated) ladder:
    ///
    /// - low-RPM draw = standby + 38 % of the idle−standby span (real
    ///   multi-speed drives sit roughly here — e.g. ~4 W between the Table
    ///   2 drive's 9.3 W idle and 0.8 W standby);
    /// - entering low-RPM takes 30 % of the full spin-down time at idle
    ///   power (the platters stay spinning, just slower);
    /// - waking from low-RPM takes 40 % of the full spin-up time at 62.5 %
    ///   of the spin-up power (no full motor start).
    pub fn with_low_rpm(spec: &DiskSpec) -> Self {
        let two = Self::two_state(spec);
        let low = PowerLevel {
            name: "lowrpm".to_owned(),
            power_w: spec.standby_power_w + 0.38 * (spec.idle_power_w - spec.standby_power_w),
            entry_time_s: 0.3 * spec.spin_down_time_s,
            entry_power_w: spec.idle_power_w,
            exit_time_s: 0.4 * spec.spin_up_time_s,
            exit_power_w: 0.625 * spec.spin_up_power_w,
            service_rate_factor: 1.0,
        };
        PowerLadder {
            levels: vec![two.levels[0].clone(), low, two.levels[1].clone()],
        }
    }

    /// Validate the invariants the state machine and policies rely on.
    pub fn validate(&self) -> Result<(), LadderError> {
        if self.levels.is_empty() {
            return Err(LadderError::Empty);
        }
        if self.levels.len() == 1 {
            return Err(LadderError::NoSavingLevels);
        }
        if self.levels.len() > MAX_LEVELS {
            return Err(LadderError::TooDeep {
                levels: self.levels.len(),
            });
        }
        for (i, level) in self.levels.iter().enumerate() {
            let fields = [
                ("power_w", level.power_w, i == 0),
                ("entry_time_s", level.entry_time_s, i == 0),
                ("entry_power_w", level.entry_power_w, true),
                ("exit_time_s", level.exit_time_s, i == 0),
                ("exit_power_w", level.exit_power_w, true),
            ];
            for (field, v, zero_ok) in fields {
                let lo_ok = if zero_ok { v >= 0.0 } else { v > 0.0 };
                if !v.is_finite() || !lo_ok {
                    return Err(LadderError::BadField { level: i, field });
                }
            }
            if !level.service_rate_factor.is_finite()
                || level.service_rate_factor <= 0.0
                || level.service_rate_factor > 1.0
            {
                return Err(LadderError::BadField {
                    level: i,
                    field: "service_rate_factor",
                });
            }
            if i > 0 && level.power_w >= self.levels[i - 1].power_w {
                return Err(LadderError::PowerNotDecreasing { level: i });
            }
        }
        // Lower-envelope condition: pairwise intersection times strictly
        // increasing with depth (see module docs). The intersection of the
        // cost lines of levels l-1 and l is the pairwise break-even
        //   T_l = ΔE_l / ΔP_l
        // with ΔE_l the extra reach-and-wake overhead of level l over
        // level l-1 and ΔP_l the power saved by resting one level deeper.
        let mut last = 0.0;
        for l in 1..self.levels.len() {
            let t = self.pairwise_break_even_s(l);
            if t <= last {
                return Err(LadderError::DominatedLevel { level: l });
            }
            last = t;
        }
        Ok(())
    }

    /// Number of levels, including level 0.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when the ladder has no levels at all (never the case for a
    /// validated ladder; companion of [`PowerLadder::len`]).
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The deepest level index.
    pub fn deepest(&self) -> u8 {
        (self.levels.len() - 1) as u8
    }

    /// The level at `index`.
    ///
    /// # Panics
    /// If the index is out of range (an engine bug, not a config error).
    pub fn level(&self, index: u8) -> &PowerLevel {
        &self.levels[index as usize]
    }

    /// All levels, shallow to deep.
    pub fn levels(&self) -> &[PowerLevel] {
        &self.levels
    }

    /// Extra reach-and-wake energy overhead (joules) of level `l` over
    /// level `l − 1`: the entry transition into `l` plus the difference in
    /// exit costs.
    fn delta_overhead_j(&self, l: usize) -> f64 {
        self.levels[l].entry_energy_j() + self.levels[l].exit_energy_j()
            - self.levels[l - 1].exit_energy_j()
    }

    /// The pairwise break-even time between consecutive levels `l − 1` and
    /// `l`: the residency at `l` needed to recoup the extra transition
    /// overhead. These are exactly the lower-envelope intersection times,
    /// and strictly increase with depth for any valid ladder.
    pub fn pairwise_break_even_s(&self, l: usize) -> f64 {
        assert!(l >= 1 && l < self.levels.len(), "level {l} out of range");
        self.delta_overhead_j(l) / (self.levels[l - 1].power_w - self.levels[l].power_w)
    }

    /// Total reach-and-wake overhead (joules) of descending from level 0
    /// to level `to` and waking from there: every entry transition on the
    /// way down plus the exit transition from `to`.
    pub fn descent_overhead_j(&self, to: u8) -> f64 {
        let to = to as usize;
        assert!(to < self.levels.len(), "level {to} out of range");
        let entries: f64 = self.levels[1..=to]
            .iter()
            .map(PowerLevel::entry_energy_j)
            .sum();
        entries + self.levels[to].exit_energy_j()
    }
}

/// A `Copy`, serialisable handle naming a ladder preset — the joint grid's
/// ladder dimension (`JointCandidate::ladder` in `spindown_core`) and the
/// `experiments --ladder` CLI value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LadderChoice {
    /// The canonical two-state Idle ⇄ Standby ladder (the paper's model;
    /// leaves [`DiskSpec::ladder`] unset, so runs are bit-identical to the
    /// pre-ladder engine).
    #[default]
    TwoState,
    /// Three levels: idle / low-RPM / standby
    /// ([`PowerLadder::with_low_rpm`]).
    ThreeState,
}

impl LadderChoice {
    /// Every choice, shallow to deep.
    pub fn all() -> Vec<LadderChoice> {
        vec![LadderChoice::TwoState, LadderChoice::ThreeState]
    }

    /// The explicit ladder for `spec`, or `None` for the canonical
    /// two-state default (derived from the spec's scalar fields).
    pub fn build(&self, spec: &DiskSpec) -> Option<PowerLadder> {
        match self {
            LadderChoice::TwoState => None,
            LadderChoice::ThreeState => Some(PowerLadder::with_low_rpm(spec)),
        }
    }

    /// Apply this choice to a spec (sets or clears [`DiskSpec::ladder`]).
    pub fn apply(&self, spec: &mut DiskSpec) {
        spec.ladder = self.build(spec);
    }

    /// Short stable label for figures and CSV notes.
    pub fn label(&self) -> &'static str {
        match self {
            LadderChoice::TwoState => "2state",
            LadderChoice::ThreeState => "3state",
        }
    }

    /// Parse a CLI value (`2`, `two`, `2state`, `3`, `three`, `3state`).
    pub fn parse(s: &str) -> Option<LadderChoice> {
        match s {
            "2" | "two" | "2state" => Some(LadderChoice::TwoState),
            "3" | "three" | "3state" => Some(LadderChoice::ThreeState),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DiskSpec {
        DiskSpec::seagate_st3500630as()
    }

    #[test]
    fn two_state_ladder_mirrors_the_scalar_fields() {
        let l = PowerLadder::two_state(&spec());
        assert_eq!(l.len(), 2);
        assert_eq!(l.deepest(), 1);
        assert_eq!(l.level(0).power_w, 9.3);
        assert_eq!(l.level(1).power_w, 0.8);
        assert_eq!(l.level(1).entry_time_s, 10.0);
        assert_eq!(l.level(1).entry_power_w, 9.3);
        assert_eq!(l.level(1).exit_time_s, 15.0);
        assert_eq!(l.level(1).exit_power_w, 24.0);
        l.validate().expect("canonical ladder valid");
        // The descent overhead is the paper's 453 J and the pairwise
        // break-even the paper's 53.3 s.
        assert!((l.descent_overhead_j(1) - 453.0).abs() < 1e-9);
        assert!((l.pairwise_break_even_s(1) - 53.29).abs() < 0.05);
    }

    #[test]
    fn three_state_presets_validate_for_every_drive() {
        for s in [
            DiskSpec::seagate_st3500630as(),
            DiskSpec::enterprise_15k(),
            DiskSpec::archival_5400(),
        ] {
            let l = PowerLadder::with_low_rpm(&s);
            l.validate().unwrap_or_else(|e| panic!("{}: {e}", s.model));
            assert_eq!(l.len(), 3);
            // Envelope order: low-RPM pays off before standby does.
            assert!(l.pairwise_break_even_s(1) < l.pairwise_break_even_s(2));
        }
    }

    #[test]
    fn dominated_level_is_rejected() {
        // A middle level with an enormous wake cost is dominated: going
        // straight to standby is always at least as good.
        let mut levels = PowerLadder::with_low_rpm(&spec()).levels().to_vec();
        levels[1].exit_time_s = 1000.0;
        let err = PowerLadder::new(levels).unwrap_err();
        assert_eq!(err, LadderError::DominatedLevel { level: 2 });
    }

    #[test]
    fn non_decreasing_power_is_rejected() {
        let mut levels = PowerLadder::two_state(&spec()).levels().to_vec();
        levels[1].power_w = 9.3;
        assert_eq!(
            PowerLadder::new(levels).unwrap_err(),
            LadderError::PowerNotDecreasing { level: 1 }
        );
    }

    #[test]
    fn bad_fields_are_rejected() {
        let mut levels = PowerLadder::two_state(&spec()).levels().to_vec();
        levels[1].entry_time_s = 0.0;
        assert!(matches!(
            PowerLadder::new(levels).unwrap_err(),
            LadderError::BadField {
                level: 1,
                field: "entry_time_s"
            }
        ));
        let mut levels = PowerLadder::two_state(&spec()).levels().to_vec();
        levels[0].service_rate_factor = 1.5;
        assert!(matches!(
            PowerLadder::new(levels).unwrap_err(),
            LadderError::BadField {
                level: 0,
                field: "service_rate_factor"
            }
        ));
        assert_eq!(PowerLadder::new(vec![]).unwrap_err(), LadderError::Empty);
        // A level-0-only ladder is rejected up front: downstream consumers
        // (break-even analysis, descent policies) assume a saving level.
        assert_eq!(
            PowerLadder::new(vec![PowerLevel::operational(9.3)]).unwrap_err(),
            LadderError::NoSavingLevels
        );
    }

    #[test]
    fn descent_overhead_accumulates_entries() {
        let l = PowerLadder::with_low_rpm(&spec());
        let e1 = l.level(1).entry_energy_j() + l.level(1).exit_energy_j();
        let e2 =
            l.level(1).entry_energy_j() + l.level(2).entry_energy_j() + l.level(2).exit_energy_j();
        assert!((l.descent_overhead_j(1) - e1).abs() < 1e-12);
        assert!((l.descent_overhead_j(2) - e2).abs() < 1e-12);
        assert!(l.descent_overhead_j(2) > l.descent_overhead_j(1));
    }

    #[test]
    fn ladder_choice_builds_and_labels() {
        let s = spec();
        assert_eq!(LadderChoice::default(), LadderChoice::TwoState);
        assert!(LadderChoice::TwoState.build(&s).is_none());
        assert_eq!(LadderChoice::ThreeState.build(&s).unwrap().len(), 3);
        assert_eq!(LadderChoice::TwoState.label(), "2state");
        assert_eq!(LadderChoice::parse("3"), Some(LadderChoice::ThreeState));
        assert_eq!(LadderChoice::parse("two"), Some(LadderChoice::TwoState));
        assert_eq!(LadderChoice::parse("x"), None);
        let mut s2 = s.clone();
        LadderChoice::ThreeState.apply(&mut s2);
        assert_eq!(s2.ladder.as_ref().unwrap().len(), 3);
        LadderChoice::TwoState.apply(&mut s2);
        assert!(s2.ladder.is_none());
    }

    #[test]
    fn too_deep_ladder_is_rejected() {
        // 17 levels with valid monotone values still trips the depth cap.
        let mut levels = vec![PowerLevel::operational(100.0)];
        for i in 1..=16usize {
            levels.push(PowerLevel {
                name: format!("l{i}"),
                power_w: 100.0 - i as f64 * 5.0,
                entry_time_s: 1.0,
                entry_power_w: 1.0,
                exit_time_s: i as f64 * 40.0,
                exit_power_w: 100.0,
                service_rate_factor: 1.0,
            });
        }
        assert!(matches!(
            PowerLadder::new(levels).unwrap_err(),
            LadderError::TooDeep { levels: 17 }
        ));
    }
}
